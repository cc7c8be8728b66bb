#!/usr/bin/env python3
"""End-to-end smokes of the shipped tools, registered as ctest entries.

Each case drives iosnap_sim, iosnap_fsck and iosnap_analyze in a scratch directory
named after the case (under the current directory) and exits 1 with a message when an
expectation fails. Each case is defined only here: ctest runs every case, on CI's
default and ASan/UBSan builds alike; CI's test job uploads the analyzer cases'
directories, and its sanitize job uploads the fault, parity and fsck cases' directories
when it fails.

  tool_smokes.py CASE --sim PATH --fsck PATH --analyze PATH

Cases:
  analyze_attribution  a GC-heavy queued randwrite run writes spans, a trace, a
                   metrics series and metrics JSON: the analyzer re-checks every span
                   record with 0 violations, the metrics carry the gc_wait span total,
                   and the series has its t_ns header and at least one sample row
  analyze_copyback the same churn over 4 buses with copyback GC: the analyzer keeps
                   the span sum across on-die gc_copy rows and reports them, and the
                   metrics count copyback pages and per-bus utilization for every bus
  observability    a seqwrite run with a snapshot cadence writes a trace and metrics
                   JSON that both parse, and the metrics count every write and every
                   cadence snapshot
  fault_sim        live program/read fault rates with snapshots, then a release and
                   reopen through full recovery: the metrics JSON parses
  copyback_faults  the same with copyback GC on two buses (scrub on): the run survives
                   the reopen and copies pages on-die
  fsck_repair      a parity image with latent wear corruption: fsck exits 1 (dirty)
                   and counts stripe-rebuildable pages, --repair exits 0, and a
                   second fsck exits 0 (clean)
  hostile_image    8 bytes of 0xff at offset 35 of an image: fsck exits 2 with
                   DATA_LOSS instead of aborting
  parity_rebuild   program-time corruption with parity on: every corrupt read is
                   rebuilt from its stripe, none fails or is lost
  parity_program_faults  parity, copyback GC and program-failure reroutes in one run,
                   then a release and reopen: the metrics (the run's, taken before
                   the reopen) count reroutes, parity pages and copybacks, and fsck
                   passes the saved image
  reroute_reserve  a zipf run with snapshots, copyback GC on colocating heads, parity,
                   patrol and live program/corruption faults, whose program-failure
                   reroutes meet the GC reserve: the writes clean and re-drive, so
                   the workload runs to the end, and the metrics count the reroutes;
                   then a release and reopen keeps the three snapshots, and fsck of
                   the saved image finds recovery consistent with the media (it may
                   still call the run's injected corruption dirty)
  analyze_garbage  a span or trace CSV whose numeric field holds garbage: the
                   analyzer exits nonzero and names the column
  bad_geometry     a zero page size, segment size, channel count, bus count or
                   validity chunk size: the sim exits 1 with a message instead of
                   aborting on a CHECK or a division by zero
"""

import argparse
import csv
import json
import os
import re
import subprocess
import sys


def fail(message):
    print("FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def run(args, want_rc):
    """Runs a tool, echoes its output, and requires exit code want_rc."""
    proc = subprocess.run(args, capture_output=True, text=True)
    output = proc.stdout + proc.stderr
    print("$ " + " ".join(args))
    print(output, end="")
    if want_rc is not None and proc.returncode != want_rc:
        fail("%s exited %d, want %d" % (os.path.basename(args[0]), proc.returncode, want_rc))
    return proc.returncode, output


def analyze(tools, args, report_path):
    """Runs the analyzer, saves its report, and requires a clean span-sum check."""
    _, report = run([tools.analyze] + args, 0)
    with open(report_path, "w") as f:
        f.write(report)
    if ", 0 violations" not in report:
        fail("the analyzer's span-sum check found violations")
    return report


def analyze_attribution(tools):
    run([tools.sim, "--device_mib=64", "--ops=100000", "--workload=randwrite",
         "--queues=2", "--iodepth=8", "--spans_out=spans.csv", "--trace_out=trace.csv",
         "--metrics_interval_ns=100000000", "--metrics_series_out=metrics_series.csv",
         "--metrics_out=metrics_attr.json"], 0)
    analyze(tools, ["--spans=spans.csv", "--trace=trace.csv", "--top=10"],
            "analyzer_report.txt")
    with open("metrics_attr.json") as f:
        m = json.load(f)
    if "lat.span.gc_wait.total_ns" not in m:
        fail("no lat.span.gc_wait.total_ns in the metrics")
    with open("metrics_series.csv", newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0][0] != "t_ns":
        fail("the metrics series has no t_ns header")
    if len(rows) < 2:
        fail("the metrics series has no sample row")


def analyze_copyback(tools):
    run([tools.sim, "--device_mib=64", "--ops=100000", "--workload=randwrite",
         "--queues=2", "--iodepth=8", "--buses=4", "--copyback=1",
         "--spans_out=spans_cb.csv", "--metrics_out=metrics_cb.json"], 0)
    report = analyze(tools, ["--spans=spans_cb.csv", "--metrics=metrics_cb.json"],
                     "analyzer_cb_report.txt")
    if "on-die" not in report:
        fail("the analyzer reports no on-die copies")
    with open("metrics_cb.json") as f:
        m = json.load(f)
    if not m["nand.copyback_pages"] > 0:
        fail("nand.copyback_pages = %s" % m["nand.copyback_pages"])
    for bus in range(4):
        if "nand.bus_busy_frac.%d" % bus not in m:
            fail("no nand.bus_busy_frac.%d in the metrics" % bus)


def observability(tools):
    run([tools.sim, "--workload=seqwrite", "--ops=20000", "--snapshot_every=5000",
         "--trace_out=trace.json", "--metrics_out=metrics.json"], 0)
    with open("trace.json") as f:
        json.load(f)
    with open("metrics.json") as f:
        m = json.load(f)
    for name, want in [("ftl.snapshots_created", 4), ("ftl.user_writes", 20000)]:
        if m[name] != want:
            fail("%s = %s, want %s" % (name, m[name], want))


def fault_sim(tools):
    run([tools.sim, "--workload=randwrite", "--device_mib=64", "--ops=20000",
         "--snapshot_every=2000", "--fault_seed=7", "--fault_program_ppm=500",
         "--fault_read_ppm=500", "--crash_and_recover",
         "--metrics_out=fault_metrics.json"], 0)
    with open("fault_metrics.json") as f:
        json.load(f)


def copyback_faults(tools):
    run([tools.sim, "--workload=randwrite", "--device_mib=64", "--ops=20000",
         "--snapshot_every=2000", "--lba_frac=0.5", "--buses=2", "--copyback=1",
         "--fault_seed=7", "--fault_program_ppm=500", "--fault_read_ppm=500",
         "--crash_and_recover", "--metrics_out=fault_cb_metrics.json"], 0)
    with open("fault_cb_metrics.json") as f:
        m = json.load(f)
    if not m["nand.copyback_pages"] > 0:
        fail("nand.copyback_pages = %s" % m.get("nand.copyback_pages"))


def fsck_repair(tools):
    run([tools.sim, "--device_mib=64", "--ops=80000", "--workload=mixed",
         "--read_frac=0.9", "--lba_frac=0.3", "--snapshot_every=20000",
         "--parity_stripe=7", "--fault_seed=11", "--read_disturb_ppm_per_k_reads=1500",
         "--retention_ppm_per_sec=20", "--image_out=wear.img"], 0)
    _, report = run([tools.fsck, "--image=wear.img"], 1)
    rebuilt = re.search(r"^\s*rebuilt_data_pages\s+(\d+)$", report, re.M)
    if rebuilt is None or int(rebuilt.group(1)) == 0:
        fail("expected stripe-rebuildable pages on the parity image")
    run([tools.fsck, "--image=wear.img", "--repair"], 0)
    run([tools.fsck, "--image=wear.img"], 0)


def hostile_image(tools):
    run([tools.sim, "--workload=randwrite", "--device_mib=64", "--ops=2000",
         "--image_out=hostile.img"], 0)
    with open("hostile.img", "r+b") as image:
        image.seek(35)
        image.write(b"\xff" * 8)
    _, report = run([tools.fsck, "--image=hostile.img"], 2)
    if "DATA_LOSS" not in report:
        fail("fsck did not report DATA_LOSS")


def parity_rebuild(tools):
    run([tools.sim, "--workload=mixed", "--read_frac=0.5", "--device_mib=64",
         "--ops=20000", "--snapshot_every=2000", "--lba_frac=0.4", "--parity_stripe=7",
         "--fault_seed=9", "--fault_corrupt_ppm=2000",
         "--metrics_out=parity_metrics.json"], 0)
    with open("parity_metrics.json") as f:
        m = json.load(f)
    checks = [("log.parity_pages_written", m["log.parity_pages_written"] > 0),
              ("ftl.pages_rebuilt", m["ftl.pages_rebuilt"] > 0),
              ("ftl.pages_rebuild_failed", m["ftl.pages_rebuild_failed"] == 0),
              ("ftl.pages_lost_forever", m["ftl.pages_lost_forever"] == 0),
              ("ftl.user_read_errors", m["ftl.user_read_errors"] == 0)]
    for name, ok in checks:
        if not ok:
            fail("%s = %s" % (name, m[name]))


def parity_program_faults(tools):
    run([tools.sim, "--workload=randwrite", "--device_mib=64", "--segment_pages=128",
         "--ops=20000", "--snapshot_every=2000", "--lba_frac=0.4", "--buses=2",
         "--copyback=1", "--parity_stripe=7", "--fault_seed=7",
         "--fault_program_ppm=100", "--crash_and_recover",
         "--metrics_out=parity_faults_metrics.json", "--image_out=parity_faults.img"], 0)
    with open("parity_faults_metrics.json") as f:
        m = json.load(f)
    for name in ["log.append_reroutes", "log.parity_pages_written",
                 "nand.copyback_pages"]:
        if not m[name] > 0:
            fail("%s = %s" % (name, m[name]))
    run([tools.fsck, "--image=parity_faults.img"], 0)


def reroute_reserve(tools):
    _, output = run([tools.sim, "--device_mib=256", "--ops=200000", "--workload=zipf",
                     "--lba_frac=0.2", "--snapshot_every=20000", "--keep_snapshots=3",
                     "--policy=colocate", "--copyback=1", "--parity_stripe=7", "--patrol",
                     "--patrol_refresh_reads=50", "--fault_seed=3",
                     "--fault_corrupt_ppm=200", "--fault_program_ppm=20",
                     "--metrics_out=reroute_metrics.json", "--crash_and_recover",
                     "--image_out=reroute.img"], 0)
    if "workload aborted" in output:
        fail("the workload aborted")
    if not re.search(r"^recovered in .* mapped blocks, 3 live snapshots$", output, re.M):
        fail("the reopen did not keep the three snapshots")
    with open("reroute_metrics.json") as f:
        m = json.load(f)
    if not m["log.append_reroutes"] > 0:
        fail("log.append_reroutes = %s" % m["log.append_reroutes"])
    rc, report = run([tools.fsck, "--image=reroute.img"], None)
    if rc not in (0, 1):
        fail("fsck exited %d, want 0 or 1" % rc)
    for name, want in [("recovery_ok", "yes"), ("dangling_validity_refs", "0"),
                       ("map_mismatches", "0"), ("doubly_claimed_pages", "0")]:
        if not re.search(r"^\s*%s\s+%s$" % (name, want), report, re.M):
            fail("fsck: want %s %s" % (name, want))


def analyze_garbage(tools):
    run([tools.sim, "--device_mib=64", "--ops=2000", "--workload=randwrite",
         "--spans_out=spans.csv", "--trace_out=trace.csv"], 0)

    def first_row(path):
        with open(path, newline="") as f:
            rows = csv.reader(f)
            return next(rows), next(rows)

    def write(path, header, row, column=None, text=None):
        row = list(row)
        if column is not None:
            row[header.index(column)] = text
        with open(path, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows([header, row])

    span_header, span_row = first_row("spans.csv")
    trace_header, trace_row = first_row("trace.csv")
    write("tiny_spans.csv", span_header, span_row)
    write("tiny_trace.csv", trace_header, trace_row)
    run([tools.analyze, "--spans=tiny_spans.csv", "--trace=tiny_trace.csv"], 0)

    cases = [("spans", "lba", "12x"), ("spans", "total_ns", "1x"),
             ("trace", "start_ns", "5e3")]
    for kind, column, text in cases:
        if kind == "spans":
            write("bad.csv", span_header, span_row, column, text)
            args = ["--spans=bad.csv"]
        else:
            write("bad.csv", trace_header, trace_row, column, text)
            args = ["--spans=tiny_spans.csv", "--trace=bad.csv"]
        rc, output = run([tools.analyze] + args, None)
        if rc == 0:
            fail("analyzer accepted %s %s '%s'" % (kind, column, text))
        if "bad %s '%s'" % (column, text) not in output:
            fail("analyzer error does not name %s '%s'" % (column, text))


def bad_geometry(tools):
    for flag, message in [("--channels=0", "num_channels is 0"),
                          ("--buses=0", "buses is 0"),
                          ("--chunk_bits=0", "validity_chunk_bits is 0"),
                          ("--segment_pages=0", "--segment_pages must be positive"),
                          ("--page_kib=0", "--page_kib and --segment_pages")]:
        _, output = run([tools.sim, "--ops=10", flag], 1)
        if message not in output:
            fail("%s: no '%s' in the output" % (flag, message))


CASES = {f.__name__: f for f in (analyze_attribution, analyze_copyback, observability,
                                 fault_sim, copyback_faults, fsck_repair, hostile_image,
                                 parity_rebuild, parity_program_faults, reroute_reserve,
                                 analyze_garbage, bad_geometry)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("case", choices=sorted(CASES))
    parser.add_argument("--sim", required=True)
    parser.add_argument("--fsck", required=True)
    parser.add_argument("--analyze", required=True)
    tools = parser.parse_args()
    os.makedirs(tools.case, exist_ok=True)
    os.chdir(tools.case)
    CASES[tools.case](tools)
    print("PASS: " + tools.case)


if __name__ == "__main__":
    main()
