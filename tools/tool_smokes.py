#!/usr/bin/env python3
"""End-to-end smokes of the shipped tools, registered as ctest entries.

Each case drives iosnap_sim, iosnap_fsck and iosnap_analyze in a scratch directory
named after the case (under the current directory) and exits 1 with a message when an
expectation fails. The fault cases run at the sizes of CI's fault-campaign steps and
keep every one of their assertions.

  tool_smokes.py CASE --sim PATH --fsck PATH --analyze PATH

Cases:
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
  analyze_garbage  a span or trace CSV whose numeric field holds garbage: the
                   analyzer exits nonzero and names the column
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


CASES = {f.__name__: f for f in (fault_sim, copyback_faults, fsck_repair,
                                 hostile_image, parity_rebuild, analyze_garbage)}


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
