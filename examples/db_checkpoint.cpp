// Database-style checkpointing + audit trail on ioSnap — the high-IOPS use case the
// paper's §3 motivates: flash fills fast, so snapshots are taken often to capture
// intermediate state, and the system must tolerate crashes.
//
// A tiny fixed-slot KV table lives on the block device. Every "transaction batch" ends
// with a snapshot, giving a consistent restore point per batch. We then crash the
// device mid-batch, reopen it (full log recovery, §5.5), and roll the table back to the
// last durable batch by activating its snapshot — demonstrating that snapshots and their
// lineage survive crashes.

#include <cstdio>
#include <map>
#include <string>

#include "src/common/logging.h"
#include "src/common/units.h"
#include "src/core/ftl.h"

using namespace iosnap;

namespace {

constexpr uint64_t kTableSlots = 1024;

// One KV slot per block: "key=<k> value=<v> batch=<b>".
std::vector<uint8_t> Record(uint64_t page_bytes, uint64_t key, uint64_t value,
                            int batch) {
  std::vector<uint8_t> page(page_bytes, 0);
  std::snprintf(reinterpret_cast<char*>(page.data()), page.size(),
                "key=%llu value=%llu batch=%d", (unsigned long long)key,
                (unsigned long long)value, batch);
  return page;
}

}  // namespace

int main() {
  FtlConfig config;
  config.nand.page_size_bytes = 4096;
  config.nand.pages_per_segment = 128;
  config.nand.num_segments = 128;
  config.nand.store_data = true;

  auto ftl_or = Ftl::Create(config);
  IOSNAP_CHECK(ftl_or.ok());
  std::unique_ptr<Ftl> ftl = std::move(ftl_or).value();
  uint64_t now = 0;

  // Run three committed transaction batches; snapshot after each.
  std::map<int, uint32_t> batch_snapshots;
  std::map<uint64_t, uint64_t> committed_values;  // As of the last committed batch.
  for (int batch = 1; batch <= 3; ++batch) {
    for (uint64_t i = 0; i < 200; ++i) {
      const uint64_t key = (static_cast<uint64_t>(batch) * 37 + i * 11) % kTableSlots;
      const uint64_t value = static_cast<uint64_t>(batch) * 1000 + i;
      auto io = ftl->Write(key, Record(4096, key, value, batch), now);
      IOSNAP_CHECK_OK(io.status());
      now = io->CompletionNs();
      committed_values[key] = value;
    }
    auto snap = ftl->CreateSnapshot("batch-" + std::to_string(batch), now);
    IOSNAP_CHECK_OK(snap.status());
    now = snap->io.CompletionNs();
    batch_snapshots[batch] = snap->snap_id;
    std::printf("batch %d committed, snapshot %u\n", batch, snap->snap_id);
  }

  // Batch 4 starts writing but crashes midway — these writes must not survive a
  // rollback, and the device must reopen cleanly.
  for (uint64_t i = 0; i < 77; ++i) {
    const uint64_t key = (4 * 37 + i * 11) % kTableSlots;
    auto io = ftl->Write(key, Record(4096, key, 9999, 4), now);
    IOSNAP_CHECK_OK(io.status());
    now = io->CompletionNs();
  }
  std::printf("\n*** power failure mid-batch-4 ***\n");
  std::unique_ptr<NandDevice> media = ftl->ReleaseDevice();

  uint64_t recovered_at = now;
  auto reopened = Ftl::Open(config, std::move(media), now, &recovered_at);
  IOSNAP_CHECK(reopened.ok());
  ftl = std::move(reopened).value();
  now = recovered_at;
  std::printf("device reopened via log recovery in %.2f ms; %zu snapshots survived\n",
              NsToMs(recovered_at), ftl->snapshot_tree().LiveSnapshotIds().size());

  // Roll back: activate the batch-3 snapshot and copy every differing slot over the
  // (partially written) live table.
  const uint32_t snap3 = batch_snapshots[3];
  uint64_t finish = now;
  auto view = ftl->ActivateBlocking(snap3, now, /*writable=*/false, &finish);
  IOSNAP_CHECK_OK(view.status());
  now = finish;

  uint64_t rolled_back = 0;
  for (uint64_t key = 0; key < kTableSlots; ++key) {
    std::vector<uint8_t> live;
    std::vector<uint8_t> snap_page;
    IOSNAP_CHECK_OK(ftl->Read(key, now, &live).status());
    IOSNAP_CHECK_OK(ftl->ReadView(*view, key, now, &snap_page).status());
    if (live != snap_page) {
      auto io = ftl->Write(key, snap_page, now);
      IOSNAP_CHECK_OK(io.status());
      now = io->CompletionNs();
      ++rolled_back;
    }
  }
  IOSNAP_CHECK_OK(ftl->Deactivate(*view, now));
  std::printf("rolled back %llu dirty slots to batch 3\n",
              (unsigned long long)rolled_back);

  // Verify the table matches the committed state exactly.
  for (uint64_t key = 0; key < kTableSlots; ++key) {
    std::vector<uint8_t> page;
    IOSNAP_CHECK_OK(ftl->Read(key, now, &page).status());
    auto it = committed_values.find(key);
    if (it == committed_values.end()) {
      IOSNAP_CHECK(page == std::vector<uint8_t>(4096, 0));
    } else {
      const std::string text(reinterpret_cast<const char*>(page.data()));
      IOSNAP_CHECK(text.find("value=" + std::to_string(it->second) + " ") !=
                   std::string::npos);
    }
  }
  std::printf("table verified against committed state — audit trail intact:\n");
  for (const auto& [batch, snap_id] : batch_snapshots) {
    auto info = ftl->snapshot_tree().Get(snap_id);
    IOSNAP_CHECK_OK(info.status());
    std::printf("  snapshot %u (\"%s\") epoch %u depth %d\n", snap_id,
                info->name.c_str(), info->epoch, ftl->snapshot_tree().SnapshotDepth(snap_id));
  }
  return 0;
}
