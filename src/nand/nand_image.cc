#include "src/nand/nand_image.h"

#include <fstream>
#include <span>
#include <utility>
#include <vector>

#include "src/common/serde.h"

namespace iosnap {

namespace {

// "IOSNAPIM" little-endian.
constexpr uint64_t kImageMagic = 0x4d4950414e534f49ull;
constexpr uint32_t kImageVersion = 1;

// A segment record is at least its erased/bad flags and three u64 counters, so the
// bytes left bound num_segments before the device is built from an image's geometry.
constexpr uint64_t kSegmentRecordBytes = 2 + 3 * sizeof(uint64_t);

void PutHeader(std::vector<uint8_t>* out, const PageHeader& h) {
  PutU8(out, static_cast<uint8_t>(h.type));
  PutU64(out, h.lba);
  PutU32(out, h.epoch);
  PutU64(out, h.seq);
  PutU32(out, h.snap_id);
  PutU32(out, h.trim_count);
  PutU32(out, h.payload_len);
  PutU32(out, h.crc);
}

Status GetHeader(const std::vector<uint8_t>& in, size_t* offset, PageHeader* h) {
  uint8_t type = 0;
  RETURN_IF_ERROR(GetU8(in, offset, &type));
  h->type = static_cast<RecordType>(type);
  RETURN_IF_ERROR(GetU64(in, offset, &h->lba));
  RETURN_IF_ERROR(GetU32(in, offset, &h->epoch));
  RETURN_IF_ERROR(GetU64(in, offset, &h->seq));
  RETURN_IF_ERROR(GetU32(in, offset, &h->snap_id));
  RETURN_IF_ERROR(GetU32(in, offset, &h->trim_count));
  RETURN_IF_ERROR(GetU32(in, offset, &h->payload_len));
  RETURN_IF_ERROR(GetU32(in, offset, &h->crc));
  return OkStatus();
}

}  // namespace

void NandDevice::SerializeTo(std::vector<uint8_t>* out) const {
  PutU64(out, kImageMagic);
  PutU32(out, kImageVersion);
  // Geometry + timings: enough to rebuild an identical device (minus fault config).
  PutU64(out, config_.page_size_bytes);
  PutU64(out, config_.pages_per_segment);
  PutU64(out, config_.num_segments);
  PutU32(out, config_.num_channels);
  PutU64(out, config_.read_ns);
  PutU64(out, config_.program_ns);
  PutU64(out, config_.erase_ns);
  PutU64(out, config_.bus_ns_per_page);
  PutU32(out, config_.buses);
  PutU8(out, config_.copyback_scrub ? 1 : 0);
  PutU64(out, config_.header_scan_ns_per_page);
  PutU64(out, config_.max_erase_count);
  PutU8(out, config_.store_data ? 1 : 0);
  for (uint64_t s = 0; s < config_.num_segments; ++s) {
    const SegmentState& seg = segments_[s];
    PutU8(out, seg.erased ? 1 : 0);
    PutU8(out, seg.bad ? 1 : 0);
    PutU64(out, seg.next_page);
    PutU64(out, seg.erase_count);
    PutU64(out, seg.read_count);
    const uint64_t first = FirstPageOf(s);
    // Only slots below next_page can be programmed; each records its programmed
    // flag (failed programs leave holes below next_page).
    for (uint64_t i = 0; i < seg.next_page; ++i) {
      const uint64_t paddr = first + i;
      const bool programmed = programmed_.Test(paddr);
      PutU8(out, programmed ? 1 : 0);
      if (!programmed) {
        continue;
      }
      PutHeader(out, headers_[paddr]);
      PutU64(out, programmed_at_ns_[paddr]);
      const std::span<const uint8_t> payload = seg.Payload(i);
      PutU32(out, static_cast<uint32_t>(payload.size()));
      out->insert(out->end(), payload.begin(), payload.end());
    }
  }
}

StatusOr<std::unique_ptr<NandDevice>> NandDevice::Deserialize(
    const std::vector<uint8_t>& bytes) {
  size_t offset = 0;
  uint64_t magic = 0;
  RETURN_IF_ERROR(GetU64(bytes, &offset, &magic));
  if (magic != kImageMagic) {
    return InvalidArgument("nand-image: bad magic (not an ioSnap image)");
  }
  uint32_t version = 0;
  RETURN_IF_ERROR(GetU32(bytes, &offset, &version));
  if (version != kImageVersion) {
    return InvalidArgument("nand-image: unsupported version " + std::to_string(version));
  }
  NandConfig config;
  RETURN_IF_ERROR(GetU64(bytes, &offset, &config.page_size_bytes));
  RETURN_IF_ERROR(GetU64(bytes, &offset, &config.pages_per_segment));
  RETURN_IF_ERROR(GetU64(bytes, &offset, &config.num_segments));
  RETURN_IF_ERROR(GetU32(bytes, &offset, &config.num_channels));
  RETURN_IF_ERROR(GetU64(bytes, &offset, &config.read_ns));
  RETURN_IF_ERROR(GetU64(bytes, &offset, &config.program_ns));
  RETURN_IF_ERROR(GetU64(bytes, &offset, &config.erase_ns));
  RETURN_IF_ERROR(GetU64(bytes, &offset, &config.bus_ns_per_page));
  RETURN_IF_ERROR(GetU32(bytes, &offset, &config.buses));
  uint8_t flag = 0;
  RETURN_IF_ERROR(GetU8(bytes, &offset, &flag));
  config.copyback_scrub = flag != 0;
  RETURN_IF_ERROR(GetU64(bytes, &offset, &config.header_scan_ns_per_page));
  RETURN_IF_ERROR(GetU64(bytes, &offset, &config.max_erase_count));
  RETURN_IF_ERROR(GetU8(bytes, &offset, &flag));
  config.store_data = flag != 0;
  if (Status geometry = ValidateGeometry(config); !geometry.ok()) {
    return DataLoss("nand-image: " + geometry.message());
  }
  if (config.num_segments > (bytes.size() - offset) / kSegmentRecordBytes) {
    return DataLoss("nand-image: segment count exceeds image size");
  }
  // config.fault stays default (all rates zero): images load disarmed.
  auto device = std::make_unique<NandDevice>(config);
  for (uint64_t s = 0; s < config.num_segments; ++s) {
    SegmentState& seg = device->segments_[s];
    RETURN_IF_ERROR(GetU8(bytes, &offset, &flag));
    seg.erased = flag != 0;
    RETURN_IF_ERROR(GetU8(bytes, &offset, &flag));
    seg.bad = flag != 0;
    RETURN_IF_ERROR(GetU64(bytes, &offset, &seg.next_page));
    RETURN_IF_ERROR(GetU64(bytes, &offset, &seg.erase_count));
    RETURN_IF_ERROR(GetU64(bytes, &offset, &seg.read_count));
    if (seg.next_page > config.pages_per_segment) {
      return DataLoss("nand-image: segment next_page out of range");
    }
    const uint64_t first = device->FirstPageOf(s);
    for (uint64_t i = 0; i < seg.next_page; ++i) {
      RETURN_IF_ERROR(GetU8(bytes, &offset, &flag));
      if (flag == 0) {
        continue;
      }
      const uint64_t paddr = first + i;
      device->programmed_.Set(paddr);
      PageHeader& header = device->headers_[paddr];
      RETURN_IF_ERROR(GetHeader(bytes, &offset, &header));
      RETURN_IF_ERROR(GetU64(bytes, &offset, &device->programmed_at_ns_[paddr]));
      uint32_t len = 0;
      RETURN_IF_ERROR(GetU32(bytes, &offset, &len));
      if (offset + len > bytes.size()) {
        return DataLoss("nand-image: truncated page payload");
      }
      // Parity pages legitimately exceed the page size: their payload is the XOR
      // member image (header-prefix + payload), so bound by the per-type limit.
      if (len > device->MaxPayloadBytes(header.type)) {
        return DataLoss("nand-image: payload larger than a page");
      }
      if (len > 0) {
        device->AppendPayload(seg, i,
                              std::span<const uint8_t>(bytes).subspan(offset, len));
      }
      offset += len;
    }
    if (!seg.bad) {
      device->max_erase_count_ = std::max(device->max_erase_count_, seg.erase_count);
    }
  }
  if (offset != bytes.size()) {
    return DataLoss("nand-image: trailing bytes after image payload");
  }
  return device;
}

Status SaveNandImage(const NandDevice& device, const std::string& path) {
  std::vector<uint8_t> bytes;
  device.SerializeTo(&bytes);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Internal("nand-image: cannot open " + path + " for writing");
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    return Internal("nand-image: short write to " + path);
  }
  return OkStatus();
}

StatusOr<std::unique_ptr<NandDevice>> LoadNandImage(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return NotFound("nand-image: cannot open " + path);
  }
  const std::streamsize size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0 && !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return DataLoss("nand-image: short read from " + path);
  }
  return NandDevice::Deserialize(bytes);
}

}  // namespace iosnap
