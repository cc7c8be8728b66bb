// Minimal little-endian byte serialization used by the tree and trim summaries and the
// media image. All Get* functions validate bounds and report kDataLoss on truncation — a
// torn record must be detected, not crash.

#ifndef SRC_COMMON_SERDE_H_
#define SRC_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace iosnap {

inline void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

inline void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

inline Status GetU8(const std::vector<uint8_t>& in, size_t* offset, uint8_t* v) {
  if (*offset + 1 > in.size()) {
    return DataLoss("serde: truncated u8");
  }
  *v = in[*offset];
  *offset += 1;
  return OkStatus();
}

inline Status GetU32(const std::vector<uint8_t>& in, size_t* offset, uint32_t* v) {
  if (*offset + 4 > in.size()) {
    return DataLoss("serde: truncated u32");
  }
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(in[*offset + i]) << (8 * i);
  }
  *v = out;
  *offset += 4;
  return OkStatus();
}

inline Status GetU64(const std::vector<uint8_t>& in, size_t* offset, uint64_t* v) {
  if (*offset + 8 > in.size()) {
    return DataLoss("serde: truncated u64");
  }
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(in[*offset + i]) << (8 * i);
  }
  *v = out;
  *offset += 8;
  return OkStatus();
}

inline Status GetString(const std::vector<uint8_t>& in, size_t* offset, std::string* s) {
  uint32_t len = 0;
  RETURN_IF_ERROR(GetU32(in, offset, &len));
  if (*offset + len > in.size()) {
    return DataLoss("serde: truncated string");
  }
  s->assign(reinterpret_cast<const char*>(in.data() + *offset), len);
  *offset += len;
  return OkStatus();
}

}  // namespace iosnap

#endif  // SRC_COMMON_SERDE_H_
