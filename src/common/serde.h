// Little-endian binary encoding primitives.
//
// The session snapshot format (src/session/snapshot.h) and the crowd-state
// blobs (src/crowd/crowd.h) need a platform-stable byte encoding: fixed-width
// little-endian integers and IEEE-754 bit patterns for doubles, so a snapshot
// written on one machine restores byte-identically on another. BinaryWriter
// appends to a std::string; BinaryReader consumes a string_view and latches
// the first failure (short read, impossible count, rejected value) so callers
// can check once at the end.
//
// Decoders read outside bytes, so a count is never trusted: Count() bounds
// every element count by what the rest of the input can hold, before
// anything is reserved, and Seq() reads sequences through it. Element
// readers read their fields in statement order (named locals), never as two
// reads in one function call's arguments, whose order C++ leaves unspecified.
// Framed() is the one CRC frame of the snapshot sections and the crowd
// journal artifact.
#ifndef FALCON_COMMON_SERDE_H_
#define FALCON_COMMON_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace falcon {

class BinaryWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  /// IEEE-754 bit pattern; NaN round-trips bit-exactly.
  void F64(double v);
  /// Length-prefixed (u64) byte string.
  void Str(std::string_view s);
  /// Raw bytes, no length prefix.
  void Raw(const void* data, size_t len);
  /// CRC frame: u64 payload length, CRC-32 of the payload, the payload.
  void Framed(std::string_view payload);

  /// Count-prefixed (u64) sequence: `put(element, this)` per element.
  template <typename Range, typename Put>
  void Seq(const Range& items, Put put) {
    U64(items.size());
    for (const auto& item : items) put(item, this);
  }

  const std::string& data() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  double F64();
  std::string Str();

  /// Reads a u64 count of elements that each encode to at least `min_bytes`
  /// (>= 1) bytes. A count above remaining() / min_bytes cannot be genuine: it
  /// latches failure and returns 0, so the caller reserves nothing.
  uint64_t Count(size_t min_bytes);

  /// Replaces `out` with a Count(min_bytes)-prefixed sequence, one
  /// `get(this)` per element. Returns ok().
  template <typename T, typename Get>
  bool Seq(size_t min_bytes, std::vector<T>* out, Get get) {
    const uint64_t n = Count(min_bytes);
    out->clear();
    out->reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n && ok_; ++i) out->push_back(get(this));
    return ok_;
  }

  /// Reads a CRC frame (BinaryWriter::Framed) and returns a view of its
  /// payload into this reader's input. `what` names the frame in errors.
  Result<std::string_view> Framed(std::string_view what);

  /// Latches failure: for element readers that decode a value the format
  /// forbids.
  void Fail() { ok_ = false; }

  /// False once any read failed (reads after that return zeros).
  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }
  /// True if every byte was consumed and no read failed.
  bool exhausted() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Take(size_t n, const char** p);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Element codecs for Seq() shared by the snapshot and journal formats.
inline void PutU32(uint32_t v, BinaryWriter* w) { w->U32(v); }
inline uint32_t GetU32(BinaryReader* r) { return r->U32(); }
/// A pair of u32s (row ids of a candidate pair or crowd question).
inline void PutU32Pair(const std::pair<uint32_t, uint32_t>& p,
                       BinaryWriter* w) {
  w->U32(p.first);
  w->U32(p.second);
}
inline std::pair<uint32_t, uint32_t> GetU32Pair(BinaryReader* r) {
  const uint32_t first = r->U32();
  const uint32_t second = r->U32();
  return {first, second};
}

}  // namespace falcon

#endif  // FALCON_COMMON_SERDE_H_
