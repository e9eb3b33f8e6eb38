#include "common/serde.h"

#include <cstring>

#include "common/crc32.h"

namespace falcon {

void BinaryWriter::U32(uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out_.append(buf, 4);
}

void BinaryWriter::U64(uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out_.append(buf, 8);
}

void BinaryWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void BinaryWriter::Str(std::string_view s) {
  U64(s.size());
  out_.append(s.data(), s.size());
}

void BinaryWriter::Raw(const void* data, size_t len) {
  out_.append(static_cast<const char*>(data), len);
}

void BinaryWriter::Framed(std::string_view payload) {
  U64(payload.size());
  U32(Crc32(payload));
  Raw(payload.data(), payload.size());
}

bool BinaryReader::Take(size_t n, const char** p) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *p = data_.data() + pos_;
  pos_ += n;
  return true;
}

uint8_t BinaryReader::U8() {
  const char* p;
  if (!Take(1, &p)) return 0;
  return static_cast<uint8_t>(*p);
}

uint32_t BinaryReader::U32() {
  const char* p;
  if (!Take(4, &p)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t BinaryReader::U64() {
  const char* p;
  if (!Take(8, &p)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

double BinaryReader::F64() {
  uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string BinaryReader::Str() {
  uint64_t n = U64();
  const char* p;
  if (!Take(static_cast<size_t>(n), &p)) return {};
  return std::string(p, static_cast<size_t>(n));
}

uint64_t BinaryReader::Count(size_t min_bytes) {
  const uint64_t n = U64();
  if (n > remaining() / min_bytes) {
    ok_ = false;
    return 0;
  }
  return n;
}

Result<std::string_view> BinaryReader::Framed(std::string_view what) {
  const uint64_t len = U64();
  const uint32_t crc = U32();
  const char* p;
  if (len > remaining() || !Take(static_cast<size_t>(len), &p)) {
    ok_ = false;
    return Status::IoError(std::string(what) + " is truncated");
  }
  std::string_view payload(p, static_cast<size_t>(len));
  if (Crc32(payload) != crc) {
    return Status::IoError(std::string(what) +
                           " failed its CRC32 check (corrupted)");
  }
  return payload;
}

}  // namespace falcon
