// SPDX-License-Identifier: MIT
//
// Minimal binary serialization for deployments, journal records and wire
// bodies: fixed-width little-endian encoding and Status-returning reads
// (untrusted input never aborts). BinaryWriter appends to a caller-owned,
// reusable std::string. BinaryReader is a bounds-checked cursor over a
// std::string_view that claims a length prefix's bytes from remaining()
// before it allocates, so a hostile count fails with a Status instead of
// provoking an allocation larger than the input. u64, size and double
// vectors move with one memcpy on little-endian hosts; big-endian hosts
// swap each element.

#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace scec {

class BinaryWriter {
 public:
  explicit BinaryWriter(std::string* out) : out_(out) {}

  void WriteU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteDouble(double v);  // IEEE-754 bit pattern
  void WriteBytes(std::string_view bytes) { out_->append(bytes); }
  void WriteString(std::string_view v);  // u32 length + bytes

  void WriteU64Vector(const std::vector<uint64_t>& v);
  void WriteSizeVector(const std::vector<size_t>& v);
  void WriteDoubleVector(const std::vector<double>& v);

  // Overwrite the value at byte `offset` of the buffer (a length or
  // checksum reserved before the bytes it describes were written).
  void PatchU32(size_t offset, uint32_t v);
  void PatchU64(size_t offset, uint64_t v);

 private:
  std::string* out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::string_view in) : in_(in) {}

  Status ReadU8(uint8_t* v);
  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadDouble(double* v);
  // The next `len` bytes, as a view into the input.
  Status ReadBytes(size_t len, std::string_view* v);
  // `max_len` bounds the length field beyond what remaining() allows.
  Status ReadString(std::string* v, uint32_t max_len = 1u << 20);

  Status ReadU64Vector(std::vector<uint64_t>* v, uint32_t max_len = 1u << 26);
  Status ReadSizeVector(std::vector<size_t>* v, uint32_t max_len = 1u << 26);
  Status ReadDoubleVector(std::vector<double>* v, uint32_t max_len = 1u << 26);

  size_t remaining() const { return in_.size() - pos_; }
  size_t offset() const { return pos_; }

 private:
  std::string_view in_;
  size_t pos_ = 0;
};

// Stream and file edges for the in-memory formats: a finished buffer is
// written once; a stream or file is read once, to its end.
Status WriteToStream(std::ostream& os, std::string_view bytes);
std::string ReadStream(std::istream& is);
Status WriteFile(const std::string& path, std::string_view bytes);
Result<std::string> ReadFile(const std::string& path);

}  // namespace scec
