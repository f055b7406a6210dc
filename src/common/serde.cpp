// SPDX-License-Identifier: MIT

#include "common/serde.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>

namespace scec {
namespace {

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "mixed-endian platforms unsupported");
static_assert(sizeof(size_t) == sizeof(uint64_t) && sizeof(double) == 8,
              "size vectors and doubles travel as 8-byte words");

// Appends `n` fixed-width values little-endian: one append on
// little-endian hosts, a byte swap per value on big-endian ones.
template <typename T>
void PutLe(std::string* out, const T* v, size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    out->append(reinterpret_cast<const char*>(v), n * sizeof(T));
  } else {
    for (size_t i = 0; i < n; ++i) {
      const auto* bytes = reinterpret_cast<const char*>(v + i);
      for (size_t b = sizeof(T); b-- > 0;) out->push_back(bytes[b]);
    }
  }
}

// Reads `n` little-endian fixed-width values from `src` into `v`.
template <typename T>
void GetLe(const char* src, size_t n, T* v) {
  if constexpr (std::endian::native == std::endian::little) {
    if (n != 0) std::memcpy(v, src, n * sizeof(T));
  } else {
    for (size_t i = 0; i < n; ++i) {
      auto* bytes = reinterpret_cast<char*>(v + i);
      for (size_t b = 0; b < sizeof(T); ++b) {
        bytes[b] = src[(i + 1) * sizeof(T) - 1 - b];
      }
    }
  }
}

// A length-prefixed vector of 8-byte words. The bytes are claimed before
// the vector grows: a count the input cannot back fails without allocating.
template <typename T>
Status ReadWords(BinaryReader& reader, std::vector<T>* v, uint32_t max_len) {
  uint32_t len;
  SCEC_RETURN_IF_ERROR(reader.ReadU32(&len));
  if (len > max_len) return DecodeFailure("length prefix exceeds limit");
  std::string_view bytes;
  SCEC_RETURN_IF_ERROR(reader.ReadBytes(size_t{8} * len, &bytes));
  v->resize(len);
  GetLe(bytes.data(), len, v->data());
  return Status::Ok();
}

template <typename T>
Status ReadFixed(BinaryReader& reader, T* v) {
  std::string_view bytes;
  SCEC_RETURN_IF_ERROR(reader.ReadBytes(sizeof(T), &bytes));
  GetLe(bytes.data(), 1, v);
  return Status::Ok();
}

}  // namespace

void BinaryWriter::WriteU32(uint32_t v) { PutLe(out_, &v, 1); }
void BinaryWriter::WriteU64(uint64_t v) { PutLe(out_, &v, 1); }
void BinaryWriter::WriteDouble(double v) { PutLe(out_, &v, 1); }

void BinaryWriter::WriteString(std::string_view v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  out_->append(v);
}

void BinaryWriter::WriteU64Vector(const std::vector<uint64_t>& v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  PutLe(out_, v.data(), v.size());
}

void BinaryWriter::WriteSizeVector(const std::vector<size_t>& v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  PutLe(out_, v.data(), v.size());
}

void BinaryWriter::WriteDoubleVector(const std::vector<double>& v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  PutLe(out_, v.data(), v.size());
}

void BinaryWriter::PatchU32(size_t offset, uint32_t v) {
  std::string le;
  PutLe(&le, &v, 1);
  out_->replace(offset, le.size(), le);
}

void BinaryWriter::PatchU64(size_t offset, uint64_t v) {
  std::string le;
  PutLe(&le, &v, 1);
  out_->replace(offset, le.size(), le);
}

Status BinaryReader::ReadBytes(size_t len, std::string_view* v) {
  if (len > remaining()) return DecodeFailure("unexpected end of input");
  *v = in_.substr(pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status BinaryReader::ReadU8(uint8_t* v) { return ReadFixed(*this, v); }
Status BinaryReader::ReadU32(uint32_t* v) { return ReadFixed(*this, v); }
Status BinaryReader::ReadU64(uint64_t* v) { return ReadFixed(*this, v); }
Status BinaryReader::ReadDouble(double* v) { return ReadFixed(*this, v); }

Status BinaryReader::ReadString(std::string* v, uint32_t max_len) {
  uint32_t len;
  SCEC_RETURN_IF_ERROR(ReadU32(&len));
  if (len > max_len) return DecodeFailure("length prefix exceeds limit");
  std::string_view bytes;
  SCEC_RETURN_IF_ERROR(ReadBytes(len, &bytes));
  v->assign(bytes);
  return Status::Ok();
}

Status BinaryReader::ReadU64Vector(std::vector<uint64_t>* v,
                                   uint32_t max_len) {
  return ReadWords(*this, v, max_len);
}

Status BinaryReader::ReadSizeVector(std::vector<size_t>* v,
                                    uint32_t max_len) {
  return ReadWords(*this, v, max_len);
}

Status BinaryReader::ReadDoubleVector(std::vector<double>* v,
                                      uint32_t max_len) {
  return ReadWords(*this, v, max_len);
}

Status WriteToStream(std::ostream& os, std::string_view bytes) {
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.flush();
  if (!os.good()) return Internal("stream write failed");
  return Status::Ok();
}

std::string ReadStream(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  return std::move(buf).str();
}

Status WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return InvalidArgument("cannot open " + path + " for writing");
  return WriteToStream(os, bytes);
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return InvalidArgument("cannot open " + path + " for reading");
  return ReadStream(is);
}

}  // namespace scec
