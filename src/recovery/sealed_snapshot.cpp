// SPDX-License-Identifier: MIT

#include "recovery/sealed_snapshot.h"

#include <algorithm>
#include <array>

#include "common/rng.h"
#include "common/serde.h"
#include "core/deployment_io.h"
#include "recovery/crc32.h"

namespace scec::recovery {
namespace {

// Keystream generator: 256-bit ChaCha20 key expanded from the sealing key,
// nonced by the snapshot salt. SplitMix64 is only a key-derivation
// convenience here; the stream itself is ChaCha20.
ChaCha20Rng SealKeystream(uint64_t sealing_key, uint64_t salt) {
  SplitMix64 key_mix(sealing_key);
  std::array<uint32_t, 8> key{};
  for (size_t i = 0; i < key.size(); i += 2) {
    const uint64_t word = key_mix.Next();
    key[i] = static_cast<uint32_t>(word);
    key[i + 1] = static_cast<uint32_t>(word >> 32);
  }
  SplitMix64 nonce_mix(salt);
  const uint64_t nonce_lo = nonce_mix.Next();
  const std::array<uint32_t, 3> nonce = {
      static_cast<uint32_t>(nonce_lo), static_cast<uint32_t>(nonce_lo >> 32),
      static_cast<uint32_t>(nonce_mix.Next())};
  return ChaCha20Rng(key, nonce);
}

void XorSeal(char* bytes, size_t len, uint64_t sealing_key, uint64_t salt) {
  ChaCha20Rng stream = SealKeystream(sealing_key, salt);
  for (size_t i = 0; i < len; i += 8) {
    uint64_t word = stream.NextUint64();
    const size_t n = std::min<size_t>(8, len - i);
    for (size_t b = 0; b < n; ++b) {
      bytes[i + b] ^= static_cast<char>(word & 0xFFu);
      word >>= 8;
    }
  }
}

template <typename T>
std::string Sealed(const Deployment<T>& deployment, uint64_t sealing_key,
                   uint64_t salt) {
  std::string bytes;
  SealDeployment(deployment, sealing_key, salt, &bytes);
  return bytes;
}

}  // namespace

template <typename T>
void SealDeployment(const Deployment<T>& deployment, uint64_t sealing_key,
                    uint64_t salt, std::string* out) {
  const size_t start = out->size();  // the header's offset in `out`
  BinaryWriter writer(out);
  writer.WriteBytes({kSealedSnapshotMagic, sizeof(kSealedSnapshotMagic)});
  writer.WriteU32(kSealedSnapshotVersion);
  writer.WriteU64(salt);
  writer.WriteU32(0);  // outer CRC, patched below
  writer.WriteU64(0);  // payload length, patched below
  const size_t payload = out->size();
  SerializeDeployment(deployment, out);
  // Inner CRC over the plaintext: after unsealing, this is the proof the
  // sealing key was right (a wrong key yields uniformly garbled bytes).
  writer.WriteU32(Crc32(out->data() + payload, out->size() - payload));
  const size_t payload_len = out->size() - payload;
  XorSeal(out->data() + payload, payload_len, sealing_key, salt);
  writer.PatchU32(start + 16, Crc32(out->data() + payload, payload_len));
  writer.PatchU64(start + 20, payload_len);
}

template void SealDeployment(const Deployment<double>&, uint64_t, uint64_t,
                             std::string*);
template void SealDeployment(const Deployment<Gf61>&, uint64_t, uint64_t,
                             std::string*);

template <typename T>
Result<Deployment<T>> UnsealDeployment(std::string_view sealed,
                                       uint64_t sealing_key) {
  BinaryReader reader(sealed);
  std::string_view magic;
  if (!reader.ReadBytes(sizeof(kSealedSnapshotMagic), &magic).ok() ||
      magic != std::string_view(kSealedSnapshotMagic,
                                sizeof(kSealedSnapshotMagic))) {
    return DecodeFailure("bad magic: not a sealed SCEC snapshot");
  }
  uint32_t version = 0;
  SCEC_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != kSealedSnapshotVersion) {
    return DecodeFailure("unsupported sealed snapshot version " +
                         std::to_string(version));
  }
  uint64_t salt = 0;
  uint32_t stored_crc = 0;
  uint64_t payload_len = 0;
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&salt));
  SCEC_RETURN_IF_ERROR(reader.ReadU32(&stored_crc));
  SCEC_RETURN_IF_ERROR(reader.ReadU64(&payload_len));
  if (payload_len < 4 || payload_len > kMaxSealedPayloadBytes) {
    return DecodeFailure("sealed snapshot payload length out of range");
  }
  std::string_view sealed_payload;
  if (!reader.ReadBytes(payload_len, &sealed_payload).ok()) {
    return DecodeFailure("sealed snapshot truncated");
  }
  if (Crc32(sealed_payload.data(), sealed_payload.size()) != stored_crc) {
    return DecodeFailure("sealed snapshot checksum mismatch");
  }
  // The one copy: the keystream is XORed off in place.
  std::string payload(sealed_payload);
  XorSeal(payload.data(), payload.size(), sealing_key, salt);
  BinaryReader plain(payload);
  std::string_view deployment;
  uint32_t inner_crc = 0;
  SCEC_RETURN_IF_ERROR(plain.ReadBytes(payload.size() - 4, &deployment));
  SCEC_RETURN_IF_ERROR(plain.ReadU32(&inner_crc));
  if (Crc32(deployment.data(), deployment.size()) != inner_crc) {
    return InvalidArgument("sealing key mismatch or corrupted snapshot");
  }
  return ParseDeployment<T>(deployment);
}

template Result<Deployment<double>> UnsealDeployment(std::string_view,
                                                     uint64_t);
template Result<Deployment<Gf61>> UnsealDeployment(std::string_view,
                                                   uint64_t);

Status SaveSealedDeployment(const Deployment<double>& deployment,
                            uint64_t sealing_key, uint64_t salt,
                            std::ostream& os) {
  return WriteToStream(os, Sealed(deployment, sealing_key, salt));
}

Status SaveSealedDeployment(const Deployment<Gf61>& deployment,
                            uint64_t sealing_key, uint64_t salt,
                            std::ostream& os) {
  return WriteToStream(os, Sealed(deployment, sealing_key, salt));
}

Result<Deployment<double>> LoadSealedDeploymentDouble(std::istream& is,
                                                      uint64_t sealing_key) {
  return UnsealDeployment<double>(ReadStream(is), sealing_key);
}

Result<Deployment<Gf61>> LoadSealedDeploymentGf61(std::istream& is,
                                                  uint64_t sealing_key) {
  return UnsealDeployment<Gf61>(ReadStream(is), sealing_key);
}

Status SaveSealedDeploymentToFile(const Deployment<double>& deployment,
                                  uint64_t sealing_key, uint64_t salt,
                                  const std::string& path) {
  return WriteFile(path, Sealed(deployment, sealing_key, salt));
}

Status SaveSealedDeploymentToFile(const Deployment<Gf61>& deployment,
                                  uint64_t sealing_key, uint64_t salt,
                                  const std::string& path) {
  return WriteFile(path, Sealed(deployment, sealing_key, salt));
}

Result<Deployment<double>> LoadSealedDeploymentDoubleFromFile(
    const std::string& path, uint64_t sealing_key) {
  SCEC_ASSIGN_OR_RETURN(const std::string bytes, ReadFile(path));
  return UnsealDeployment<double>(bytes, sealing_key);
}

Result<Deployment<Gf61>> LoadSealedDeploymentGf61FromFile(
    const std::string& path, uint64_t sealing_key) {
  SCEC_ASSIGN_OR_RETURN(const std::string bytes, ReadFile(path));
  return UnsealDeployment<Gf61>(bytes, sealing_key);
}

}  // namespace scec::recovery
