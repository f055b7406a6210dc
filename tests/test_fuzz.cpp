// SPDX-License-Identifier: MIT
//
// Seeded mutational fuzzer over every parser of untrusted bytes: wire
// frames (DecodeFrame and FrameReader::Feed) and every body decoder,
// LoadJournal, LoadDeployment{Double,Gf61} and
// LoadSealedDeployment{Double,Gf61}. The seed corpus is the byte-identity
// fixtures of tests/serde_golden.h. Each case stacks one to three
// mutations (bit flips, byte sets, length-field edits, truncations,
// splices from the corpus, chunk erasures and duplications) and, half the
// time, re-seals the checksums so the case reaches the parser behind them.
//
// Oracle: every parse returns a typed Status or a value that re-encodes to
// exactly the bytes it was parsed from. A crash or CHECK abort fails the
// binary; an allocation above the target's bound (a small multiple of the
// input's size, see Target::expansion) fails the case.
//
// Budget: SCEC_FUZZ_SECONDS per target (default 0.5), base seed
// SCEC_FUZZ_SEED (default 1). Case i of a target runs on
// SplitMix64(seed + i), so a reported (seed, case) pair replays exactly.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_probe.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/deployment_io.h"
#include "recovery/crc32.h"
#include "recovery/sealed_snapshot.h"
#include "serde_fixtures.h"
#include "serde_golden.h"

namespace scec {
namespace {

using recovery::Crc32;

double BudgetSeconds() {
  const char* env = std::getenv("SCEC_FUZZ_SECONDS");
  return env != nullptr ? std::atof(env) : 0.5;
}

uint64_t BaseSeed() {
  const char* env = std::getenv("SCEC_FUZZ_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes.substr(0, 256)) {
    out.push_back(kDigits[static_cast<unsigned char>(c) >> 4]);
    out.push_back(kDigits[static_cast<unsigned char>(c) & 15]);
  }
  return bytes.size() > 256 ? out + "..." : out;
}

// ---------------------------------------------------------------------------
// Mutations.

class Mutator {
 public:
  Mutator(uint64_t seed, const std::vector<std::string>* corpus)
      : rng_(seed), corpus_(corpus) {}

  size_t Below(size_t n) { return n == 0 ? 0 : rng_.Next() % n; }

  void Mutate(std::string* s) {
    const size_t ops = 1 + Below(3);
    for (size_t i = 0; i < ops; ++i) {
      switch (Below(7)) {
        case 0: FlipBits(s); break;
        case 1: SetByte(s); break;
        case 2: EditLength(s); break;
        case 3: Truncate(s); break;
        case 4: Splice(s); break;
        case 5: EraseChunk(s); break;
        default: DuplicateChunk(s); break;
      }
    }
  }

 private:
  void FlipBits(std::string* s) {
    if (s->empty()) return;
    for (size_t n = 1 + Below(4); n > 0; --n) {
      (*s)[Below(s->size())] ^= static_cast<char>(1u << Below(8));
    }
  }

  void SetByte(std::string* s) {
    static constexpr unsigned char kValues[] = {0, 1, 0x7F, 0x80, 0xFF};
    if (s->empty()) return;
    (*s)[Below(s->size())] = static_cast<char>(kValues[Below(5)]);
  }

  // Overwrites a little-endian u32 or u64 with a value a length field
  // might be edited to: boundaries, limits, the input's own size, or the
  // old value nudged.
  void EditLength(std::string* s) {
    const size_t width = Below(2) == 0 ? 4 : 8;
    if (s->size() < width) return;
    const size_t at = Below(s->size() - width + 1);
    uint64_t old = 0;
    for (size_t b = 0; b < width; ++b) {
      old |= uint64_t{static_cast<unsigned char>((*s)[at + b])} << (8 * b);
    }
    const uint64_t candidates[] = {0,
                                   1,
                                   8,
                                   0xFF,
                                   0xFFFF,
                                   uint64_t{1} << 24,
                                   (uint64_t{1} << 24) + 1,
                                   uint64_t{1} << 26,
                                   (uint64_t{1} << 26) + 65,
                                   0x7FFFFFFF,
                                   0xFFFFFFFF,
                                   uint64_t{1} << 40,
                                   ~uint64_t{0},
                                   s->size(),
                                   s->size() - at,
                                   old + 1 + Below(8),
                                   old - 1 - Below(8)};
    const uint64_t v = candidates[Below(std::size(candidates))];
    for (size_t b = 0; b < width; ++b) {
      (*s)[at + b] = static_cast<char>((v >> (8 * b)) & 0xFF);
    }
  }

  void Truncate(std::string* s) { s->resize(Below(s->size() + 1)); }

  void Splice(std::string* s) {
    const std::string& donor = (*corpus_)[Below(corpus_->size())];
    const size_t from = Below(donor.size());
    const size_t len = Below(std::min<size_t>(64, donor.size() - from) + 1);
    const size_t at = Below(s->size() + 1);
    if (Below(2) == 0) {
      s->insert(at, donor, from, len);
    } else {
      s->replace(at, std::min(len, s->size() - at), donor, from, len);
    }
  }

  void EraseChunk(std::string* s) {
    if (s->empty()) return;
    const size_t at = Below(s->size());
    s->erase(at, 1 + Below(std::min<size_t>(32, s->size() - at)));
  }

  void DuplicateChunk(std::string* s) {
    if (s->empty()) return;
    const size_t at = Below(s->size());
    const std::string chunk =
        s->substr(at, 1 + Below(std::min<size_t>(32, s->size() - at)));
    s->insert(Below(s->size() + 1), chunk);
  }

  SplitMix64 rng_;
  const std::vector<std::string>* corpus_;
};

// ---------------------------------------------------------------------------
// Checksum re-sealing, so a mutation gets past the CRCs to the parser.

uint32_t GetU32(const std::string& s, size_t at) {
  BinaryReader reader(std::string_view(s).substr(at));
  uint32_t v = 0;
  return reader.ReadU32(&v).ok() ? v : 0;
}

void PutU32(std::string* s, size_t at, uint32_t v) {
  BinaryWriter(s).PatchU32(at, v);
}

void ResealJournal(std::string* s) {
  for (size_t at = 16; at + 8 <= s->size();) {
    const uint32_t len = GetU32(*s, at);
    if (len > s->size() - at - 8) return;
    PutU32(s, at + 4, Crc32(s->data() + at + 8, len));
    at += 8 + len;
  }
}

void ResealFrames(std::string* s) {
  for (size_t at = 0; at + net::kFrameHeaderSize <= s->size();) {
    const uint32_t len = GetU32(*s, at + 8);
    if (len > s->size() - at - net::kFrameHeaderSize) return;
    PutU32(s, at + 12, Crc32(s->data() + at + net::kFrameHeaderSize, len));
    PutU32(s, at + 16, Crc32(s->data() + at, 16));
    at += net::kFrameHeaderSize + len;
  }
}

void ResealSnapshot(std::string* s) {
  constexpr size_t kHeader = 28;  // magic, version, salt, crc, length
  if (s->size() < kHeader) return;
  PutU32(s, 16, Crc32(s->data() + kHeader, s->size() - kHeader));
}

// ---------------------------------------------------------------------------
// The fuzz loop. A target parses one case and returns an error description
// (empty when the oracle holds).

struct Target {
  std::vector<std::string> corpus;
  std::function<void(std::string*)> reseal;
  // Largest allocation allowed: expansion × input + 4 KiB (Status text and
  // the parser's fixed-size state).
  size_t expansion = 2;
  std::function<std::string(const std::string&)> run;
};

void Fuzz(const Target& target) {
  const double budget = BudgetSeconds();
  const uint64_t seed = BaseSeed();
  const auto start = std::chrono::steady_clock::now();
  uint64_t cases = 0;
  for (;; ++cases) {
    if (cases % 64 == 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                .count() >= budget) {
      break;
    }
    Mutator mutator(seed + cases, &target.corpus);
    std::string input = target.corpus[mutator.Below(target.corpus.size())];
    mutator.Mutate(&input);
    if (target.reseal && mutator.Below(2) == 0) target.reseal(&input);

    size_t largest = 0;
    std::string error;
    {
      testutil::ScopedAllocProbe probe;
      error = target.run(input);
      largest = probe.largest();
    }
    const size_t bound = target.expansion * input.size() + 4096;
    if (error.empty() && testutil::kAllocProbeActive && largest > bound) {
      error = "allocated " + std::to_string(largest) + " bytes (bound " +
              std::to_string(bound) + ")";
    }
    if (!error.empty()) {
      ADD_FAILURE() << error << "\n  replay: SCEC_FUZZ_SEED=" << seed
                    << ", case " << cases << "\n  input (" << input.size()
                    << " B): " << Hex(input);
      return;
    }
  }
  std::cout << "[fuzz] " << cases << " cases in " << budget << " s\n";
}

template <typename Msg>
std::string CheckBody(std::string_view body) {
  Result<Msg> msg = Msg::Decode(body);
  if (!msg.ok()) return "";
  if (msg->Encode() != body) return "body decode does not round-trip";
  return "";
}

// Runs every body decoder on `body`; bodies are canonical, so any
// successful decode must re-encode to the same bytes.
std::string CheckAllBodies(std::string_view body) {
  for (const std::string& error :
       {CheckBody<net::HelloMsg>(body), CheckBody<net::HelloAckMsg>(body),
        CheckBody<net::ShareMsg>(body), CheckBody<net::ShareAckMsg>(body),
        CheckBody<net::QueryMsg>(body), CheckBody<net::ResponseMsg>(body),
        CheckBody<net::RpcErrorMsg>(body), CheckBody<net::HeartbeatMsg>(body),
        CheckBody<net::CancelMsg>(body)}) {
    if (!error.empty()) return error;
  }
  return "";
}

std::vector<std::string> FrameCorpus() {
  std::vector<std::string> corpus;
  for (const std::string_view hex : fixtures::kWireFrameHex) {
    corpus.push_back(fixtures::FromHex(hex));
  }
  // Back-to-back frames, so mutations also hit frame boundaries.
  corpus.push_back(corpus[4] + corpus[5] + corpus[7]);
  return corpus;
}

TEST(ParserFuzz, WireFrames) {
  Target target;
  target.corpus = FrameCorpus();
  target.reseal = ResealFrames;
  target.run = [](const std::string& input) -> std::string {
    // DecodeFrame, frame by frame: each frame re-encodes to its bytes.
    std::vector<net::Frame> frames;
    bool corrupt = false;
    for (size_t at = 0; at < input.size();) {
      net::DecodeResult result =
          net::DecodeFrame(std::string_view(input).substr(at));
      if (result.progress == net::DecodeProgress::kNeedMore) break;
      if (result.progress == net::DecodeProgress::kError) {
        if (result.status.code() != ErrorCode::kInvalidArgument) {
          return "frame error is not kInvalidArgument";
        }
        corrupt = true;
        break;
      }
      if (net::EncodeFrame(result.frame.type, result.frame.payload) !=
          input.substr(at, result.consumed)) {
        return "frame decode does not round-trip";
      }
      const std::string error = CheckAllBodies(result.frame.payload);
      if (!error.empty()) return error;
      at += result.consumed;
      frames.push_back(std::move(result.frame));
    }
    // FrameReader over the same bytes in uneven chunks agrees.
    net::FrameReader reader;
    std::vector<net::Frame> streamed;
    bool stream_corrupt = false;
    for (size_t at = 0, chunk = 1; at < input.size() && !stream_corrupt;
         at += chunk, chunk = chunk * 3 + 1) {
      stream_corrupt =
          !reader.Feed(std::string_view(input).substr(at, chunk), &streamed)
               .ok();
    }
    if (stream_corrupt != corrupt || streamed.size() != frames.size()) {
      return "FrameReader disagrees with DecodeFrame";
    }
    for (size_t i = 0; i < frames.size(); ++i) {
      if (streamed[i].type != frames[i].type ||
          streamed[i].payload != frames[i].payload) {
        return "FrameReader disagrees with DecodeFrame";
      }
    }
    return "";
  };
  Fuzz(target);
}

TEST(ParserFuzz, WireBodies) {
  Target target;
  for (const std::string& frame : FrameCorpus()) {
    target.corpus.push_back(frame.substr(net::kFrameHeaderSize));
  }
  target.run = [](const std::string& input) { return CheckAllBodies(input); };
  Fuzz(target);
}

TEST(ParserFuzz, Journal) {
  Target target;
  target.corpus = {fixtures::FromHex(fixtures::kJournalHex)};
  target.reseal = ResealJournal;
  // A parsed event holds its fixed fields and an optional segment record
  // (~190 B) for a record of ≥ 66 B, and the event vector grows by doubling.
  target.expansion = 8;
  target.run = [](const std::string& input) -> std::string {
    Result<recovery::JournalReplay> replay = recovery::LoadJournal(input);
    if (!replay.ok()) return "";
    if (replay->valid_bytes > input.size() ||
        replay->torn_tail != (replay->valid_bytes < input.size())) {
      return "inconsistent valid prefix";
    }
    std::ostringstream os;
    recovery::QueryJournal journal(&os, replay->snapshot_crc);
    for (const auto& event : replay->events) journal.Append(event);
    journal.Commit();
    if (os.str() != input.substr(0, replay->valid_bytes)) {
      return "journal prefix does not round-trip";
    }
    return "";
  };
  Fuzz(target);
}

template <typename T>
std::string Serialized(const Deployment<T>& deployment) {
  std::string bytes;
  SerializeDeployment(deployment, &bytes);
  return bytes;
}

TEST(ParserFuzz, Deployment) {
  Target target;
  target.corpus = {fixtures::FromHex(fixtures::kDeploymentDoubleHex),
                   fixtures::FromHex(fixtures::kDeploymentGf61Hex)};
  target.run = [](const std::string& input) -> std::string {
    std::istringstream double_is(input), gf61_is(input);
    auto as_double = LoadDeploymentDouble(double_is);
    if (as_double.ok() && !input.starts_with(Serialized(*as_double))) {
      return "double deployment does not round-trip";
    }
    auto as_gf61 = LoadDeploymentGf61(gf61_is);
    if (as_gf61.ok() && !input.starts_with(Serialized(*as_gf61))) {
      return "Gf61 deployment does not round-trip";
    }
    return "";
  };
  Fuzz(target);
}

TEST(ParserFuzz, SealedSnapshot) {
  Target target;
  target.corpus = {fixtures::FromHex(fixtures::kSealedDoubleHex),
                   fixtures::FromHex(fixtures::kSealedGf61Hex)};
  target.reseal = ResealSnapshot;
  target.run = [](const std::string& input) -> std::string {
    const uint64_t key = fixtures::kSealingKey;
    std::istringstream double_is(input), gf61_is(input);
    auto as_double = recovery::LoadSealedDeploymentDouble(double_is, key);
    auto as_gf61 = recovery::LoadSealedDeploymentGf61(gf61_is, key);
    if (!as_double.ok() && !as_gf61.ok()) return "";
    uint64_t salt = 0;
    BinaryReader reader(std::string_view(input).substr(8));
    if (!reader.ReadU64(&salt).ok()) return "parsed a snapshot without salt";
    std::string resealed;
    if (as_double.ok()) {
      recovery::SealDeployment(*as_double, key, salt, &resealed);
    } else {
      recovery::SealDeployment(*as_gf61, key, salt, &resealed);
    }
    if (!input.starts_with(resealed)) return "snapshot does not round-trip";
    return "";
  };
  Fuzz(target);
}

}  // namespace
}  // namespace scec
