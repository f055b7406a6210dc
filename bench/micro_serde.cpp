// SPDX-License-Identifier: MIT
//
// Serialization micro-benchmarks: the CRC-32 under every journal record,
// wire frame and snapshot; one query's worth of journal appends; and one
// QUERY + RESPONSE round through body encode, framing and decode.

#include <benchmark/benchmark.h>

#include "telemetry.h"

#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix_ops.h"
#include "net/wire.h"
#include "recovery/crc32.h"
#include "recovery/journal.h"

namespace {

void BM_Crc32(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  std::string bytes(len, '\0');
  scec::SplitMix64 rng(1);
  for (char& c : bytes) c = static_cast<char>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(scec::recovery::Crc32(bytes.data(), len));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * len));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(8 << 10)->Arg(1 << 20);

// A journal sink that drops what it is given: the benchmark times the
// serialization and framing, not a copy into memory.
class NullBuf : public std::streambuf {
 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
  int_type overflow(int_type ch) override { return traits_type::not_eof(ch); }
};

// One durable query as the durable_journal path (m = 256, l = 64, five
// serving devices) journals it: admission with x, five dispatches, five
// verified responses of ~66 values, and the decoded result — 12 events,
// ~6 KB.
std::vector<scec::recovery::JournalEvent> QueryEvents() {
  using scec::recovery::JournalEvent;
  using scec::recovery::JournalEventKind;
  scec::ChaCha20Rng rng(7);
  std::vector<JournalEvent> events;
  JournalEvent begin;
  begin.kind = JournalEventKind::kQueryBegin;
  begin.query_id = 42;
  begin.values = scec::RandomVector<double>(64, rng);
  events.push_back(begin);
  for (uint64_t d = 0; d < 5; ++d) {
    JournalEvent dispatch;
    dispatch.kind = JournalEventKind::kDispatch;
    dispatch.query_id = 42;
    dispatch.local = d;
    dispatch.device = d;
    dispatch.attempt = 1;
    dispatch.bytes = 512;
    events.push_back(dispatch);
  }
  for (uint64_t d = 0; d < 5; ++d) {
    JournalEvent response;
    response.kind = JournalEventKind::kResponse;
    response.query_id = 42;
    response.local = d;
    response.device = d;
    response.values = scec::RandomVector<double>(66, rng);
    events.push_back(response);
  }
  JournalEvent result;
  result.kind = JournalEventKind::kQueryResult;
  result.query_id = 42;
  result.values = scec::RandomVector<double>(256, rng);
  events.push_back(result);
  return events;
}

void BM_JournalAppend(benchmark::State& state) {
  const auto events = QueryEvents();
  NullBuf sink;
  std::ostream os(&sink);
  scec::recovery::QueryJournal journal(&os, /*snapshot_crc=*/1);
  for (auto _ : state) {
    for (const auto& event : events) journal.Append(event);
    journal.Commit();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["events_per_query"] = static_cast<double>(events.size());
}
BENCHMARK(BM_JournalAppend);

void BM_WireQueryResponse(benchmark::State& state) {
  const size_t l = static_cast<size_t>(state.range(0));
  scec::ChaCha20Rng rng(3);
  scec::net::QueryMsg query{9, 3, scec::RandomVector<double>(l, rng)};
  scec::net::ResponseMsg response{9, scec::RandomVector<double>(l, rng)};
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string query_frame =
        scec::net::EncodeFrame(scec::net::WireType::kQuery, query.Encode());
    const scec::net::DecodeResult query_in =
        scec::net::DecodeFrame(query_frame);
    auto x = scec::net::QueryMsg::Decode(query_in.frame.payload);
    const std::string response_frame = scec::net::EncodeFrame(
        scec::net::WireType::kResponse, response.Encode());
    const scec::net::DecodeResult response_in =
        scec::net::DecodeFrame(response_frame);
    auto y = scec::net::ResponseMsg::Decode(response_in.frame.payload);
    benchmark::DoNotOptimize(x.ok() && y.ok());
    bytes = query_frame.size() + response_frame.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_WireQueryResponse)->Arg(256);

}  // namespace

SCEC_BENCHMARK_MAIN();
