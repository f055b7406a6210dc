#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "common/stats.h"
#include "linalg/batch_kernels.h"
#include "obs/metrics.h"

namespace pathbench {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(double t) {
  // Coarse sleep leaves ~0.2 ms for a spin, so an open-loop generator is
  // late by microseconds rather than by the timer slack.
  const double coarse = t - 2e-4 - NowS();
  if (coarse > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(coarse));
  }
  while (NowS() < t) {
  }
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return scec::SortedQuantile(samples, q);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double BestRate(const std::vector<double>& window_rates) {
  return Quantile(window_rates, 0.99);
}

double BestLatency(const std::vector<double>& window_latencies) {
  return Quantile(window_latencies, 0.01);
}

void AppendWindowRates(const std::vector<double>& stamps,
                       std::vector<double>* rates) {
  for (size_t i = 0; i + kWindowQueries < stamps.size();
       i += kWindowQueries) {
    rates->push_back(static_cast<double>(kWindowQueries) /
                     (stamps[i + kWindowQueries] - stamps[i]));
  }
}

std::vector<double> WindowMedians(const std::vector<double>& latencies) {
  std::vector<double> medians;
  for (size_t i = 0; i + kWindowQueries <= latencies.size();
       i += kWindowQueries) {
    medians.push_back(Quantile(
        std::vector<double>(latencies.begin() + i,
                            latencies.begin() + i + kWindowQueries),
        0.5));
  }
  return medians;
}

CpuRotation::CpuRotation(Scope scope) : scope_(scope) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) Pin(saved_);
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  Pin(one);
}

void CpuRotation::Pin(const cpu_set_t& mask) const {
  if (scope_ == Scope::kThread) {
    sched_setaffinity(0, sizeof(mask), &mask);
    return;
  }
  std::error_code error;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    if (tid > 0) sched_setaffinity(tid, sizeof(mask), &mask);
  }
}

size_t Tracer::Begin(const char* name, uint64_t query) {
  if (!enabled_) return kNone;
  const int64_t parent =
      open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back(Span{name, NowS(), 0.0, parent, query});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(size_t id) {
  if (id == kNone) return;
  spans_[id].end_s = NowS();
  // Spans close innermost-first; tolerate a toggle in between.
  while (!open_.empty() && open_.back() != id) open_.pop_back();
  if (!open_.empty()) open_.pop_back();
}

void Tracer::Add(const char* name, double start_s, double end_s,
                 uint64_t query) {
  if (!enabled_) return;
  const int64_t parent =
      open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back(Span{name, start_s, end_s, parent, query});
}

void Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "pathbench: cannot write spans to " << path << "\n";
    return;
  }
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"parent\":%lld,\"query\":%llu}\n",
                  i, s.name, (s.start_s - origin) * 1e6,
                  (s.end_s - origin) * 1e6, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.query));
    out << line;
  }
}

double Ledger::Unattributed() const {
  double rest = total;
  for (const Part& part : parts) {
    if (part.within.empty()) rest -= part.value;
  }
  return rest;
}

void Outcome::Add(std::string name, double value, std::string unit,
                  uint64_t samples, std::string note) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit), samples,
                           false, std::move(note)});
}

void Outcome::AddExact(std::string name, double value, std::string unit) {
  metrics.push_back(
      Metric{std::move(name), value, std::move(unit), 0, true, ""});
}

void AddCommonLayerMetrics(Outcome* outcome) {
  for (const Ledger& ledger : outcome->ledgers) {
    if (ledger.kind != "setup" && ledger.kind != "query") continue;
    outcome->Add("ledger." + ledger.kind + "_unattributed_frac",
                 ledger.total > 0.0 ? ledger.Unattributed() / ledger.total
                                    : 0.0,
                 "1", 0, "share of " + ledger.total_name + " not attributed");
  }
}

TierInfo CalibratedTier() {
  scec::Gf61KernelTier();  // publishes the calibration gauges once
  TierInfo info;
  for (const auto& series : scec::obs::MetricsRegistry::Global().Snapshot()) {
    if (series.gauge == nullptr || series.labels.empty()) continue;
    const std::string& tier = series.labels.front().second;
    if (series.name == "scec_gf61_kernel_tier" && series.gauge->value() > 0) {
      info.name = tier;
      info.code = tier == "avx512-ifma" ? 2 : tier == "avx512-mul32" ? 1 : 0;
    } else if (series.name == "scec_gf61_calibration_best_ns") {
      (tier == "ifma" ? info.ifma_ns : info.mul32_ns) = series.gauge->value();
    }
  }
  return info;
}

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

std::string SpanPath(const Args& args) {
  return ".bench_out/" + args.workload + "-seed" + std::to_string(args.seed) +
         "-spans.jsonl";
}

void PrintOutcome(const Args& args, const Outcome& outcome,
                  const TierInfo& tier) {
  const char* threads_env = std::getenv("SCEC_THREADS");
  const std::string scec_threads = threads_env != nullptr ? threads_env : "";
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);

  std::ostringstream meta;
  meta << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
       << ",\"seconds\":" << Num(args.seconds)
       << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"nproc\":" << nproc
       << ",\"compiler\":\"" << PATHBENCH_COMPILER << "\""
       << ",\"build_type\":\"" << PATHBENCH_BUILD_TYPE << "\""
       // The standalone build never passes -march=native.
       << ",\"scec_native\":false"
       << ",\"scec_threads\":\"" << Escape(scec_threads) << "\""
       << ",\"gf61_tier\":\"" << tier.name << "\""
       << ",\"gf61_calibration_ns\":{\"mul32\":" << Num(tier.mul32_ns)
       << ",\"ifma\":" << Num(tier.ifma_ns) << "}"
       << ",\"commit\":\"" << Escape(args.commit) << "\"}";

  std::cout << "pathbench " << args.workload << " seed=" << args.seed
            << " trace=" << (args.trace ? 1 : 0) << "\n";
  std::cout << "meta " << meta.str() << "\n";
  for (const Metric& m : outcome.metrics) {
    std::cout << "  " << m.name << " = " << Num(m.value) << " " << m.unit;
    if (m.samples > 0) std::cout << "  (n=" << m.samples << ")";
    if (m.exact) std::cout << "  [exact]";
    if (!m.note.empty()) std::cout << "  -- " << m.note;
    std::cout << "\n";
  }
  for (const Ledger& ledger : outcome.ledgers) {
    std::cout << "  ledger " << ledger.total_name << " = "
              << Num(ledger.total) << " " << ledger.unit << "\n";
    for (const Ledger::Part& part : ledger.parts) {
      if (!part.within.empty()) continue;
      std::cout << "    + " << part.name << " = " << Num(part.value) << " "
                << ledger.unit << (part.replay ? "  (replay)" : "") << "\n";
      double rest = part.value;
      bool nested = false;
      for (const Ledger::Part& sub : ledger.parts) {
        if (sub.within != part.name) continue;
        nested = true;
        rest -= sub.value;
        std::cout << "        of which " << sub.name << " = " << Num(sub.value)
                  << " " << ledger.unit << (sub.replay ? "  (replay)" : "")
                  << "\n";
      }
      if (nested) {
        std::cout << "        of which " << part.name << ".rest = " << Num(rest)
                  << " " << ledger.unit << "\n";
      }
    }
    std::cout << "    + " << ledger.unattributed_name << " = "
              << Num(ledger.Unattributed()) << " " << ledger.unit << "\n";
  }
  for (const std::string& note : outcome.notes) {
    std::cout << "  note: " << note << "\n";
  }
  std::cout << "  attempted=" << outcome.attempted
            << " failed=" << outcome.failed << " wrong=" << outcome.wrong
            << "\n";

  std::ostringstream json;
  json << "{\"meta\":" << meta.str() << ",\"attempted\":" << outcome.attempted
       << ",\"failed\":" << outcome.failed << ",\"wrong\":" << outcome.wrong
       << ",\"metrics\":{";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    json << (i == 0 ? "" : ",") << "\"" << m.name << "\":{\"value\":"
         << Num(m.value) << ",\"unit\":\"" << m.unit << "\"";
    if (m.samples > 0) json << ",\"samples\":" << m.samples;
    if (m.exact) json << ",\"exact\":true";
    json << "}";
  }
  json << "},\"ledgers\":[";
  for (size_t i = 0; i < outcome.ledgers.size(); ++i) {
    const Ledger& ledger = outcome.ledgers[i];
    json << (i == 0 ? "" : ",") << "{\"kind\":\"" << ledger.kind
         << "\",\"total_name\":\"" << ledger.total_name << "\",\"unit\":\""
         << ledger.unit << "\",\"total\":" << Num(ledger.total)
         << ",\"parts\":[";
    for (size_t p = 0; p < ledger.parts.size(); ++p) {
      json << (p == 0 ? "" : ",") << "{\"name\":\"" << ledger.parts[p].name
           << "\",\"value\":" << Num(ledger.parts[p].value)
           << ",\"replay\":" << (ledger.parts[p].replay ? "true" : "false")
           << ",\"within\":\"" << ledger.parts[p].within << "\"}";
    }
    json << "],\"unattributed_name\":\"" << ledger.unattributed_name
         << "\",\"unattributed\":" << Num(ledger.Unattributed()) << "}";
  }
  json << "]}";
  std::cout << "RESULT " << json.str() << std::endl;
}

}  // namespace pathbench
