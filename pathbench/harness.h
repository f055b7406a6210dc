// Shared pieces of the secure-query-path benchmark: the wall clock, the
// per-thread allocation counter, the span tracer, quantiles, and the
// outcome every workload returns (metrics, ledgers, failure accounting).
//
// Every layer is measured from outside the library, by timing calls into
// its public functions; nothing under src/ is instrumented for this.

#pragma once

#include <cstddef>
#include <cstdint>
#include <sched.h>
#include <string>
#include <vector>

namespace pathbench {

// Steady-clock seconds.
double NowS();

// Heap allocations made so far by the calling thread, and by every thread
// of the process (alloc_count.cpp).
uint64_t ThreadAllocs();
uint64_t ProcessAllocs();

// Sleeps until NowS() >= t (coarse sleep, then a short spin).
void SleepUntil(double t);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // measured phases, split per workload
  bool trace = false;
  std::string commit = "unknown";
};

// scec::SortedQuantile of unsorted samples; 0 for an empty set.
double Quantile(std::vector<double> samples, double q);
double Mean(const std::vector<double>& samples);

// Summaries of a run cut into short windows. The host is shared, and other
// tenants slow it in bursts of milliseconds to minutes that cover a
// different share of each run, so the median of a run moves with the host.
// The gated figures come from the calm end of many short windows instead:
// the 99th percentile of window rates and the 1st percentile of window
// latencies, which need only 1% of a run to have run uncontended.
inline constexpr size_t kWindowQueries = 16;
double BestRate(const std::vector<double>& window_rates);
double BestLatency(const std::vector<double>& window_latencies);

// Appends the rate of every kWindowQueries consecutive answers of one
// closed-loop segment: `stamps` holds the segment's start, then the time
// each answer returned.
void AppendWindowRates(const std::vector<double>& stamps,
                       std::vector<double>* rates);
// The median of every kWindowQueries consecutive latencies.
std::vector<double> WindowMedians(const std::vector<double>& latencies);

// Moves the calling thread round the CPUs it may run on, one CPU per
// Next(). On a shared host each vCPU is slowed in turn for stretches of
// seconds, and the scheduler leaves a busy thread where it is, so a
// closed-loop caller that never moves can spend a whole run on a slow
// vCPU. Moving it lets every run sample every vCPU. With kProcess every
// thread of the process moves together, so threads that hand each query
// to one another switch on one running CPU instead of waking idle vCPUs,
// whose wake-up latency on a shared host ranges from microseconds to
// hundreds of milliseconds. The destructor restores the saved CPU mask.
class CpuRotation {
 public:
  enum class Scope { kThread, kProcess };

  explicit CpuRotation(Scope scope = Scope::kThread);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void Next();

 private:
  void Pin(const cpu_set_t& mask) const;

  Scope scope_;
  cpu_set_t saved_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Bench-side spans: one per timed call into a public function. Kept in
// memory and written as JSON lines when the run ends. Disabled tracers
// record nothing, so the same code serves the untraced run.
class Tracer {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span nested under the innermost open one; returns its id.
  size_t Begin(const char* name, uint64_t query = 0);
  void End(size_t id);
  // Adds an already-timed span under the innermost open one.
  void Add(const char* name, double start_s, double end_s, uint64_t query = 0);

  size_t size() const { return spans_.size(); }
  void WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int64_t parent;  // -1 = root
    uint64_t query;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t query = 0)
      : tracer_(tracer), id_(tracer.Begin(name, query)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  size_t id_;
};

// Times `fn` kReplayReps times, adds a span per call, returns the fastest:
// how replays of a layer's entry point are measured.
inline constexpr size_t kReplayReps = 3;
template <typename Fn>
double MinSeconds(Tracer& tracer, const char* name, Fn&& fn) {
  double best = 1e30;
  for (size_t rep = 0; rep < kReplayReps; ++rep) {
    const double t0 = NowS();
    fn();
    const double t1 = NowS();
    tracer.Add(name, t0, t1);
    best = t1 - t0 < best ? t1 - t0 : best;
  }
  return best;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  // 0 = not a sampled statistic
  bool exact = false;    // a count that must repeat for a repeated seed
  std::string note;
};

// A time ledger: named parts that add up to a measured total, with the
// remainder reported as `unattributed_name` rather than hidden. A part is
// either timed in place around a call or interval of the run, or (`replay`)
// a standalone call of a layer's public entry point on the run's own
// inputs, which measures the layer's cost rather than the interval inside
// the measured call. A part with `within` set breaks down the top-level
// part of that name; its group's leftover is printed as `<within>.rest`.
struct Ledger {
  struct Part {
    std::string name;
    double value = 0.0;
    bool replay = false;
    std::string within;  // empty = top level
  };
  std::string kind;        // "setup", "query" or "restart"
  std::string total_name;
  std::string unit;
  double total = 0.0;
  std::vector<Part> parts;
  std::string unattributed_name;

  // total minus the top-level parts.
  double Unattributed() const;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed, refused, shed, timed out or wrong
  uint64_t wrong = 0;   // answered but not equal to the bench's own A·x
  std::vector<Metric> metrics;
  std::vector<Ledger> ledgers;
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit,
           uint64_t samples = 0, std::string note = "");
  void AddExact(std::string name, double value, std::string unit);
};

// Appends the metrics every workload reports the same way in its traced
// run: the ledger remainders as shares of their totals, and the tier.
void AddCommonLayerMetrics(Outcome* outcome);

// The calibrated GF(2^61-1) panel tier: 0 scalar, 1 avx512-mul32,
// 2 avx512-ifma, read back from the scec_gf61_* gauges.
struct TierInfo {
  int code = 0;
  std::string name = "scalar";
  double mul32_ns = 0.0;
  double ifma_ns = 0.0;
};
TierInfo CalibratedTier();

// Prints the human-readable report and, as the last line, the full result
// object as JSON prefixed by "RESULT ".
void PrintOutcome(const Args& args, const Outcome& outcome,
                  const TierInfo& tier);

// Span file path for a run, under .bench_out/ in the working directory.
std::string SpanPath(const Args& args);

Outcome RunNetLoopback(const Args& args, Tracer& tracer);
Outcome RunServeTenants(const Args& args, Tracer& tracer);
Outcome RunDurableJournal(const Args& args, Tracer& tracer);

}  // namespace pathbench
