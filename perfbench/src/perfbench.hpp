// perfbench — the repository benchmark: one seeded workload driven through
// the real `serve::TuningService`, every answer checked against direct
// `MgaTuner::tune`, end-to-end metrics from untraced runs and per-layer
// metrics from a separate traced run. See perfbench/README.md for why each
// workload exists and which layer metric should move which end-to-end one.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/tuner.hpp"
#include "corpus/spec.hpp"
#include "serve/service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Median (mean of the middle two for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

// ---- inputs (workloads.cpp) -------------------------------------------------

/// One distinct (kernel, input size) the workload can send.
struct Pair {
  mga::corpus::KernelSpec kernel;
  double input_bytes = 0.0;
};

/// A send: offset from the phase start and the pair it sends.
struct Arrival {
  std::chrono::nanoseconds due{};
  std::uint32_t pair = 0;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<Pair> pairs;
  /// Pairs submitted once during set-up (the catalog warm-up).
  std::vector<Pair> warmup;
  /// Every send of the measured phase, in due order (open loop: sent on
  /// schedule whatever the service does).
  std::vector<Arrival> schedule;
};

inline constexpr const char* kWorkloadNames[] = {"hot_zipf", "cold_scan"};

/// Build a workload's inputs from its seed, with the benchmark's own
/// generator (so they stay the same whatever the program's RNG does);
/// throws std::invalid_argument for unknown names. `seconds` sizes the
/// schedule. `phase` picks a stream within the seed: the traced mode's
/// second phase draws fresh inputs (cold_scan must not resend kernels the
/// cache still holds).
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     double seconds, unsigned phase = 0);

// ---- host (host.cpp) --------------------------------------------------------

struct HostFingerprint {
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string source;  // commit, or "unknown" outside a git checkout
};

[[nodiscard]] HostFingerprint host_fingerprint(const std::string& source);

/// Milliseconds for a fixed floating-point computation (median of 5) — a
/// reading of host speed that no program change can move.
[[nodiscard]] double host_ref_ms();

/// Aggregate /proc/stat jiffies; `steal_share` of the interval between two.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuJiffies read_jiffies();
[[nodiscard]] double steal_share(const CpuJiffies& before, const CpuJiffies& after);

[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();
/// Peak resident set size of this process image (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

// ---- recording (run.cpp) ----------------------------------------------------

/// Log-bucketed histogram (0.2% buckets, 0.1 us .. ~100 s) with atomic
/// counts: recording from any thread costs one relaxed add, and its memory
/// does not grow with the number of requests (so peak RSS does not track
/// throughput).
class Histogram {
 public:
  Histogram();
  void record(double value_us);
  [[nodiscard]] std::uint64_t count() const;
  /// Value at quantile q in [0, 1], interpolated inside its bucket; 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<std::atomic<std::uint64_t>> buckets_;
};

/// Per-distinct-pair record of what the service answered.
struct PairSlot {
  std::atomic<int> config{-1};  // index into the tuner's space; -1 = never served
  std::atomic<std::uint32_t> served{0};
  std::atomic<std::uint32_t> disagreements{0};  // later answers != the first
};

class SpanSink;

/// Everything one measured phase records. Outcome callbacks run on service
/// worker threads; all fields they touch are atomic.
struct PhaseRecord {
  explicit PhaseRecord(std::size_t pairs) : slots(pairs) {}

  std::vector<PairSlot> slots;
  Histogram latency;    // due -> resolved
  Histogram submit;     // duration of the submit call
  Histogram late;       // send time - due time
  Histogram queue_wait; // TuneResult::queue_wait_us
  Histogram compute;    // TuneResult::compute_us
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> resolved{0};
  std::atomic<std::uint64_t> batch_sum{0};  // Σ batch_size over OK outcomes
  std::atomic<std::int64_t> last_resolved_ns{0};
  std::mutex error_mutex;
  std::vector<std::string> errors;  // first few error details

  Clock::time_point start{};
  double seconds = 0.0;          // phase start -> last resolution
  double generator_cpu_s = 0.0;  // the generator (main) thread's own CPU
  double process_cpu_s = 0.0;
  mga::serve::ServiceStatsSnapshot stats_before;
  mga::serve::ServiceStatsSnapshot stats_after;
};

/// A set-up service: trained tuner, registry, service, warmed catalog.
struct Stack {
  std::shared_ptr<mga::serve::ModelRegistry> registry;
  std::shared_ptr<const mga::core::MgaTuner> tuner;
  std::unique_ptr<mga::serve::TuningService> service;
};

inline constexpr const char* kMachine = "comet-lake";

/// The service shape the benchmark measures: 1 shard and 2 stage workers
/// (generator + dispatcher + 2 workers fit 4 vCPUs); every other field at
/// its default, so a changed default is measured.
[[nodiscard]] mga::serve::ServeOptions serve_options();

/// Register `tuner`, start the service and submit the workload's warm-up
/// pairs (waiting for all of them).
[[nodiscard]] Stack start_service(const Workload& workload, mga::core::MgaTuner tuner);

/// The whole set-up: train on the full 45-loop suite, then start_service.
[[nodiscard]] inline Stack set_up(const Workload& workload) {
  return start_service(workload, mga::core::MgaTuner::train());
}

/// Send the workload's schedule from the calling thread and wait for every
/// outcome. `spans`, when set, receives each request's spans.
void run_phase(const Workload& workload, Stack& stack, PhaseRecord& record,
               SpanSink* spans = nullptr);

// ---- verification (verify.cpp) ----------------------------------------------

struct Verdict {
  bool ok = true;
  std::vector<std::string> problems;
  std::size_t pairs_checked = 0;
  double oracle_ratio = 0.0;  // geomean over served requests
  double accuracy = 0.0;      // share of served requests answered with the oracle label
};

/// Check every served config against direct `MgaTuner::tune` (once per
/// distinct pair), score it against the hwsim oracle, and assert that the
/// phase exercised what the workload claims (cache hits / misses, distinct
/// IR hashes, every ticket answered).
[[nodiscard]] Verdict verify(const Workload& workload, const mga::core::MgaTuner& tuner,
                             const PhaseRecord& record);

// ---- tracing (trace.cpp) ----------------------------------------------------

/// In-memory span store: fixed capacity, lock-free append, written out once.
class SpanSink {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0 = root
    std::uint64_t request = 0;  // shared by all spans of one request
    const char* name = "";
    Clock::time_point start{};
    Clock::time_point end{};
  };

  explicit SpanSink(std::size_t capacity);
  /// A fresh span id, for a span recorded later (so children can name it).
  [[nodiscard]] std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }
  /// Record a span under a fresh id and return the id. A full sink drops
  /// the span and counts it.
  std::uint64_t add(const char* name, std::uint64_t parent, std::uint64_t request,
                    Clock::time_point start, Clock::time_point end);
  void add_with_id(std::uint64_t id, const char* name, std::uint64_t parent,
                   std::uint64_t request, Clock::time_point start, Clock::time_point end);
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(); }
  /// Chrome trace-event JSON; false when the file cannot be written.
  bool write_chrome_trace(const std::string& path, Clock::time_point origin) const;

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> ids_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Median per-layer timings from a single-threaded replay of the workload's
/// own kernels through each layer's public functions. A layer's self time
/// is its span minus its children.
struct LayerTimes {
  double key_us = 0.0;
  double extract_self_us = 0.0;
  double generate_us = 0.0;
  double build_us = 0.0;
  double encode_us = 0.0;
  double profile_us = 0.0;
  double forward_b1_us = 0.0;
  double forward_b30_us = 0.0;
  double forward_observed_us = 0.0;
};

[[nodiscard]] LayerTimes replay_layers(const Workload& workload, const Stack& stack,
                                       std::size_t observed_batch, SpanSink& spans);

// ---- report (report.cpp) ----------------------------------------------------

struct MetricDecl {
  const char* name;
  const char* unit;
};

[[nodiscard]] const std::vector<MetricDecl>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDecl>& per_layer_metrics();

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every declared metric of the run's kind with its unit. Throws
/// std::logic_error when `values` lacks a declared metric.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed, bool trace,
                                      const std::map<std::string, double>& values);

}  // namespace perfbench
