// perfbench entry point.
//
//   perfbench --workload <hot_zipf|cold_scan> --seed N --seconds S
//             --trace <0|1> [--source ID] [--trace-out PATH]
//   perfbench --list-metrics
//
// --trace 0 sets up kSetupRepsBefore times, runs one measured phase, sets up
// kSetupRepsAfter more times (reporting the median set-up time) and prints
// the end-to-end metrics. --trace 1 sets up once, runs an untraced and a
// traced phase of half the seconds each (their difference is the tracing
// overhead), replays the workload's kernels through each layer and prints
// the per-layer metrics. Both check every answer; the last stdout line is
// the JSON result and the exit code is 0 only when every check held.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "dataset/dataset.hpp"
#include "perfbench.hpp"

namespace {

using namespace perfbench;

// Host speed drifts over tens of seconds, so the set-ups are spread over the
// whole run rather than taken back to back: the first counts from process
// start, the last two follow the measured phase.
constexpr int kSetupRepsBefore = 3;
constexpr int kSetupRepsAfter = 2;
constexpr int kCompileReps = 3;
constexpr std::size_t kSpanCapacity = 1u << 18;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool list = false;
  std::string source;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      args.list = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--source") args.source = value;
    else if (flag == "--trace-out") args.trace_out = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (!args.list && args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

/// A traced run sends two phases, so each gets half the seconds and the run
/// takes about as long as an untraced one.
double workload_seconds(const Args& args) { return args.trace ? args.seconds / 2 : args.seconds; }

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Diagnostics every run prints before its result line.
void print_phase(const char* label, const PhaseRecord& r) {
  std::printf("# %s: %llu attempted, %llu ok, %llu failed over %.3f s; p50 %.1f us, "
              "p99 %.1f us (n=%llu), submit p50 %.2f us, mean batch %.2f\n",
              label, static_cast<unsigned long long>(r.attempted.load()),
              static_cast<unsigned long long>(r.ok.load()),
              static_cast<unsigned long long>(r.failed.load()), r.seconds,
              r.latency.quantile(0.5), r.latency.quantile(0.99),
              static_cast<unsigned long long>(r.latency.count()), r.submit.quantile(0.5),
              ratio(r.batch_sum.load(), r.ok.load()));
  if (r.late.count() > 0)
    std::printf("# %s: generator late p50 %.1f us, p99 %.1f us\n", label, r.late.quantile(0.5),
                r.late.quantile(0.99));
}

void print_verdict(const Verdict& v) {
  std::printf("# verify: %zu distinct pairs checked against direct tune: %s\n", v.pairs_checked,
              v.ok ? "ok" : "FAILED");
  for (const std::string& p : v.problems) std::printf("# verify: %s\n", p.c_str());
}

int untraced(const Workload& workload, Clock::time_point process_start) {
  std::vector<double> setups;
  const auto timed_set_up = [&](Clock::time_point start) {
    Stack stack = set_up(workload);
    setups.push_back(us_between(start, Clock::now()) / 1e6);
    return stack;
  };
  Stack stack = timed_set_up(process_start);
  for (int rep = 1; rep < kSetupRepsBefore; ++rep) {
    stack.service->shutdown();
    stack = Stack{};
    stack = timed_set_up(Clock::now());
  }
  PhaseRecord record(workload.pairs.size());
  const double ref_before = host_ref_ms();
  const CpuJiffies j0 = read_jiffies();
  run_phase(workload, stack, record);
  const CpuJiffies j1 = read_jiffies();
  const double ref_after = host_ref_ms();
  stack.service->shutdown();
  // Read before the checks: their direct tunes run on transient threads and
  // set a higher, noisier peak that is the benchmark's, not the service's.
  const double peak_rss = peak_rss_mb();
  const Verdict verdict = verify(workload, *stack.tuner, record);
  stack = Stack{};
  for (int rep = 0; rep < kSetupRepsAfter; ++rep) timed_set_up(Clock::now()).service->shutdown();

  std::printf("# setup_s reps:");
  for (const double s : setups) std::printf(" %.3f", s);
  std::printf("\n# host.ref_ms before %.3f after %.3f; steal_share %.4f\n", ref_before, ref_after,
              steal_share(j0, j1));
  print_phase("measured", record);
  print_verdict(verdict);

  const std::uint64_t ok = record.ok.load();
  const std::map<std::string, double> values = {
      {"setup_s", median(setups)},
      {"throughput_rps", ratio(ok, 1) / record.seconds},
      {"answered_share", ratio(ok, record.attempted.load())},
      {"cpu_us_per_req",
       ok == 0 ? 0.0 : (record.process_cpu_s - record.generator_cpu_s) * 1e6 / ok},
      {"peak_rss_mb", peak_rss},
      {"oracle_ratio", verdict.oracle_ratio},
      {"accuracy", verdict.accuracy},
  };
  std::cout << result_json(verdict.ok, record.attempted.load(), record.failed.load(), false,
                           values)
            << std::endl;
  return verdict.ok ? 0 : 1;
}

int traced(const Workload& workload, const Args& args) {
  const Clock::time_point origin = Clock::now();

  // Set-up layers, each timed on its own.
  Clock::time_point t = Clock::now();
  mga::core::MgaTuner tuner = mga::core::MgaTuner::train();
  const double train_s = us_between(t, Clock::now()) / 1e6;
  t = Clock::now();
  {
    const mga::hwsim::MachineConfig machine = tuner.machine();
    const auto data =
        mga::dataset::build_omp_dataset(mga::corpus::openmp_suite(), machine,
                                        mga::dataset::thread_space(machine),
                                        mga::dataset::input_sizes_30());
  }
  const double build_ms = us_between(t, Clock::now()) / 1e3;
  std::vector<double> compiles;
  for (int rep = 0; rep < kCompileReps; ++rep) {
    t = Clock::now();
    const auto plan = tuner.compile_forward();
    compiles.push_back(us_between(t, Clock::now()) / 1e3);
  }
  Stack stack = start_service(workload, std::move(tuner));

  // An untraced and a traced phase back to back; the second draws fresh
  // inputs from the same seed (a resent cold_scan kernel could hit).
  const double ref_before = host_ref_ms();
  const CpuJiffies j0 = read_jiffies();
  PhaseRecord plain(workload.pairs.size());
  run_phase(workload, stack, plain);
  const Workload second = make_workload(workload.name, workload.seed, workload_seconds(args), 1);
  SpanSink spans(kSpanCapacity);
  PhaseRecord record(second.pairs.size());
  run_phase(second, stack, record, &spans);
  const CpuJiffies j1 = read_jiffies();
  const double ref_after = host_ref_ms();

  const double mean_batch = ratio(record.batch_sum.load(), record.ok.load());
  const LayerTimes layers = replay_layers(
      second, stack, static_cast<std::size_t>(std::max(1.0, std::round(mean_batch))), spans);
  stack.service->shutdown();
  Verdict verdict = verify(workload, *stack.tuner, plain);
  const Verdict traced_verdict = verify(second, *stack.tuner, record);
  verdict.ok = verdict.ok && traced_verdict.ok;
  verdict.problems.insert(verdict.problems.end(), traced_verdict.problems.begin(),
                          traced_verdict.problems.end());
  verdict.pairs_checked += traced_verdict.pairs_checked;

  std::printf("# host.ref_ms before %.3f after %.3f; steal_share %.4f\n", ref_before, ref_after,
              steal_share(j0, j1));
  print_phase("untraced", plain);
  print_phase("traced", record);
  std::printf("# replay: forward at observed batch %.0f: %.1f us\n", std::round(mean_batch),
              layers.forward_observed_us);
  print_verdict(verdict);
  if (spans.dropped() > 0)
    std::printf("# trace: %llu spans dropped (store full)\n",
                static_cast<unsigned long long>(spans.dropped()));
  if (!args.trace_out.empty()) {
    if (spans.write_chrome_trace(args.trace_out, origin))
      std::printf("# trace: spans written to %s\n", args.trace_out.c_str());
    else
      std::printf("# trace: could not write %s\n", args.trace_out.c_str());
  }

  const auto& s0 = record.stats_before;
  const auto& s1 = record.stats_after;
  const std::uint64_t ok = record.ok.load();
  const std::map<std::string, double> values = {
      {"serve.submit_us", record.submit.quantile(0.5)},
      {"serve.queue_wait_us", record.queue_wait.quantile(0.5)},
      {"serve.compute_us", record.compute.quantile(0.5)},
      {"serve.batch_size", mean_batch},
      {"serve.interpreted_forwards",
       static_cast<double>(s1.forwards_interpreted - s0.forwards_interpreted)},
      {"feature_cache.hit_share",
       ratio(s1.cache.hits - s0.cache.hits,
             s1.cache.hits - s0.cache.hits + s1.cache.misses - s0.cache.misses)},
      {"feature_cache.memo_hit_share",
       ratio(s1.cache.profile_memo_hits - s0.cache.profile_memo_hits,
             s1.cache.profile_memo_hits - s0.cache.profile_memo_hits + s1.cache.profiles_run -
                 s0.cache.profiles_run)},
      {"feature_cache.evictions_per_req", ratio(s1.cache.evictions - s0.cache.evictions, ok)},
      {"feature_cache.key_us", layers.key_us},
      {"core.extract_us", layers.extract_self_us},
      {"corpus.generate_us", layers.generate_us},
      {"programl.build_us", layers.build_us},
      {"ir2vec.encode_us", layers.encode_us},
      {"hwsim.profile_us", layers.profile_us},
      {"runtime.forward_b1_us", layers.forward_b1_us},
      {"runtime.forward_b30_us", layers.forward_b30_us},
      {"core.train_s", train_s},
      {"dataset.build_ms", build_ms},
      {"runtime.compile_ms", median(compiles)},
      {"loadgen.p50_us", plain.latency.quantile(0.5)},
      {"loadgen.p99_us", record.latency.quantile(0.99)},
      {"loadgen.samples", static_cast<double>(record.latency.count())},
      {"loadgen.late_p99_us", record.late.quantile(0.99)},
      {"host.ref_ms", 0.5 * (ref_before + ref_after)},
      {"host.steal_share", steal_share(j0, j1)},
      // Open-loop throughput is the schedule's, so only p50 can show overhead.
      {"trace.overhead_share", record.latency.quantile(0.5) / plain.latency.quantile(0.5) - 1.0},
  };
  std::cout << result_json(verdict.ok, plain.attempted.load() + record.attempted.load(),
                           plain.failed.load() + record.failed.load(), true, values)
            << std::endl;
  return verdict.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  try {
    const Args args = parse(argc, argv);
    if (args.list) {
      for (const char* name : kWorkloadNames) std::printf("workload %s\n", name);
      for (const MetricDecl& m : end_to_end_metrics())
        std::printf("end_to_end %s %s\n", m.name, m.unit);
      for (const MetricDecl& m : per_layer_metrics())
        std::printf("per_layer %s %s\n", m.name, m.unit);
      return 0;
    }
    const HostFingerprint host = host_fingerprint(args.source);
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
    std::printf("# host nproc=%u compiler=\"%s\" build=%s source=%s\n", host.nproc,
                host.compiler.c_str(), host.build_type.c_str(), host.source.c_str());
    const Workload workload = make_workload(args.workload, args.seed, workload_seconds(args));
    return args.trace ? traced(workload, args) : untraced(workload, process_start);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
