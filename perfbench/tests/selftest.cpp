// perfbench self-tests: the generators, the workload shapes and the result
// printer. Run with `python3 perfbench/run.py --selftest`, which also checks
// the printer's metric table against BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>

#include "ir/verifier.hpp"
#include "perfbench.hpp"
#include "serve/feature_cache.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool same_inputs(const Workload& a, const Workload& b) {
  if (a.pairs.size() != b.pairs.size() || a.schedule.size() != b.schedule.size()) return false;
  for (std::size_t i = 0; i < a.pairs.size(); ++i)
    if (!(a.pairs[i].kernel == b.pairs[i].kernel) ||
        a.pairs[i].input_bytes != b.pairs[i].input_bytes)
      return false;
  for (std::size_t i = 0; i < a.schedule.size(); ++i)
    if (a.schedule[i].due != b.schedule[i].due || a.schedule[i].pair != b.schedule[i].pair)
      return false;
  return true;
}

void generators_are_deterministic_in_the_seed() {
  for (const std::string name : kWorkloadNames) {
    const Workload a = make_workload(name, 7, 2.0);
    check(same_inputs(a, make_workload(name, 7, 2.0)), name + ": same seed, same inputs");
    check(!same_inputs(a, make_workload(name, 8, 2.0)), name + ": new seed, new inputs");
    check(!same_inputs(a, make_workload(name, 7, 2.0, 1)), name + ": new phase, new inputs");
  }
}

void schedules_follow_their_rate() {
  for (const auto& [name, rate] : {std::pair{"hot_zipf", 1000.0}, std::pair{"cold_scan", 300.0}}) {
    const Workload w = make_workload(name, 3, 20.0);
    check(w.schedule.size() == static_cast<std::size_t>(20.0 * rate),
          std::string(name) + ": exactly rate x seconds sends");
    bool ordered = true;
    for (std::size_t i = 1; i < w.schedule.size(); ++i)
      ordered = ordered && w.schedule[i - 1].due <= w.schedule[i].due;
    check(ordered && w.schedule.back().due < std::chrono::seconds(20),
          std::string(name) + ": schedule ordered and inside the phase");
  }
  const Workload hot = make_workload("hot_zipf", 3, 20.0);
  std::vector<std::size_t> counts(hot.pairs.size());
  for (const Arrival& a : hot.schedule) ++counts[a.pair];
  check(hot.pairs.size() == 128 && counts[0] > counts[1] && counts[1] > counts[15],
        "hot_zipf: Zipf popularity over 16 loops x 8 sizes");
}

void cold_scan_kernels_are_valid_and_new() {
  const Workload w = make_workload("cold_scan", 5, 3.0);
  check(w.pairs.size() == w.schedule.size(), "cold_scan: one fresh kernel per send");
  std::unordered_set<std::uint64_t> hashes;
  for (const auto& kernel : mga::corpus::openmp_suite())
    hashes.insert(mga::serve::kernel_ir_hash(kernel));
  std::size_t invalid = 0;
  for (const Pair& pair : w.pairs) {
    const auto generated = mga::corpus::generate(pair.kernel);
    invalid += mga::ir::is_well_formed(*generated.module) ? 0 : 1;
    hashes.insert(mga::serve::kernel_ir_hash(pair.kernel));
  }
  check(invalid == 0, "cold_scan: every perturbed spec generates well-formed IR");
  check(hashes.size() == w.pairs.size() + mga::corpus::openmp_suite().size(),
        "cold_scan: every kernel IR hash is new");
}

void printer_emits_every_declared_metric() {
  for (const bool trace : {false, true}) {
    const auto& decls = trace ? per_layer_metrics() : end_to_end_metrics();
    std::map<std::string, double> values;
    for (const MetricDecl& m : decls) values[m.name] = 1.25;
    const std::string line = result_json(true, 10, 0, trace, values);
    const std::string head = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {";
    check(line.rfind(head, 0) == 0, "printer: result keys");
    for (const MetricDecl& m : decls) {
      std::string entry = "\"";
      entry.append(m.name).append("\": {\"value\": 1.25, \"unit\": \"");
      entry.append(m.unit).append("\"}");
      check(line.find(entry) != std::string::npos,
            std::string("printer: ") + m.name + " with its unit");
    }
    values.erase(decls.front().name);
    bool threw = false;
    try {
      (void)result_json(true, 10, 0, trace, values);
    } catch (const std::logic_error&) {
      threw = true;
    }
    check(threw, "printer: refuses a result missing a declared metric");
  }
}

void histogram_quantiles_are_within_a_bucket() {
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.record(v);
  check(h.count() == 1000, "histogram: count");
  check(std::abs(h.quantile(0.5) / 500.5 - 1.0) < 0.002, "histogram: median within 0.2%");
  check(std::abs(h.quantile(0.99) / 990.0 - 1.0) < 0.002, "histogram: p99 within 0.2%");
  check(Histogram().quantile(0.5) == 0.0, "histogram: empty reads 0");
}

}  // namespace

int main() {
  generators_are_deterministic_in_the_seed();
  schedules_follow_their_rate();
  cold_scan_kernels_are_valid_and_new();
  printer_emits_every_declared_metric();
  histogram_quantiles_are_within_a_bucket();
  std::printf("selftest: %s (%d failed checks)\n", failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
