// The metric tables (kept equal to BENCHMARK.json; `run.py --selftest`
// checks) and the result line.
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "perfbench.hpp"

namespace perfbench {

const std::vector<MetricDecl>& end_to_end_metrics() {
  static const std::vector<MetricDecl> metrics = {
      {"setup_s", "s"},           {"throughput_rps", "1/s"}, {"answered_share", "share"},
      {"cpu_us_per_req", "us"},    {"peak_rss_mb", "MB"},     {"oracle_ratio", "ratio"},
      {"accuracy", "share"},
  };
  return metrics;
}

const std::vector<MetricDecl>& per_layer_metrics() {
  static const std::vector<MetricDecl> metrics = {
      {"serve.submit_us", "us"},
      {"serve.queue_wait_us", "us"},
      {"serve.compute_us", "us"},
      {"serve.batch_size", "requests"},
      {"serve.interpreted_forwards", "count"},
      {"feature_cache.hit_share", "share"},
      {"feature_cache.memo_hit_share", "share"},
      {"feature_cache.evictions_per_req", "count/req"},
      {"feature_cache.key_us", "us"},
      {"core.extract_us", "us"},
      {"corpus.generate_us", "us"},
      {"programl.build_us", "us"},
      {"ir2vec.encode_us", "us"},
      {"hwsim.profile_us", "us"},
      {"runtime.forward_b1_us", "us"},
      {"runtime.forward_b30_us", "us"},
      {"core.train_s", "s"},
      {"dataset.build_ms", "ms"},
      {"runtime.compile_ms", "ms"},
      {"loadgen.p50_us", "us"},
      {"loadgen.p99_us", "us"},
      {"loadgen.samples", "count"},
      {"loadgen.late_p99_us", "us"},
      {"host.ref_ms", "ms"},
      {"host.steal_share", "share"},
      {"trace.overhead_share", "share"},
  };
  return metrics;
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed, bool trace,
                        const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDecl& metric : trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = values.find(metric.name);
    if (it == values.end())
      throw std::logic_error(std::string("no value for declared metric ") + metric.name);
    if (!std::isfinite(it->second))
      throw std::logic_error(std::string("non-finite value for ") + metric.name);
    char number[64];
    const auto end = std::to_chars(number, number + sizeof number, it->second).ptr;
    out << (first ? "" : ", ") << '"' << metric.name << "\": {\"value\": "
        << std::string_view(number, static_cast<std::size_t>(end - number)) << ", \"unit\": \""
        << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
