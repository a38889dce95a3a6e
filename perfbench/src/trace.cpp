// The traced mode's instruments: an in-memory span store written out once
// at exit, and a single-threaded replay of the workload's own kernels
// through each layer's public functions, timed with nested spans.
#include <algorithm>
#include <fstream>
#include <set>

#include "corpus/spec.hpp"
#include "ir2vec/encoder.hpp"
#include "perfbench.hpp"
#include "programl/builder.hpp"
#include "runtime/compiled.hpp"
#include "serve/feature_cache.hpp"

namespace perfbench {

SpanSink::SpanSink(std::size_t capacity) : spans_(capacity) {}

void SpanSink::add_with_id(std::uint64_t id, const char* name, std::uint64_t parent,
                           std::uint64_t request, Clock::time_point start,
                           Clock::time_point end) {
  const std::size_t index = next_.fetch_add(1);
  if (index >= spans_.size()) {
    dropped_.fetch_add(1);
    return;
  }
  spans_[index] = {id, parent, request, name, start, end};
}

std::uint64_t SpanSink::add(const char* name, std::uint64_t parent, std::uint64_t request,
                            Clock::time_point start, Clock::time_point end) {
  const std::uint64_t id = next_id();
  add_with_id(id, name, parent, request, start, end);
  return id;
}

std::vector<SpanSink::Span> SpanSink::spans() const {
  const std::size_t n = std::min(next_.load(), spans_.size());
  return {spans_.begin(), spans_.begin() + static_cast<std::ptrdiff_t>(n)};
}

bool SpanSink::write_chrome_trace(const std::string& path, Clock::time_point origin) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const Span& s : spans()) {
    out << (first ? "" : ",\n") << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
        << ", \"tid\": " << s.request << ", \"ts\": " << us_between(origin, s.start)
        << ", \"dur\": " << us_between(s.start, s.end) << ", \"args\": {\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}}";
    first = false;
  }
  out << "\n], \"displayTimeUnit\": \"ns\"}\n";
  return static_cast<bool>(out);
}

namespace {

constexpr std::size_t kReplayKernels = 32;
constexpr int kReplayPasses = 5;

}  // namespace

LayerTimes replay_layers(const Workload& workload, const Stack& stack,
                         std::size_t observed_batch, SpanSink& spans) {
  // The workload's own distinct kernels, each with the first input it sent.
  std::vector<const Pair*> kernels;
  std::set<std::string> seen;
  for (const Pair& pair : workload.pairs)
    if (kernels.size() < kReplayKernels && seen.insert(pair.kernel.name).second)
      kernels.push_back(&pair);

  const mga::core::MgaTuner& tuner = *stack.tuner;
  const auto plan = stack.registry->resolve(kMachine).plan;
  const auto forward = [&](const mga::core::KernelFeatures& f,
                           const std::vector<mga::hwsim::PapiCounters>& rows) {
    return plan ? plan->predict_labels(f.graph, f.scaled_vector, rows)
                : tuner.predict_labels(f, rows);
  };
  const std::vector<double> sizes = [&] {
    std::vector<double> all;
    for (const Pair& pair : workload.pairs) all.push_back(pair.input_bytes);
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    return all;
  }();

  std::map<std::string, std::vector<double>> samples;
  std::vector<double> extract_self;
  std::uint64_t request = 1u << 30;  // replay ids sit apart from live request ids
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    for (const Pair* pair : kernels) {
      ++request;
      const std::uint64_t root = spans.next_id();
      const Clock::time_point root_start = Clock::now();
      const auto timed = [&](const char* name, std::uint64_t parent, auto&& fn) {
        const Clock::time_point t0 = Clock::now();
        auto result = fn();
        const Clock::time_point t1 = Clock::now();
        spans.add(name, parent, request, t0, t1);
        samples[name].push_back(us_between(t0, t1));
        return result;
      };

      timed("feature_cache.key", root, [&] { return mga::serve::kernel_ir_hash(pair->kernel); });

      // extract_features is opaque, so its public sub-calls are re-executed
      // beside it as its children: self = extract - (generate + build + encode).
      const std::uint64_t extract = spans.next_id();
      const Clock::time_point e0 = Clock::now();
      const mga::core::KernelFeatures features = tuner.extract_features(pair->kernel);
      const Clock::time_point e1 = Clock::now();
      spans.add_with_id(extract, "core.extract", root, request, e0, e1);
      const auto generated =
          timed("corpus.generate", extract, [&] { return mga::corpus::generate(pair->kernel); });
      timed("programl.build", extract,
            [&] { return mga::programl::build_graph(*generated.module); });
      timed("ir2vec.encode", extract,
            [&] { return mga::ir2vec::Encoder().encode_module(*generated.module); });
      extract_self.push_back(us_between(e0, e1) - samples["corpus.generate"].back() -
                             samples["programl.build"].back() - samples["ir2vec.encode"].back());

      const mga::hwsim::PapiCounters counters = timed("hwsim.profile", root, [&] {
        return tuner.profile_counters(features.workload, pair->input_bytes);
      });
      const std::vector<mga::hwsim::PapiCounters> observed(std::max<std::size_t>(1, observed_batch),
                                                           counters);
      timed("runtime.forward", root, [&] { return forward(features, observed); });
      timed("runtime.forward_b1", root, [&] { return forward(features, {counters}); });
      std::vector<mga::hwsim::PapiCounters> rows;
      for (std::size_t i = 0; rows.size() < 30; ++i)
        rows.push_back(tuner.profile_counters(features.workload, sizes[i % sizes.size()]));
      timed("runtime.forward_b30", root, [&] { return forward(features, rows); });
      spans.add_with_id(root, "replay.request", 0, request, root_start, Clock::now());
    }
  }

  LayerTimes t;
  t.key_us = median(samples["feature_cache.key"]);
  t.extract_self_us = median(extract_self);
  t.generate_us = median(samples["corpus.generate"]);
  t.build_us = median(samples["programl.build"]);
  t.encode_us = median(samples["ir2vec.encode"]);
  t.profile_us = median(samples["hwsim.profile"]);
  t.forward_observed_us = median(samples["runtime.forward"]);
  t.forward_b1_us = median(samples["runtime.forward_b1"]);
  t.forward_b30_us = median(samples["runtime.forward_b30"]);
  return t;
}

}  // namespace perfbench
