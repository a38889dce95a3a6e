// The workloads' inputs, all derived from --seed with the benchmark's
// own generator. The program only ever sees the generated requests.
#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "dataset/dataset.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

/// SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }  // [0, 1)
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(uniform() * n); }

 private:
  std::uint64_t state_;
};

constexpr double kHotRate = 1000.0;
constexpr double kColdRate = 300.0;
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kHotLoops = 16;
constexpr std::size_t kHotSizes = 8;

/// Poisson arrivals conditioned on exactly rate x seconds sends: given the
/// count, Poisson arrival times are sorted uniform draws. Burstiness stays;
/// the run-to-run noise of the send count (and so of throughput) goes.
std::vector<Arrival> poisson(double rate, double seconds, Rng& rng,
                             const std::function<std::uint32_t(std::size_t)>& pick) {
  std::vector<double> times(static_cast<std::size_t>(std::llround(rate * seconds)));
  for (double& t : times) t = rng.uniform() * seconds;
  std::sort(times.begin(), times.end());
  std::vector<Arrival> schedule;
  schedule.reserve(times.size());
  for (const double t : times)
    schedule.push_back({std::chrono::nanoseconds(static_cast<std::int64_t>(t * 1e9)),
                        pick(schedule.size())});
  return schedule;
}

/// hot_zipf's catalog: 16 suite loops x 8 input sizes, in popularity order.
std::vector<Pair> hot_catalog() {
  // Fixed, evenly spread loops and sizes: the seed draws the traffic, not
  // the catalog, so seeds differ in sampling only and not in which kernels
  // happen to be hot (batch-1 forward time varies by kernel).
  const auto suite = mga::corpus::openmp_suite();
  const auto sizes = mga::dataset::input_sizes_30();
  std::vector<Pair> catalog;
  for (std::size_t s = 0; s < kHotSizes; ++s)
    for (std::size_t l = 0; l < kHotLoops; ++l)
      catalog.push_back({suite[l * suite.size() / kHotLoops],
                         sizes[((s + l) % kHotSizes) * sizes.size() / kHotSizes + 1]});
  return catalog;  // rank order: the first 16 ranks cover all 16 loops
}

/// cold_scan's kernel number `index`: a seeded perturbation of a suite loop
/// under a name unique to (seed, phase, index), so its IR (and
/// `serve::kernel_ir_hash`) is new.
mga::corpus::KernelSpec cold_kernel(std::uint64_t seed, unsigned phase, std::size_t index,
                                    Rng& rng) {
  static const auto suite = mga::corpus::openmp_suite();
  mga::corpus::KernelSpec spec = suite[rng.below(suite.size())];
  spec.name = "cold/" + std::to_string(seed) + "." + std::to_string(phase) + "/" +
              std::to_string(index) + "/" + spec.name;
  mga::corpus::FamilyParams& p = spec.params;
  p.arith_chain = std::max(1, p.arith_chain + static_cast<int>(rng.below(4)) - 1);
  p.arrays = std::max(1, p.arrays + static_cast<int>(rng.below(2)));
  if (rng.uniform() < 0.1) p.has_branch = !p.has_branch;
  p.reuse = std::clamp(p.reuse * (0.85 + 0.3 * rng.uniform()), 0.05, 0.95);
  p.imbalance = std::clamp(p.imbalance + 0.1 * rng.uniform(), 0.0, 0.9);
  return spec;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, double seconds,
                       unsigned phase) {
  Workload w;
  w.name = name;
  w.seed = seed;
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 0x9e37 + phase * 0x632be59bd9b4e019ULL);
  const auto suite = mga::corpus::openmp_suite();
  const auto sizes = mga::dataset::input_sizes_30();

  if (name == "hot_zipf") {
    w.pairs = hot_catalog();
    w.warmup = w.pairs;
    std::vector<double> cdf;
    double total = 0.0;
    for (std::size_t r = 0; r < w.pairs.size(); ++r)
      cdf.push_back(total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent));
    w.schedule = poisson(kHotRate, seconds, rng, [&](std::size_t) {
      const double u = rng.uniform() * total;
      const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
      return static_cast<std::uint32_t>(std::min<std::size_t>(it - cdf.begin(), cdf.size() - 1));
    });
  } else if (name == "cold_scan") {
    // Warm the code paths (not the cache: nothing here is sent again).
    for (const auto& kernel : suite) w.warmup.push_back({kernel, sizes[sizes.size() / 2]});
    w.schedule = poisson(kColdRate, seconds, rng, [&](std::size_t i) {
      w.pairs.push_back({cold_kernel(seed, phase, i, rng), sizes[rng.below(sizes.size())]});
      return static_cast<std::uint32_t>(i);
    });
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace perfbench
