// Answer and workload checks. Every served config must equal direct
// `MgaTuner::tune` for its (kernel, input) — the serve stack's bit-identity
// contract — and each workload must have exercised what it claims.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "hwsim/cpu_model.hpp"
#include "perfbench.hpp"
#include "serve/feature_cache.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

struct Direct {
  int config = -1;          // direct tune's answer, as a space index
  int oracle = -1;          // argmin over the space (first minimum wins)
  double oracle_s = 0.0;
  double served_s = 0.0;    // runtime of the config the service answered
};

}  // namespace

Verdict verify(const Workload& workload, const mga::core::MgaTuner& tuner,
               const PhaseRecord& record) {
  Verdict verdict;
  const auto problem = [&](const std::string& text) {
    verdict.ok = false;
    verdict.problems.push_back(text);
  };

  const std::uint64_t attempted = record.attempted.load();
  const std::uint64_t ok = record.ok.load();
  if (ok != attempted) {
    std::ostringstream os;
    os << (attempted - ok) << " of " << attempted << " requests not answered";
    for (const std::string& error : record.errors) os << "; " << error;
    problem(os.str());
  }

  std::vector<std::size_t> served;
  for (std::size_t p = 0; p < record.slots.size(); ++p)
    if (record.slots[p].served.load() > 0) served.push_back(p);
  const auto& space = tuner.space();
  std::vector<Direct> direct(served.size());
  mga::util::parallel_for(served.size(), [&](std::size_t i) {
    const Pair& pair = workload.pairs[served[i]];
    Direct& d = direct[i];
    const auto answer = tuner.tune(pair.kernel, pair.input_bytes);
    d.config = static_cast<int>(std::find(space.begin(), space.end(), answer) - space.begin());
    const auto generated = mga::corpus::generate(pair.kernel);
    const int got = record.slots[served[i]].config.load();
    for (std::size_t c = 0; c < space.size(); ++c) {
      const double s =
          mga::hwsim::cpu_execute(generated.workload, tuner.machine(), pair.input_bytes, space[c])
              .seconds;
      if (d.oracle < 0 || s < d.oracle_s) {
        d.oracle = static_cast<int>(c);
        d.oracle_s = s;
      }
      if (static_cast<int>(c) == got) d.served_s = s;
    }
  });

  double log_ratio = 0.0;
  double requests = 0.0;
  double on_label = 0.0;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < served.size(); ++i) {
    const PairSlot& slot = record.slots[served[i]];
    const double n = slot.served.load();
    if (slot.disagreements.load() > 0 || slot.config.load() != direct[i].config) {
      if (mismatched++ == 0)
        problem("served config differs from direct tune for " +
                workload.pairs[served[i]].kernel.name);
      continue;
    }
    log_ratio += n * std::log(direct[i].oracle_s / direct[i].served_s);
    on_label += direct[i].config == direct[i].oracle ? n : 0.0;
    requests += n;
  }
  if (mismatched > 1) problem(std::to_string(mismatched) + " pairs mismatched in total");
  verdict.pairs_checked = served.size();
  verdict.oracle_ratio = requests > 0 ? std::exp(log_ratio / requests) : 0.0;
  verdict.accuracy = requests > 0 ? on_label / requests : 0.0;

  // The workload's claim about the feature cache, over the measured phase.
  const auto& before = record.stats_before.cache;
  const auto& after = record.stats_after.cache;
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t misses = after.misses - before.misses;
  const std::uint64_t memo_hits = after.profile_memo_hits - before.profile_memo_hits;
  const std::uint64_t profiles = after.profiles_run - before.profiles_run;
  if (workload.name == "cold_scan") {
    if (hits != 0 || memo_hits != 0)
      problem("cold_scan hit the cache (" + std::to_string(hits) + " feature hits, " +
              std::to_string(memo_hits) + " memo hits)");
    if (misses != ok)
      problem("cold_scan: " + std::to_string(misses) + " cache misses for " +
              std::to_string(ok) + " requests");
    std::vector<std::uint64_t> hashes(workload.pairs.size() + workload.warmup.size());
    mga::util::parallel_for(hashes.size(), [&](std::size_t i) {
      const Pair& pair = i < workload.pairs.size() ? workload.pairs[i]
                                                   : workload.warmup[i - workload.pairs.size()];
      hashes[i] = mga::serve::kernel_ir_hash(pair.kernel);
    });
    if (std::unordered_set<std::uint64_t>(hashes.begin(), hashes.end()).size() != hashes.size())
      problem("cold_scan: kernel IR hashes are not all distinct");
  } else if (misses != 0 || profiles != 0) {
    problem(workload.name + " missed the warmed cache (" + std::to_string(misses) +
            " feature misses, " + std::to_string(profiles) + " profile runs)");
  }
  return verdict;
}

}  // namespace perfbench
