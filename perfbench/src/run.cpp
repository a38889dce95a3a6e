// Set-up and the measured phase: the open-loop load generator (on the
// calling thread) and the outcome recording that runs on the service's
// worker threads.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {

namespace {

constexpr double kHistMinUs = 0.1;
constexpr double kHistRatio = 1.002;
constexpr std::size_t kHistBuckets = 10400;  // 0.1 us .. ~100 s
constexpr std::size_t kMaxErrorsKept = 5;
/// The generator sleeps until this long before a send is due, then spins:
/// thread wake-up here runs ~60-70 us late at the median.
constexpr auto kSpinLead = std::chrono::microseconds(200);

std::size_t bucket_of(double value) {
  if (!(value > kHistMinUs)) return 0;
  const double index = std::log(value / kHistMinUs) / std::log(kHistRatio);
  return std::min(kHistBuckets - 1, static_cast<std::size_t>(index));
}

void pace_until(Clock::time_point due) {
  std::this_thread::sleep_until(due - kSpinLead);
  while (Clock::now() < due) {
  }
}

int config_index(const std::vector<mga::hwsim::OmpConfig>& space,
                 const mga::hwsim::OmpConfig& config) {
  const auto it = std::find(space.begin(), space.end(), config);
  return it == space.end() ? -2 : static_cast<int>(it - space.begin());
}

/// Everything an outcome callback needs, captured by value per request.
struct Pending {
  PhaseRecord* record = nullptr;
  const std::vector<mga::hwsim::OmpConfig>* space = nullptr;
  std::uint32_t pair = 0;
  Clock::time_point origin{};  // latency clock start: when the send was due
  SpanSink* spans = nullptr;   // set when the phase is traced
  std::uint64_t request_id = 0;
  std::uint64_t span_id = 0;
  Clock::time_point sent{};
};

void on_outcome(const Pending& p, const mga::serve::TuneOutcome& outcome) {
  const Clock::time_point now = Clock::now();
  PhaseRecord& record = *p.record;
  if (outcome.ok()) {
    const mga::serve::TuneResult& result = outcome.value();
    record.latency.record(us_between(p.origin, now));
    record.queue_wait.record(result.queue_wait_us);
    record.compute.record(result.compute_us);
    record.batch_sum.fetch_add(result.batch_size, std::memory_order_relaxed);
    PairSlot& slot = record.slots[p.pair];
    const int index = config_index(*p.space, result.config);
    int expected = -1;
    if (!slot.config.compare_exchange_strong(expected, index) && expected != index)
      slot.disagreements.fetch_add(1, std::memory_order_relaxed);
    slot.served.fetch_add(1, std::memory_order_relaxed);
    record.ok.fetch_add(1, std::memory_order_relaxed);
    if (p.spans != nullptr) {
      const auto queue_end = p.sent + std::chrono::nanoseconds(
                                          static_cast<std::int64_t>(result.queue_wait_us * 1e3));
      const auto compute_end = queue_end + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                               result.compute_us * 1e3));
      p.spans->add("serve.queue_wait", p.span_id, p.request_id, p.sent, queue_end);
      p.spans->add("serve.compute", p.span_id, p.request_id, queue_end, compute_end);
    }
  } else {
    record.failed.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(record.error_mutex);
    if (record.errors.size() < kMaxErrorsKept)
      record.errors.push_back(std::string(mga::serve::to_string(outcome.error().kind)) + ": " +
                              outcome.error().detail);
  }
  if (p.spans != nullptr)
    p.spans->add_with_id(p.span_id, "request", 0, p.request_id, p.origin, now);
  const std::int64_t now_ns = now.time_since_epoch().count();
  std::int64_t last = record.last_resolved_ns.load(std::memory_order_relaxed);
  while (last < now_ns &&
         !record.last_resolved_ns.compare_exchange_weak(last, now_ns, std::memory_order_relaxed)) {
  }
  record.resolved.fetch_add(1);
  record.resolved.notify_all();
}

/// Normal tier, refused rather than queued when the lane is full: an
/// open-loop client does not wait for room.
mga::serve::TuneRequest make_request(const Pair& pair) {
  mga::serve::TuneRequest request;
  request.kernel = pair.kernel;
  request.input_bytes = pair.input_bytes;
  request.options.admission = mga::serve::Admission::kReject;
  return request;
}

/// Submit and register the outcome callback; records the submit span/time.
void send(mga::serve::TuningService& service, mga::serve::TuneRequest request, Pending pending,
          PhaseRecord& record) {
  pending.sent = Clock::now();
  mga::serve::TuneTicket ticket = service.submit(std::move(request));
  const Clock::time_point submitted = Clock::now();
  record.submit.record(us_between(pending.sent, submitted));
  record.attempted.fetch_add(1, std::memory_order_relaxed);
  if (pending.spans != nullptr)
    pending.spans->add("loadgen.submit", pending.span_id, pending.request_id, pending.sent,
                       submitted);
  ticket.on_resolved([pending](const mga::serve::TuneOutcome& outcome) {
    on_outcome(pending, outcome);
  });
}

}  // namespace

Histogram::Histogram() : buckets_(kHistBuckets) {}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Histogram::record(double value_us) {
  buckets_[bucket_of(value_us)].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(n - 1);
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::uint64_t c = buckets_[b].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (rank < static_cast<double>(below + c)) {
      const double within = (rank - static_cast<double>(below) + 0.5) / static_cast<double>(c);
      return kHistMinUs * std::pow(kHistRatio, static_cast<double>(b) + within);
    }
    below += c;
  }
  return kHistMinUs * std::pow(kHistRatio, static_cast<double>(kHistBuckets));
}

mga::serve::ServeOptions serve_options() {
  mga::serve::ServeOptions options;
  options.shards = 1;
  options.workers = 2;
  return options;
}

Stack start_service(const Workload& workload, mga::core::MgaTuner tuner) {
  Stack stack;
  stack.registry = std::make_shared<mga::serve::ModelRegistry>();
  stack.registry->add(kMachine, std::move(tuner));
  stack.tuner = stack.registry->get(kMachine);
  stack.service = std::make_unique<mga::serve::TuningService>(stack.registry, serve_options());
  std::vector<mga::serve::TuneTicket> tickets;
  tickets.reserve(workload.warmup.size());
  for (const Pair& pair : workload.warmup) {
    mga::serve::TuneRequest request = make_request(pair);
    request.options.admission = mga::serve::Admission::kBlock;
    tickets.push_back(stack.service->submit(std::move(request)));
  }
  for (const auto& ticket : tickets)
    if (!ticket.get().ok()) throw std::runtime_error("warm-up request failed");
  return stack;
}

void run_phase(const Workload& workload, Stack& stack, PhaseRecord& record, SpanSink* spans) {
  record.stats_before = stack.service->stats_snapshot();
  const double cpu0 = process_cpu_s();
  const double generator0 = thread_cpu_s();
  record.start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < workload.schedule.size(); ++i) {
    const Arrival& arrival = workload.schedule[i];
    mga::serve::TuneRequest request = make_request(workload.pairs[arrival.pair]);
    Pending pending;
    pending.record = &record;
    pending.space = &stack.tuner->space();
    pending.pair = arrival.pair;
    pending.origin = record.start + arrival.due;
    if (spans != nullptr) {
      pending.spans = spans;
      pending.request_id = i + 1;
      pending.span_id = spans->next_id();
    }
    pace_until(pending.origin);
    record.late.record(us_between(pending.origin, Clock::now()));
    send(*stack.service, std::move(request), pending, record);
  }
  const std::uint64_t attempted = record.attempted.load();
  for (std::uint64_t r = record.resolved.load(); r < attempted; r = record.resolved.load())
    record.resolved.wait(r);
  record.generator_cpu_s = thread_cpu_s() - generator0;
  record.process_cpu_s = process_cpu_s() - cpu0;
  record.seconds =
      std::chrono::duration<double>(
          Clock::time_point(Clock::duration(record.last_resolved_ns.load())) - record.start)
          .count();
  record.stats_after = stack.service->stats_snapshot();
}

}  // namespace perfbench
