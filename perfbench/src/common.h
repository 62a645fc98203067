// Shared machinery of the repository benchmark: arguments, the result report,
// exact percentiles, the span tracer, the traced index adapter handed to
// serve::RunBatch, the deterministic counting pass, radius calibration and
// the exactness check against scan::LinearScan.
//
// Every measurement here is taken from outside the library: the benchmark
// times its own calls into the modules' public functions and changes no
// library code.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/query.h"
#include "scan/linear_scan.h"
#include "serve/executor.h"
#include "serve/thread_pool.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;     // scratch directory for snapshot stores and WALs
  std::string trace_out;   // where a traced run writes its spans
  std::string git_sha;     // provenance, passed in by run.py
  std::string src_digest;  // provenance, passed in by run.py
};

double PeakRssMb();
void ResetPeakRss();

/// Queries per RunBatch call in the batch workloads.
inline constexpr std::size_t kBatchSize = 16;
/// Shards of every index, fixed so that counts do not depend on the host.
inline constexpr std::size_t kShards = 4;
/// Worker threads next to the submitting thread in the batch workloads.
/// Two busy threads of the 4 vCPUs: under host contention a 4-thread load
/// drew 12-18% steal and ran 35-40% slower than on a quiet host, a 2-thread
/// load drew ~4% steal and ran ~10% slower, with a third of the spread.
inline constexpr std::size_t kBatchWorkers = 1;
/// Seed of every workload's corpus and of its trees' vantage-point choices.
/// The corpus is fixed, like a benchmark data set; --seed draws what varies
/// between runs: the queries, the held-out split and the mutation stream.
/// Run-to-run differences then reflect the program, not a new data set.
inline constexpr std::uint64_t kCorpusSeed = 1997;
/// Set-up repetitions per run; setup_s is their median. Cheap set-ups are
/// repeated more often, since host noise weighs more on short intervals.
/// A set-up builds and opens on the calling thread alone: a build over a
/// 4-worker pool ends with its slowest shard, so its time followed which
/// vCPUs the host was busy on (mixed_rw's build_s ran 0.09 s in one period
/// and 0.21 s in the next).
inline constexpr int kSetupReps = 3;
inline constexpr int kCheapSetupReps = 7;

// ---------------------------------------------------------------------------
// Report

/// Collects the run's verdict, its operation counts and its metrics, and
/// prints them: informational lines first, the result JSON object last.
class Report {
 public:
  void Info(const std::string& line);
  void Fail(const std::string& why);
  /// An end-to-end metric (printed by the untraced run).
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  /// A per-layer metric (printed by the traced run).
  void Layer(const std::string& name, double value, const std::string& unit);
  void CountOps(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Prints every declared metric of the selected set, then the result
  /// line. A per-layer metric the workload does not exercise reads 0; a
  /// missing end-to-end metric fails the run.
  void PrintResult(bool traced);

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> layer_;
};

// ---------------------------------------------------------------------------
// Exact percentiles over per-request samples

/// Nearest-rank percentile of `sorted` (ascending), q in [0, 1].
double Percentile(const std::vector<double>& sorted, double q);

struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  double max = 0;
  /// The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples
  /// beyond it, and its value.
  std::string top_label;
  double top = 0;
};

LatencySummary Summarize(std::vector<double> samples);

/// Prints "<label>: n=... p50=... p99=... <top>=..." as an info line.
void PrintSummary(Report* report, const std::string& label,
                  const LatencySummary& s, const std::string& unit);

/// Per-request latency samples of a measured phase, each with the time it
/// completed, in seconds from the phase start.
struct RequestSamples {
  std::vector<double> end_s;
  std::vector<double> us;
  void Add(double end, double latency_us) {
    end_s.push_back(end);
    us.push_back(latency_us);
  }
  void Append(const RequestSamples& other) {
    end_s.insert(end_s.end(), other.end_s.begin(), other.end_s.end());
    us.insert(us.end(), other.us.begin(), other.us.end());
  }
};

/// Samples the host's CPU accounting (/proc/stat) every kStealSampleMs
/// from a background thread, so that any interval of a measured phase can
/// be told how much CPU time the hypervisor gave to other guests (steal).
class StealSampler {
 public:
  static constexpr int kStealSampleMs = 20;
  StealSampler();
  ~StealSampler() { Stop(); }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;
  /// Stops sampling (idempotent); takes a last sample first.
  void Stop();
  /// Stolen CPU time between `a` and `b` as a share of the CPU time the
  /// guest wanted then (busy plus stolen). Idle time is left out, so the
  /// share does not depend on how many vCPUs the workload keeps busy.
  double Share(Clock::time_point a, Clock::time_point b) const;

 private:
  struct Sample {
    Clock::time_point t;
    std::uint64_t steal = 0;
    std::uint64_t wanted = 0;
  };
  static Sample Read();
  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Sets qps, p50_us (end to end) and p99_us (per layer) of a phase that
/// began at `start` and ran `wall_s` seconds. The phase is cut into
/// kWindows equal time windows. Windows in which the hypervisor stole more
/// than kStealCeiling of the wanted CPU time are left out; when fewer than
/// half the windows stay, the half with the least steal is used. qps is the
/// requests completed in the used windows over their length, and the
/// percentiles are exact over their pooled samples. The whole-phase
/// percentiles and every window's rate and steal are printed as well.
inline constexpr std::size_t kWindows = 10;
inline constexpr double kStealCeiling = 0.05;
void ReportRequests(Report* report, const std::string& label,
                    const RequestSamples& samples, Clock::time_point start,
                    double wall_s, double queries_per_request,
                    const StealSampler& steal);

/// Restricts the calling thread, and every thread it creates afterwards,
/// to the last CPU it may run on. Returns that CPU's number, or -1 when the
/// affinity could not be set.
int PinToLastCpu();

// ---------------------------------------------------------------------------
// Tracing

/// One recorded span: a named interval on the steady clock with its parent
/// span and the request it belongs to. `value` carries a count measured at
/// the same boundary (distances, bytes, server-reported nanoseconds).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span
  std::uint64_t request = 0;
  std::uint64_t value = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Keeps every span in memory until the run ends. Recording takes one
/// uncontended lock on a per-thread-hashed bucket.
class Tracer {
 public:
  Tracer();
  std::uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  void Record(const Span& span);
  /// All spans recorded so far, ordered by start. Call with recorders idle.
  std::vector<Span> Collect() const;
  /// Writes per-name aggregates (count, total, self time) and the first
  /// `max_raw` spans as JSON to `path`.
  bool WriteOut(const std::string& path, std::size_t max_raw) const;

 private:
  static constexpr std::size_t kBuckets = 16;
  struct Bucket {
    mutable std::mutex mu;
    std::vector<Span> spans;
  };
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  std::vector<Bucket> buckets_;
};

/// Records one span on destruction. A null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent,
             std::uint64_t request)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.parent = parent;
    span_.request = request;
    span_.id = tracer_->NewId();
    span_.start_ns = tracer_->Now();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = tracer_->Now();
    tracer_->Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  void set_value(std::uint64_t v) { span_.value = v; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Prints one info line per span name: count, total and self time.
void PrintSpanTable(Report* report, const std::vector<Span>& spans);

/// Index adapter handed to serve::RunBatch in traced runs. It forwards
/// PrimeBatch and the `*SearchInto` calls to the wrapped index exactly as
/// RunBatch would have made them, recording a "serve.prime" span per batch
/// and a "serve.search" span per query under the caller's request span.
template <typename Index, typename Object>
class TracedIndex {
 public:
  TracedIndex(const Index& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  /// Names the request span the next RunBatch call's spans belong to. Set
  /// by the submitting thread before RunBatch; the pool hand-off orders it
  /// before the workers read it.
  void SetRequest(std::uint64_t parent_span, std::uint64_t request) {
    parent_.store(parent_span, std::memory_order_relaxed);
    request_.store(request, std::memory_order_relaxed);
  }

  auto PrimeBatch(const std::vector<const Object*>& queries) const
    requires requires(const Index& index) { index.PrimeBatch(queries); }
  {
    ScopedSpan span(tracer_, "serve.prime", parent(), request());
    return inner_.PrimeBatch(queries);
  }

  template <typename Prime>
  void RangeSearchInto(const Object& query, double radius,
                       std::vector<mvp::Neighbor>* out,
                       mvp::SearchStats* stats, mvp::serve::ThreadPool* pool,
                       const Prime* prime) const
    requires requires(const Index& index) {
      index.RangeSearchInto(query, radius, out, stats, pool, prime);
    }
  {
    ScopedSpan span(tracer_, "serve.search", parent(), request());
    inner_.RangeSearchInto(query, radius, out, stats, pool, prime);
    span.set_value(stats != nullptr ? stats->distance_computations : 0);
  }

  template <typename Prime>
  void KnnSearchInto(const Object& query, std::size_t k,
                     std::vector<mvp::Neighbor>* out, mvp::SearchStats* stats,
                     mvp::serve::ThreadPool* pool, const Prime* prime) const
    requires requires(const Index& index) {
      index.KnnSearchInto(query, k, out, stats, pool, prime);
    }
  {
    ScopedSpan span(tracer_, "serve.search", parent(), request());
    inner_.KnnSearchInto(query, k, out, stats, pool, prime);
    span.set_value(stats != nullptr ? stats->distance_computations : 0);
  }

  // Indexes whose harvest interface takes no pool or prime (DynamicOverlay).
  void RangeSearchInto(const Object& query, double radius,
                       std::vector<mvp::Neighbor>* out,
                       mvp::SearchStats* stats) const
    requires(!requires(const Index& index, mvp::serve::ThreadPool* pool) {
      index.RangeSearchInto(query, radius, out, stats, pool);
    })
  {
    ScopedSpan span(tracer_, "serve.search", parent(), request());
    inner_.RangeSearchInto(query, radius, out, stats);
    span.set_value(stats != nullptr ? stats->distance_computations : 0);
  }

  void KnnSearchInto(const Object& query, std::size_t k,
                     std::vector<mvp::Neighbor>* out,
                     mvp::SearchStats* stats) const
    requires(!requires(const Index& index, mvp::serve::ThreadPool* pool) {
      index.KnnSearchInto(query, k, out, stats, pool);
    })
  {
    ScopedSpan span(tracer_, "serve.search", parent(), request());
    inner_.KnnSearchInto(query, k, out, stats);
    span.set_value(stats != nullptr ? stats->distance_computations : 0);
  }

 private:
  std::uint64_t parent() const { return parent_.load(std::memory_order_relaxed); }
  std::uint64_t request() const { return request_.load(std::memory_order_relaxed); }

  const Index& inner_;
  Tracer* tracer_;
  std::atomic<std::uint64_t> parent_{0};
  std::atomic<std::uint64_t> request_{0};
};

/// Ends a traced run: reports trace.overhead_pct from the median request
/// latency of the untraced and traced phases, prints the span table, and
/// writes the spans to args.trace_out.
void FinishTrace(Report* report, const Args& args, const Tracer& tracer,
                 const std::vector<Span>& spans, double untraced_p50_us,
                 double traced_p50_us);

/// Reports the per-layer serve.* metrics of a batch-shaped phase from its
/// spans: request spans named `request_name` with "serve.prime" and
/// "serve.search" children. `threads` is the number of threads that ran
/// searches over `wall_s` seconds. Returns the median search time in us.
double ServeLayerMetrics(Report* report, const std::vector<Span>& spans,
                         const char* request_name, double wall_s,
                         std::size_t threads);

// ---------------------------------------------------------------------------
// Deterministic counters

/// The exact counters of one pass over a fixed query list.
struct Counters {
  std::uint64_t queries = 0;
  std::uint64_t distances = 0;
  std::uint64_t nodes = 0;
  std::uint64_t leaf_seen = 0;
  std::uint64_t leaf_filtered = 0;
  std::uint64_t hits = 0;

  friend bool operator==(const Counters&, const Counters&) = default;
  void Add(const mvp::serve::QueryOutcome& outcome) {
    ++queries;
    distances += outcome.search.distance_computations;
    nodes += outcome.search.nodes_visited;
    leaf_seen += outcome.search.leaf_points_seen;
    leaf_filtered += outcome.search.leaf_points_filtered;
    hits += outcome.neighbors.size();
  }
  double PerQuery(std::uint64_t v) const {
    return queries == 0 ? 0.0
                        : static_cast<double>(v) / static_cast<double>(queries);
  }
  std::string ToString() const;
};

/// Fails the run when `got` differs from `want`; `what` names the pairing.
void CheckSameCounters(Report* report, const std::string& what,
                       const Counters& want, const Counters& got);

/// Reports the core.* per-layer metrics of a counting pass.
void CoreLayerMetrics(Report* report, const Counters& c);

/// One pass over the first `count` queries in kBatchSize-query RunBatch
/// calls. Returns the outcomes in query order and adds them to `counters`.
template <typename Index, typename Object>
std::vector<mvp::serve::QueryOutcome> CountingPass(
    const Index& index,
    const std::vector<mvp::serve::BatchQuery<Object>>& queries,
    std::size_t count, mvp::serve::ThreadPool* pool, Counters* counters) {
  std::vector<mvp::serve::QueryOutcome> all;
  count = std::min(count, queries.size());
  all.reserve(count);
  std::vector<mvp::serve::BatchQuery<Object>> batch;
  for (std::size_t i = 0; i < count; i += kBatchSize) {
    const std::size_t end = std::min(count, i + kBatchSize);
    batch.assign(queries.begin() + static_cast<std::ptrdiff_t>(i),
                 queries.begin() + static_cast<std::ptrdiff_t>(end));
    for (auto& outcome : mvp::serve::RunBatch(index, batch, pool)) {
      counters->Add(outcome);
      all.push_back(std::move(outcome));
    }
  }
  return all;
}

/// True when both outcomes carry the same status, neighbors and stats.
bool SameOutcome(const mvp::serve::QueryOutcome& a,
                 const mvp::serve::QueryOutcome& b);

/// Fails the run unless every outcome of `got` is OK and equal to the
/// reference outcome at the same position of `want`.
void CheckSameOutcomes(Report* report, const std::string& what,
                       const std::vector<mvp::serve::QueryOutcome>& want,
                       const std::vector<mvp::serve::QueryOutcome>& got);

/// Compares a seeded sample of `outcomes` (the answers to the first
/// outcomes.size() `queries`) against scan::LinearScan. `id_map` renames the
/// scan's ids (positions in its object list) to the served index's ids.
template <typename Object, typename Metric>
void CheckAgainstScan(Report* report, const std::string& what,
                      const mvp::scan::LinearScan<Object, Metric>& scan,
                      const std::vector<mvp::serve::BatchQuery<Object>>& queries,
                      const std::vector<mvp::serve::QueryOutcome>& outcomes,
                      std::size_t sample, std::uint64_t seed,
                      const std::function<std::size_t(std::size_t)>& id_map =
                          nullptr) {
  std::mt19937_64 rng(seed ^ 0x5ca9u);
  std::size_t mismatches = 0;
  sample = std::min(sample, outcomes.size());
  for (std::size_t s = 0; s < sample; ++s) {
    const std::size_t i = rng() % outcomes.size();
    const auto& q = queries[i];
    std::vector<mvp::Neighbor> want =
        q.kind == mvp::serve::BatchQuery<Object>::Kind::kRange
            ? scan.RangeSearch(q.object, q.radius)
            : scan.KnnSearch(q.object, q.k);
    if (id_map) {
      for (auto& n : want) n.id = id_map(n.id);
      std::sort(want.begin(), want.end(), mvp::NeighborLess);
    }
    if (!outcomes[i].status.ok() || outcomes[i].neighbors != want) ++mismatches;
  }
  if (mismatches != 0) {
    report->Fail(what + ": " + std::to_string(mismatches) + " of " +
                 std::to_string(sample) + " sampled answers differ from "
                 "scan::LinearScan");
  } else {
    report->Info(what + ": " + std::to_string(sample) +
                 " sampled answers equal scan::LinearScan");
  }
}

// ---------------------------------------------------------------------------
// Radius calibration

/// The radius at which a query is expected to find `target` of `total`
/// objects, estimated from the distances between sampled queries and
/// sampled objects (`distance(i, j)` for i < num_queries, j < num_objects).
/// `skip_zero` drops zero distances (a query that is itself indexed).
double CalibrateRadius(std::size_t num_queries, std::size_t num_objects,
                       const std::function<double(std::size_t, std::size_t)>&
                           distance,
                       double target, std::size_t total, bool skip_zero);

/// Fails the run when the mean hits per query lies outside [lo, hi].
void CheckHitBand(Report* report, const std::string& what, double mean_hits,
                  double lo, double hi);

// ---------------------------------------------------------------------------
// Set-up timing

/// Median of the set-up repetitions' timings, by phase.
struct SetupTimes {
  std::vector<double> total_s, build_s, save_s, open_ms, first_query_ms;
  std::vector<std::uint64_t> bytes;
  /// Peak resident memory of each set-up, from the build to the first
  /// answered query.
  std::vector<double> peak_rss_mb;
  /// Adds setup_s and space_amp (end to end) and the per-phase medians
  /// (per layer). `raw_bytes` is the size of the raw objects.
  void Emit(Report* report, double raw_bytes) const;
  /// Adds peak_rss_mb, the median set-up peak, and prints it beside
  /// `phase_peak_mb`, the peak of the measured phase. That one is not the
  /// metric: in every workload it stays below the set-up peak, and it holds
  /// the benchmark's own per-request samples, which grow with throughput.
  void EmitPeakRss(Report* report, double phase_peak_mb) const;
};

/// The steps of one set-up. `Served` is what answers the workload's
/// requests: an index, a running server or an overlay.
template <typename Object, typename Served>
struct SetupSteps {
  /// A fresh copy of the corpus, made before the timed interval. It is
  /// moved into the build, so the benchmark holds no second copy then.
  std::function<std::vector<Object>()> corpus;
  /// Builds an index over the corpus and commits it to a snapshot store in
  /// `dir`; records build_s, save_s and bytes.
  std::function<void(std::vector<Object>, const std::string& dir,
                     SetupTimes*)>
      build_and_save;
  /// Opens the committed store in `dir` for serving.
  std::function<Served(const std::string& dir)> open;
  /// Answers the first query; false when it fails.
  std::function<bool(Served&)> first_query;
  /// Untimed, after the set-up: answers the check queries. Set-up `rep` 0
  /// may answer more of them than the others.
  std::function<std::vector<mvp::serve::QueryOutcome>(Served&, int rep)>
      answer;
};

/// Sets up `reps` times from the same seed, each into a fresh store
/// `<workdir>/<name><rep>` after closing and removing the previous one, and
/// leaves the last set-up serving in `*served`. Each set-up's timings go to
/// `times` (setup_s is their median). When `*reference` is empty, the
/// answers of set-up 0 become the reference. The answers of every other
/// set-up must equal it, counters and SearchStats included: the same-seed
/// determinism check. Returns the store directory of the last set-up.
template <typename Object, typename Served>
std::string RepeatSetups(const Args& args, const std::string& name, int reps,
                         const SetupSteps<Object, Served>& steps,
                         Report* report, SetupTimes* times,
                         std::optional<Served>* served,
                         std::vector<mvp::serve::QueryOutcome>* reference) {
  std::string dir;
  for (int rep = 0; rep < reps; ++rep) {
    served->reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    dir = args.workdir + "/" + name + std::to_string(rep);
    std::vector<Object> objects = steps.corpus();
    ResetPeakRss();
    const Clock::time_point t0 = Clock::now();
    steps.build_and_save(std::move(objects), dir, times);
    const Clock::time_point t_open = Clock::now();
    served->emplace(steps.open(dir));
    const Clock::time_point t_ready = Clock::now();
    if (!steps.first_query(**served)) report->Fail("first query failed");
    const Clock::time_point t_first = Clock::now();
    times->open_ms.push_back(MicrosBetween(t_open, t_ready) / 1e3);
    times->first_query_ms.push_back(MicrosBetween(t_ready, t_first) / 1e3);
    times->total_s.push_back(MicrosBetween(t0, t_first) / 1e6);
    times->peak_rss_mb.push_back(PeakRssMb());

    std::vector<mvp::serve::QueryOutcome> outcomes = steps.answer(**served, rep);
    for (const auto& outcome : outcomes) {
      if (!outcome.status.ok()) report->Fail("set-up check query failed");
    }
    if (reference->empty()) {
      *reference = std::move(outcomes);
      continue;
    }
    Counters want, got;
    for (std::size_t i = 0; i < outcomes.size() && i < reference->size(); ++i) {
      want.Add((*reference)[i]);
      got.Add(outcomes[i]);
    }
    const std::string what = "set-up " + std::to_string(rep) + " vs reference";
    CheckSameCounters(report, what + ", same seed", want, got);
    CheckSameOutcomes(report, what, *reference, outcomes);
  }
  return dir;
}

// ---------------------------------------------------------------------------
// Closed-loop batch phase

struct BatchPhase {
  RequestSamples calls;  // one sample per RunBatch call
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  Clock::time_point start;
  double wall_s = 0;
};

/// Runs RunBatch calls of kBatchSize consecutive queries (cycling through
/// `queries`) back to back for `seconds`. Every outcome must be OK, and
/// those of the first reference.size() queries must equal their reference.
/// With a tracer, `index` is expected to be a TracedIndex and
/// each call is recorded as a "serve.run_batch" request span.
template <typename Index, typename Object, typename SetRequest>
BatchPhase RunBatchPhase(const Index& index,
                         const std::vector<mvp::serve::BatchQuery<Object>>& queries,
                         const std::vector<mvp::serve::QueryOutcome>& reference,
                         mvp::serve::ThreadPool* pool, double seconds,
                         Tracer* tracer, const SetRequest& set_request) {
  BatchPhase phase;
  const std::size_t num_batches = queries.size() / kBatchSize;
  std::vector<std::vector<mvp::serve::BatchQuery<Object>>> batches(num_batches);
  for (std::size_t b = 0; b < num_batches; ++b) {
    batches[b].assign(
        queries.begin() + static_cast<std::ptrdiff_t>(b * kBatchSize),
        queries.begin() + static_cast<std::ptrdiff_t>((b + 1) * kBatchSize));
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  phase.start = start;
  std::uint64_t request = 0;
  for (std::size_t b = 0;; b = (b + 1) % num_batches, ++request) {
    const Clock::time_point t0 = Clock::now();
    if (t0 >= stop) break;
    std::vector<mvp::serve::QueryOutcome> outcomes;
    {
      ScopedSpan span(tracer, "serve.run_batch", 0, request);
      set_request(span.id(), request);
      outcomes = mvp::serve::RunBatch(index, batches[b], pool);
    }
    const Clock::time_point t1 = Clock::now();
    phase.calls.Add(MicrosBetween(start, t1) / 1e6, MicrosBetween(t0, t1));
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].status.ok()) {
        ++phase.failed;
      } else if (b * kBatchSize + i < reference.size() &&
                 !SameOutcome(outcomes[i], reference[b * kBatchSize + i])) {
        ++phase.mismatched;
      }
    }
    phase.queries += outcomes.size();
  }
  phase.wall_s = SecondsSince(start);
  return phase;
}

/// Folds a closed-loop batch phase into the report: qps, per-request
/// latency percentiles, failures and answer mismatches.
void ReportBatchPhase(Report* report, const BatchPhase& phase,
                      const StealSampler& steal);

// ---------------------------------------------------------------------------
// Miscellany

/// Peak resident set size of this process since the last ResetPeakRss()
/// (or since it started), in MiB.
double PeakRssMb();
/// Returns freed heap to the system (malloc_trim) and restarts the peak
/// resident set size from the current one (Linux /proc/self/clear_refs).
/// Without it PeakRssMb() is the lifetime peak.
void ResetPeakRss();

/// Keeps the compiler from discarding a computed value in a timing loop.
inline void KeepAlive(double value) { asm volatile("" : : "r,m"(value) : "memory"); }

/// Wall-clock nanoseconds per call of `fn(i)` for i over [0, n), the median
/// of `rounds` rounds.
double NanosPerCall(std::size_t n, int rounds,
                    const std::function<void(std::size_t)>& fn);

/// Size of the committed generation's container in a snapshot store.
std::uint64_t CommittedContainerBytes(const std::string& store_dir);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
