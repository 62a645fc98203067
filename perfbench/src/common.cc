#include "common.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <span>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "snapshot/snapshot_store.h"

namespace perfbench {

namespace {

std::string Number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-name self time: each span's duration minus the part of it that its
/// children cover (children may run in parallel; their union is taken).
std::map<std::string, double> SelfMicrosByName(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::map<std::string, double> self;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      intervals.clear();
      for (const std::size_t c : it->second) {
        const std::int64_t a = std::max(spans[c].start_ns, s.start_ns);
        const std::int64_t b = std::min(spans[c].end_ns, s.end_ns);
        if (b > a) intervals.emplace_back(a, b);
      }
      std::sort(intervals.begin(), intervals.end());
      std::int64_t cur_a = 0, cur_b = -1;
      for (const auto& [a, b] : intervals) {
        if (a > cur_b) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3;
  }
  return self;
}

}  // namespace

// ---- Report ---------------------------------------------------------------

void Report::Info(const std::string& line) {
  std::cout << line << "\n" << std::flush;
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::cout << "FAIL: " << why << "\n" << std::flush;
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_[name] = Metric{value, unit};
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_[name] = Metric{value, unit};
}

namespace {

// The metric sets BENCHMARK.json declares, in the order they are printed.
const std::pair<const char*, const char*> kEndToEnd[] = {
    {"qps", "1/s"},         {"p50_us", "us"},         {"setup_s", "s"},
    {"dist_per_query", "count"}, {"peak_rss_mb", "MiB"}, {"space_amp", "ratio"},
};

const std::pair<const char*, const char*> kPerLayer[] = {
    {"p99_us", "us"},
    {"metric.call_ns", "ns"},
    {"metric.share", "ratio"},
    {"metric.kernel_ns", "ns"},
    {"serve.prime_us", "us"},
    {"serve.search_us.p50", "us"},
    {"serve.search_us.p99", "us"},
    {"serve.queue_wait_us.p50", "us"},
    {"serve.queue_wait_us.p99", "us"},
    {"serve.finish_us.p50", "us"},
    {"serve.busy_ratio", "ratio"},
    {"serve.straggler_ratio", "ratio"},
    {"core.nodes_per_query", "count"},
    {"core.leaf_seen_per_query", "count"},
    {"core.leaf_filter_ratio", "ratio"},
    {"core.hits_per_kdist", "count"},
    {"core.build_s", "s"},
    {"snapshot.save_s", "s"},
    {"snapshot.open_ms", "ms"},
    {"snapshot.first_query_ms", "ms"},
    {"snapshot.bytes", "bytes"},
    {"net.overhead_us.p50", "us"},
    {"net.overhead_us.p99", "us"},
    {"net.server_us.p50", "us"},
    {"net.codec_ns", "ns"},
    {"net.bytes_per_query", "bytes"},
    {"dynamic.read_call_us.p50", "us"},
    {"dynamic.read_call_us.p99", "us"},
    {"dynamic.insert_call_us.p50", "us"},
    {"dynamic.insert_call_us.p99", "us"},
    {"dynamic.checkpoint_ms.p50", "ms"},
    {"dynamic.checkpoint_ms.max", "ms"},
    {"dynamic.memtable_objects", "count"},
    {"wal.records_per_sync", "count"},
    {"wal.bytes_per_record", "bytes"},
    {"wal.syncs_per_s", "1/s"},
    {"gen.late_us.p99", "us"},
    {"insert_p50_us", "us"},
    {"insert_p99_us", "us"},
    {"fail_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
};

}  // namespace

void Report::PrintResult(bool traced) {
  Layer("fail_ratio",
        attempted_ == 0 ? 0.0
                        : static_cast<double>(failed_) /
                              static_cast<double>(attempted_),
        "ratio");
  using Declared = std::span<const std::pair<const char*, const char*>>;
  const Declared declared = traced ? Declared(kPerLayer) : Declared(kEndToEnd);
  const auto& measured = traced ? layer_ : end_to_end_;
  std::vector<double> values;
  for (const auto& [name, unit] : declared) {
    const auto it = measured.find(name);
    if (it == measured.end()) {
      // Only end-to-end metrics are required of every workload.
      if (!traced) Fail(std::string("metric not measured: ") + name);
      values.push_back(0.0);
      continue;
    }
    if (it->second.unit != unit) Fail(std::string("unit mismatch: ") + name);
    values.push_back(it->second.value);
  }
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < declared.size(); ++i) {
    const auto& [name, unit] = declared[i];
    const bool absent = measured.find(name) == measured.end();
    std::cout << (traced ? "layer  " : "e2e    ") << name << " = "
              << Number(values[i]) << " " << unit
              << (absent ? "  (layer not on this workload's path)" : "")
              << "\n";
    out << (i == 0 ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << Number(values[i]) << ", \"unit\": \"" << unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << "\n" << std::flush;
}

// ---- percentiles ----------------------------------------------------------

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = Percentile(samples, 0.50);
  s.p99 = Percentile(samples, 0.99);
  s.max = samples.back();
  static const std::pair<double, const char*> kLevels[] = {
      {0.9999, "p99.99"}, {0.999, "p99.9"}, {0.99, "p99"},
      {0.9, "p90"},       {0.5, "p50"}};
  s.top_label = "max";
  s.top = s.max;
  for (const auto& [q, label] : kLevels) {
    if (static_cast<double>(s.count) * (1.0 - q) >= 10.0) {
      s.top_label = label;
      s.top = Percentile(samples, q);
      break;
    }
  }
  return s;
}

void PrintSummary(Report* report, const std::string& label,
                  const LatencySummary& s, const std::string& unit) {
  report->Info(label + ": n=" + std::to_string(s.count) + " p50=" +
               Fixed(s.p50, 1) + unit + " p99=" + Fixed(s.p99, 1) + unit +
               " " + s.top_label + "=" + Fixed(s.top, 1) + unit +
               " (highest percentile with >=10 samples beyond it) max=" +
               Fixed(s.max, 1) + unit);
}

// ---- tracing --------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()), buckets_(kBuckets) {}

void Tracer::Record(const Span& span) {
  const std::size_t b =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kBuckets;
  std::lock_guard<std::mutex> lock(buckets_[b].mu);
  buckets_[b].spans.push_back(span);
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> all;
  for (const Bucket& b : buckets_) {
    std::lock_guard<std::mutex> lock(b.mu);
    all.insert(all.end(), b.spans.begin(), b.spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

namespace {

struct NameTotals {
  std::size_t count = 0;
  double total_us = 0;
};

std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans) {
  std::map<std::string, NameTotals> totals;
  for (const Span& s : spans) {
    NameTotals& t = totals[s.name];
    ++t.count;
    t.total_us += s.micros();
  }
  return totals;
}

}  // namespace

void PrintSpanTable(Report* report, const std::vector<Span>& spans) {
  const auto totals = TotalsByName(spans);
  const auto self = SelfMicrosByName(spans);
  for (const auto& [name, t] : totals) {
    const double self_us = self.count(name) != 0 ? self.at(name) : 0.0;
    report->Info("span " + name + ": count=" + std::to_string(t.count) +
                 " total_ms=" + Fixed(t.total_us / 1e3, 1) + " self_ms=" +
                 Fixed(self_us / 1e3, 1) + " mean_us=" +
                 Fixed(t.total_us / static_cast<double>(t.count), 2));
  }
}

bool Tracer::WriteOut(const std::string& path, std::size_t max_raw) const {
  const std::vector<Span> spans = Collect();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const auto totals = TotalsByName(spans);
  const auto self = SelfMicrosByName(spans);
  out << "{\"span_count\": " << spans.size() << ",\n \"by_name\": {";
  bool first = true;
  for (const auto& [name, t] : totals) {
    out << (first ? "" : ",") << "\n  \"" << name << "\": {\"count\": "
        << t.count << ", \"total_us\": " << Number(t.total_us)
        << ", \"self_us\": " << Number(self.count(name) ? self.at(name) : 0.0)
        << "}";
    first = false;
  }
  out << "},\n \"spans\": [";
  for (std::size_t i = 0; i < spans.size() && i < max_raw; ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",") << "\n  {\"name\": \"" << s.name
        << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"value\": " << s.value << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void FinishTrace(Report* report, const Args& args, const Tracer& tracer,
                 const std::vector<Span>& spans, double untraced_p50_us,
                 double traced_p50_us) {
  report->Layer("trace.overhead_pct",
                100.0 * (traced_p50_us - untraced_p50_us) / untraced_p50_us,
                "%");
  report->Info("tracing overhead: median request " + Fixed(untraced_p50_us, 1) +
               "us untraced vs " + Fixed(traced_p50_us, 1) + "us traced");
  PrintSpanTable(report, spans);
  if (!args.trace_out.empty() && !tracer.WriteOut(args.trace_out, 20000)) {
    report->Info("could not write spans to " + args.trace_out);
  }
}

double ServeLayerMetrics(Report* report, const std::vector<Span>& spans,
                         const char* request_name, double wall_s,
                         std::size_t threads) {
  std::unordered_map<std::uint64_t, std::size_t> request_index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) == request_name) {
      request_index[spans[i].id] = i;
    }
  }
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> searches;
  std::vector<double> search_us, prime_us, queue_us, finish_us, straggler;
  double busy_us = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string_view name(s.name);
    if (name == "serve.search") {
      search_us.push_back(s.micros());
      busy_us += s.micros();
      searches[s.parent].push_back(i);
    } else if (name == "serve.prime") {
      prime_us.push_back(s.micros());
    }
  }
  for (const auto& [request_id, children] : searches) {
    const auto it = request_index.find(request_id);
    if (it == request_index.end()) continue;
    const Span& request = spans[it->second];
    std::int64_t last_end = request.start_ns;
    std::vector<double> durations;
    for (const std::size_t c : children) {
      queue_us.push_back(
          static_cast<double>(spans[c].start_ns - request.start_ns) / 1e3);
      last_end = std::max(last_end, spans[c].end_ns);
      durations.push_back(spans[c].micros());
    }
    finish_us.push_back(static_cast<double>(request.end_ns - last_end) / 1e3);
    const double median = Median(durations);
    if (median > 0) {
      straggler.push_back(
          *std::max_element(durations.begin(), durations.end()) / median);
    }
  }
  const LatencySummary search = Summarize(search_us);
  const LatencySummary queue = Summarize(queue_us);
  PrintSummary(report, "serve.search", search, "us");
  PrintSummary(report, "serve.queue_wait", queue, "us");
  report->Layer("serve.search_us.p50", search.p50, "us");
  report->Layer("serve.search_us.p99", search.p99, "us");
  report->Layer("serve.prime_us", Summarize(prime_us).p50, "us");
  report->Layer("serve.queue_wait_us.p50", queue.p50, "us");
  report->Layer("serve.queue_wait_us.p99", queue.p99, "us");
  report->Layer("serve.finish_us.p50", Summarize(finish_us).p50, "us");
  report->Layer("serve.busy_ratio",
                wall_s > 0 ? busy_us / (wall_s * 1e6 *
                                        static_cast<double>(threads))
                           : 0.0,
                "ratio");
  double straggler_mean = 0;
  for (const double v : straggler) straggler_mean += v;
  if (!straggler.empty()) straggler_mean /= static_cast<double>(straggler.size());
  report->Layer("serve.straggler_ratio", straggler_mean, "ratio");
  return search.p50;
}

// ---- counters -------------------------------------------------------------

std::string Counters::ToString() const {
  return "queries=" + std::to_string(queries) +
         " distances=" + std::to_string(distances) +
         " nodes=" + std::to_string(nodes) +
         " leaf_seen=" + std::to_string(leaf_seen) +
         " leaf_filtered=" + std::to_string(leaf_filtered) +
         " hits=" + std::to_string(hits);
}

void CheckSameCounters(Report* report, const std::string& what,
                       const Counters& want, const Counters& got) {
  if (want == got) {
    report->Info("counter self-check (" + what + "): identical");
  } else {
    report->Fail("counter self-check (" + what + "): " + want.ToString() +
                 " vs " + got.ToString());
  }
}

void CoreLayerMetrics(Report* report, const Counters& c) {
  report->Layer("core.nodes_per_query", c.PerQuery(c.nodes), "count");
  report->Layer("core.leaf_seen_per_query", c.PerQuery(c.leaf_seen), "count");
  report->Layer("core.leaf_filter_ratio",
                c.leaf_seen == 0 ? 0.0
                                 : static_cast<double>(c.leaf_filtered) /
                                       static_cast<double>(c.leaf_seen),
                "ratio");
  report->Layer("core.hits_per_kdist",
                c.distances == 0 ? 0.0
                                 : 1000.0 * static_cast<double>(c.hits) /
                                       static_cast<double>(c.distances),
                "count");
}

bool SameOutcome(const mvp::serve::QueryOutcome& a,
                 const mvp::serve::QueryOutcome& b) {
  return a.status.code() == b.status.code() && a.partial == b.partial &&
         a.neighbors == b.neighbors &&
         a.distance_computations == b.distance_computations &&
         a.search.distance_computations == b.search.distance_computations &&
         a.search.nodes_visited == b.search.nodes_visited &&
         a.search.leaf_points_seen == b.search.leaf_points_seen &&
         a.search.leaf_points_filtered == b.search.leaf_points_filtered;
}

void CheckSameOutcomes(Report* report, const std::string& what,
                       const std::vector<mvp::serve::QueryOutcome>& want,
                       const std::vector<mvp::serve::QueryOutcome>& got) {
  std::size_t bad = want.size() >= got.size() ? 0 : got.size();
  for (std::size_t i = 0; i < want.size() && i < got.size(); ++i) {
    if (!got[i].status.ok() || !SameOutcome(want[i], got[i])) ++bad;
  }
  if (bad != 0) {
    report->Fail(what + ": " + std::to_string(bad) + " of " +
                 std::to_string(got.size()) + " outcomes differ");
  }
}

// ---- calibration ----------------------------------------------------------

double CalibrateRadius(std::size_t num_queries, std::size_t num_objects,
                       const std::function<double(std::size_t, std::size_t)>&
                           distance,
                       double target, std::size_t total, bool skip_zero) {
  std::vector<double> d;
  d.reserve(num_queries * num_objects);
  for (std::size_t i = 0; i < num_queries; ++i) {
    for (std::size_t j = 0; j < num_objects; ++j) {
      const double v = distance(i, j);
      if (skip_zero && v == 0.0) continue;
      d.push_back(v);
    }
  }
  std::sort(d.begin(), d.end());
  if (d.empty()) return 0.0;
  // The share of pairs within the radius equals the expected share of the
  // collection a query finds.
  const double share = target / static_cast<double>(total);
  return Percentile(d, share);
}

void CheckHitBand(Report* report, const std::string& what, double mean_hits,
                  double lo, double hi) {
  const std::string line = what + ": mean hits per query " +
                           Fixed(mean_hits, 3) + " (target band [" +
                           Fixed(lo, 1) + ", " + Fixed(hi, 1) + "])";
  if (mean_hits < lo || mean_hits > hi) {
    report->Fail(line);
  } else {
    report->Info(line);
  }
}

// ---- set-up ---------------------------------------------------------------

void SetupTimes::Emit(Report* report, double raw_bytes) const {
  std::vector<double> b(bytes.begin(), bytes.end());
  report->Info("setup: reps=" + std::to_string(total_s.size()) +
               " median_s=" + Fixed(Median(total_s), 3) + " build_s=" +
               Fixed(Median(build_s), 3) + " save_s=" +
               Fixed(Median(save_s), 3) + " open_ms=" +
               Fixed(Median(open_ms), 2) + " first_query_ms=" +
               Fixed(Median(first_query_ms), 2));
  for (std::size_t i = 1; i < bytes.size(); ++i) {
    if (bytes[i] != bytes[0]) {
      report->Fail("snapshot.bytes differs between set-ups of one seed: " +
                   std::to_string(bytes[0]) + " vs " +
                   std::to_string(bytes[i]));
    }
  }
  report->EndToEnd("setup_s", Median(total_s), "s");
  report->EndToEnd("space_amp", Median(b) / raw_bytes, "ratio");
  report->Layer("core.build_s", Median(build_s), "s");
  report->Layer("snapshot.save_s", Median(save_s), "s");
  report->Layer("snapshot.open_ms", Median(open_ms), "ms");
  report->Layer("snapshot.first_query_ms", Median(first_query_ms), "ms");
  report->Layer("snapshot.bytes", Median(b), "bytes");
}

void SetupTimes::EmitPeakRss(Report* report, double phase_peak_mb) const {
  const double setup_peak = Median(peak_rss_mb);
  report->Info("peak resident memory: set-up median " + Fixed(setup_peak, 1) +
               " MiB, measured phase " + Fixed(phase_peak_mb, 1) + " MiB");
  report->EndToEnd("peak_rss_mb", setup_peak, "MiB");
}

// ---- batch phase ----------------------------------------------------------

void ReportBatchPhase(Report* report, const BatchPhase& phase,
                      const StealSampler& steal) {
  ReportRequests(report, "RunBatch call latency", phase.calls, phase.start,
                 phase.wall_s, static_cast<double>(kBatchSize), steal);
  report->Info("queries=" + std::to_string(phase.queries) + " wall_s=" +
               Fixed(phase.wall_s, 3) + " failed=" +
               std::to_string(phase.failed));
  report->CountOps(phase.queries, phase.failed);
  if (phase.mismatched != 0) {
    report->Fail(std::to_string(phase.mismatched) +
                 " served answers differ from the reference pass");
  }
}

void ReportRequests(Report* report, const std::string& label,
                    const RequestSamples& samples, Clock::time_point start,
                    double wall_s, double queries_per_request,
                    const StealSampler& steal) {
  PrintSummary(report, label + " (whole phase)", Summarize(samples.us), "us");
  const double width = wall_s / static_cast<double>(kWindows);
  std::vector<std::vector<double>> per(kWindows);
  for (std::size_t i = 0; i < samples.us.size(); ++i) {
    const auto w = static_cast<std::size_t>(samples.end_s[i] / width);
    per[std::min(w, kWindows - 1)].push_back(samples.us[i]);
  }
  const auto edge = [&](std::size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           width * static_cast<double>(k)));
  };
  std::vector<double> stolen(kWindows);
  std::vector<std::size_t> order(kWindows);
  for (std::size_t w = 0; w < kWindows; ++w) {
    stolen[w] = steal.Share(edge(w), edge(w + 1));
    order[w] = w;
  }
  std::vector<bool> used(kWindows);
  std::size_t num_used = 0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    used[w] = stolen[w] <= kStealCeiling;
    num_used += used[w] ? 1 : 0;
  }
  if (num_used < kWindows / 2) {
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return stolen[a] < stolen[b];
    });
    for (std::size_t k = 0; k < kWindows; ++k) used[order[k]] = k < kWindows / 2;
    num_used = kWindows / 2;
  }
  std::vector<double> pooled;
  std::string line = label + ": " + std::to_string(num_used) + " of " +
                     std::to_string(kWindows) + " windows of " +
                     Fixed(width, 2) + "s used (qps/steal%, * = used):";
  for (std::size_t w = 0; w < kWindows; ++w) {
    const double rate =
        static_cast<double>(per[w].size()) * queries_per_request / width;
    line += " ";
    line += Fixed(rate, 0) + "/" + Fixed(100 * stolen[w], 1);
    if (used[w]) line += "*";
    if (used[w]) pooled.insert(pooled.end(), per[w].begin(), per[w].end());
  }
  report->Info(line);
  report->Info("cpu steal during the measured phase: " +
               Fixed(100 * steal.Share(start, edge(kWindows)), 2) +
               "% of the wanted CPU time");
  const LatencySummary s = Summarize(std::move(pooled));
  report->EndToEnd("qps",
                   static_cast<double>(s.count) * queries_per_request /
                       (width * static_cast<double>(num_used)),
                   "1/s");
  report->EndToEnd("p50_us", s.p50, "us");
  // Reported with the per-layer set: under host CPU steal of a few percent
  // it moved 2x between runs, too far to gate on.
  report->Layer("p99_us", s.p99, "us");
}

StealSampler::StealSampler() {
  samples_.push_back(Read());
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kStealSampleMs));
      const Sample sample = Read();
      std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back(sample);
    }
  });
}

void StealSampler::Stop() {
  if (stop_.exchange(true)) return;
  thread_.join();
  const Sample sample = Read();
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(sample);
}

StealSampler::Sample StealSampler::Read() {
  // The aggregate line: user nice system idle iowait irq softirq steal.
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  Sample sample;
  sample.t = Clock::now();
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    if (field == 3 || field == 4) continue;  // idle, iowait
    sample.wanted += v;
    if (field == 7) sample.steal = v;
  }
  return sample;
}

double StealSampler::Share(Clock::time_point a, Clock::time_point b) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < 2) return 0.0;
  // The last sample at or before `a` and the first at or after `b`.
  const auto later = [](const Sample& s, Clock::time_point t) { return s.t < t; };
  auto hi = std::lower_bound(samples_.begin(), samples_.end(), b, later);
  if (hi == samples_.end()) --hi;
  auto lo = std::lower_bound(samples_.begin(), samples_.end(), a, later);
  if (lo != samples_.begin() && (lo == samples_.end() || lo->t > a)) --lo;
  if (hi->wanted <= lo->wanted) return 0.0;
  return static_cast<double>(hi->steal - lo->steal) /
         static_cast<double>(hi->wanted - lo->wanted);
}

int PinToLastCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    CPU_SET(cpu, &chosen);
    return sched_setaffinity(0, sizeof(chosen), &chosen) == 0 ? cpu : -1;
  }
  return -1;
}

// ---- miscellany -----------------------------------------------------------

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void ResetPeakRss() {
  // Hand freed heap back first, so the peak counts live memory rather than
  // what the allocator kept from earlier set-ups or corpus generation.
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double NanosPerCall(std::size_t n, int rounds,
                    const std::function<void(std::size_t)>& fn) {
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    per_call.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(n));
  }
  return Median(per_call);
}

std::uint64_t CommittedContainerBytes(const std::string& store_dir) {
  mvp::snapshot::SnapshotStore store(store_dir);
  const auto gen = store.CurrentGeneration();
  if (!gen.ok()) return 0;
  std::error_code ec;
  const auto size = std::filesystem::file_size(
      store.GenerationDir(gen.value()) + "/" +
          mvp::snapshot::SnapshotStore::kContainerFile,
      ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

}  // namespace perfbench
