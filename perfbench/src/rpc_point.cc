// rpc_point: cheap point queries over the wire. 20k clustered 20-d vectors
// (L2-resident) in a flat 4-shard snapshot served by net::Server with a
// 2-thread query pool; two client connections each run a closed loop of one
// Client::Query at a time. Queries are indexed points drawn by seed at a
// radius calibrated for 1-2 hits, so the point itself always answers.

#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/serialize.h"
#include "dataset/vector_gen.h"
#include "flat_vectors.h"
#include "metric/kernels/kernels.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kObjects = 20000;
constexpr std::size_t kQueries = 2048;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kServerThreads = 2;
constexpr double kTargetHits = 1.5;  // the point itself plus ~0.5 others
constexpr std::size_t kScalarCheck = 256;
/// Queries each set-up answers over the wire for the determinism check.
constexpr std::size_t kWireCheck = 512;
const char* const kCollection = "bench";

struct RunningServer {
  std::unique_ptr<mvp::net::Server> server;
  std::uint16_t port = 0;
};

RunningServer StartServer(const std::string& dir) {
  mvp::net::CollectionOptions collection;
  collection.name = kCollection;
  collection.dir = dir;
  collection.metric = "l2";
  mvp::net::ServerOptions options;
  options.threads = kServerThreads;
  options.collections.push_back(collection);
  auto started = mvp::net::Server::Start(std::move(options));
  if (!started.ok()) {
    std::fprintf(stderr, "Server::Start: %s\n",
                 started.status().ToString().c_str());
    std::abort();
  }
  RunningServer running;
  running.port = started.value()->port();
  running.server = std::move(started).ValueOrDie();
  return running;
}

mvp::net::Client Connect(std::uint16_t port) {
  auto client = mvp::net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    std::fprintf(stderr, "Client::Connect: %s\n",
                 client.status().ToString().c_str());
    std::abort();
  }
  return std::move(client).ValueOrDie();
}

mvp::net::WireQuery ToWire(const VectorQuery& q) {
  mvp::net::WireQuery wire;
  wire.kind = 0;
  wire.radius = q.radius;
  wire.point = q.object;
  return wire;
}

/// The wire image of an in-process outcome, as the server builds it.
mvp::net::WireOutcome ToWire(const mvp::serve::QueryOutcome& outcome) {
  mvp::net::WireOutcome wire;
  wire.status_code = static_cast<std::uint32_t>(outcome.status.code());
  wire.status_message = outcome.status.message();
  wire.partial = outcome.partial;
  wire.latency_ns = static_cast<std::uint64_t>(outcome.latency.count());
  wire.distance_computations = outcome.distance_computations;
  wire.search = outcome.search;
  wire.neighbors = outcome.neighbors;
  return wire;
}

bool SameAsReference(const mvp::net::WireOutcome& got,
                     const mvp::serve::QueryOutcome& want) {
  return got.status_code == 0 && !got.partial &&
         got.neighbors == want.neighbors &&
         got.distance_computations == want.distance_computations &&
         got.search.distance_computations == want.search.distance_computations &&
         got.search.nodes_visited == want.search.nodes_visited &&
         got.search.leaf_points_seen == want.search.leaf_points_seen &&
         got.search.leaf_points_filtered == want.search.leaf_points_filtered;
}

/// The in-process image of a wire answer, for the outcome comparisons.
mvp::serve::QueryOutcome FromWire(mvp::net::WireOutcome wire) {
  mvp::serve::QueryOutcome outcome;
  outcome.status = wire.status();
  outcome.partial = wire.partial;
  outcome.neighbors = std::move(wire.neighbors);
  outcome.latency = std::chrono::nanoseconds(wire.latency_ns);
  outcome.distance_computations = wire.distance_computations;
  outcome.search = wire.search;
  return outcome;
}

/// One RunBatch call per query, as the server makes it: the in-process
/// reference every RPC answer must equal.
std::vector<mvp::serve::QueryOutcome> InProcessReference(
    const FlatIndex& index, const std::vector<VectorQuery>& queries) {
  std::vector<mvp::serve::QueryOutcome> out;
  out.reserve(queries.size());
  for (const VectorQuery& q : queries) {
    auto outcomes = mvp::serve::RunBatch(index, std::vector<VectorQuery>{q},
                                         nullptr);
    out.push_back(std::move(outcomes[0]));
  }
  return out;
}

/// The first `count` queries answered over one connection to `port`.
std::vector<mvp::serve::QueryOutcome> WireAnswers(
    std::uint16_t port, const std::vector<mvp::net::WireQuery>& wire,
    std::size_t count) {
  mvp::net::Client client = Connect(port);
  std::vector<mvp::serve::QueryOutcome> out;
  for (std::size_t i = 0; i < count && i < wire.size(); ++i) {
    auto outcome = client.Query(kCollection, wire[i]);
    if (outcome.ok()) {
      out.push_back(FromWire(std::move(outcome).ValueOrDie()));
    } else {
      mvp::serve::QueryOutcome failed;
      failed.status = outcome.status();
      out.push_back(std::move(failed));
    }
  }
  return out;
}

struct RpcPhase {
  Clock::time_point start;
  RequestSamples rtt;  // client round trips
  std::vector<double> server_us;  // server-reported latency, same order
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  double wall_s = 0;
};

/// kConnections client threads, each a closed loop of Client::Query over
/// its own stride of the query list, for `seconds`.
RpcPhase RunRpcPhase(std::uint16_t port,
                     const std::vector<mvp::net::WireQuery>& wire,
                     const std::vector<mvp::serve::QueryOutcome>& reference,
                     double seconds, Tracer* tracer) {
  struct PerThread {
    RequestSamples rtt;
    std::vector<double> server_us;
    std::uint64_t attempted = 0, failed = 0, mismatched = 0;
  };
  std::vector<PerThread> per(kConnections);
  std::vector<mvp::net::Client> clients;
  for (std::size_t c = 0; c < kConnections; ++c) clients.push_back(Connect(port));
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      PerThread& mine = per[c];
      mine.server_us.reserve(1 << 20);
      for (std::size_t i = c;; i += kConnections) {
        const std::size_t qi = i % wire.size();
        const Clock::time_point t0 = Clock::now();
        if (t0 >= stop) break;
        ++mine.attempted;
        ScopedSpan span(tracer, "net.query", 0, i);
        auto outcome = clients[c].Query(kCollection, wire[qi]);
        const Clock::time_point t1 = Clock::now();
        if (!outcome.ok() || outcome.value().status_code != 0) {
          ++mine.failed;
          continue;
        }
        span.set_value(outcome.value().latency_ns);
        mine.rtt.Add(MicrosBetween(start, t1) / 1e6, MicrosBetween(t0, t1));
        mine.server_us.push_back(
            static_cast<double>(outcome.value().latency_ns) / 1e3);
        if (!SameAsReference(outcome.value(), reference[qi])) ++mine.mismatched;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  RpcPhase phase;
  phase.start = start;
  phase.wall_s = SecondsSince(start);
  for (const PerThread& p : per) {
    phase.rtt.Append(p.rtt);
    phase.server_us.insert(phase.server_us.end(), p.server_us.begin(),
                           p.server_us.end());
    phase.attempted += p.attempted;
    phase.failed += p.failed;
    phase.mismatched += p.mismatched;
  }
  return phase;
}

/// Per-layer net.* metrics: client RTT minus the server-reported executor
/// latency, and the wire codec cost and bytes of this workload's messages,
/// measured on the public codec functions.
void NetLayerMetrics(Report* report, const RpcPhase& phase,
                     const std::vector<mvp::net::WireQuery>& wire,
                     const std::vector<mvp::serve::QueryOutcome>& reference) {
  std::vector<double> overhead;
  overhead.reserve(phase.rtt.us.size());
  for (std::size_t i = 0; i < phase.rtt.us.size(); ++i) {
    overhead.push_back(phase.rtt.us[i] - phase.server_us[i]);
  }
  const LatencySummary o = Summarize(overhead);
  PrintSummary(report, "net overhead (RTT - server latency)", o, "us");
  report->Layer("net.overhead_us.p50", o.p50, "us");
  report->Layer("net.overhead_us.p99", o.p99, "us");
  report->Layer("net.server_us.p50", Summarize(phase.server_us).p50, "us");

  std::vector<mvp::net::WireOutcome> outcomes;
  for (const auto& r : reference) outcomes.push_back(ToWire(r));
  double bytes = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    mvp::BinaryWriter request;
    request.Write<std::uint32_t>(
        static_cast<std::uint32_t>(mvp::net::Op::kQuery));
    request.WriteString(kCollection);
    mvp::net::EncodeQuery(wire[i], &request);
    mvp::BinaryWriter response;
    mvp::net::EncodeResponseStatus(mvp::Status::OK(), &response);
    mvp::net::EncodeOutcome(outcomes[i], &response);
    bytes += static_cast<double>(request.buffer().size() +
                                 response.buffer().size() +
                                 2 * mvp::net::kFrameHeaderBytes);
  }
  report->Layer("net.bytes_per_query", bytes / static_cast<double>(wire.size()),
                "bytes");
  const double codec_ns = NanosPerCall(wire.size(), 9, [&](std::size_t i) {
    mvp::BinaryWriter q;
    mvp::net::EncodeQuery(wire[i], &q);
    mvp::BinaryReader qr(q.buffer());
    mvp::net::WireQuery decoded_query;
    if (!mvp::net::DecodeQuery(&qr, &decoded_query).ok()) std::abort();
    mvp::BinaryWriter o;
    mvp::net::EncodeOutcome(outcomes[i], &o);
    mvp::BinaryReader orr(o.buffer());
    mvp::net::WireOutcome decoded_outcome;
    if (!mvp::net::DecodeOutcome(&orr, &decoded_outcome).ok()) std::abort();
    KeepAlive(decoded_outcome.neighbors.empty() ? 0.0 : 1.0);
  });
  report->Layer("net.codec_ns", codec_ns, "ns");
}

/// The server's per-request hand-off replayed in process through the traced
/// adapter: kConnections submitting threads, each a closed loop of 1-query
/// RunBatch calls on a kServerThreads pool. Gives the serve.* metrics of
/// the path a wire request takes behind the codec. Returns the median
/// search time in us.
double ServeReplica(Report* report, const FlatIndex& index,
                  const std::vector<VectorQuery>& queries, double seconds) {
  mvp::serve::ThreadPool pool(kServerThreads);
  Tracer tracer;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      TracedIndex<FlatIndex, Vector> traced(index, &tracer);
      std::vector<VectorQuery> one(1);
      for (std::size_t i = c; Clock::now() < stop; i += kConnections) {
        one[0] = queries[i % queries.size()];
        ScopedSpan span(&tracer, "serve.run_batch", 0, i);
        traced.SetRequest(span.id(), i);
        (void)mvp::serve::RunBatch(traced, one, &pool);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ServeLayerMetrics(report, tracer.Collect(), "serve.run_batch",
                           SecondsSince(start), kConnections + kServerThreads);
}

}  // namespace

void RunRpcPoint(const Args& args, Report* report) {
  // The whole workload runs on one vCPU. Spread over four, every request
  // woke an idle vCPU on the other side of the loopback socket, and the
  // hypervisor's wake-up delay showed as 6-26% CPU steal on an otherwise
  // idle host, with throughput flipping between ~6k and ~19k qps from run
  // to run. On one vCPU the steal read 0-1% on an idle host; what remains
  // is the host's own load (see README.md).
  const int cpu = PinToLastCpu();
  report->Info(cpu < 0 ? "could not pin the workload's threads"
                       : "every thread of the workload runs on cpu " +
                             std::to_string(cpu));
  mvp::dataset::ClusterParams params;
  params.count = kObjects;
  const auto corpus = [&params] {
    return mvp::dataset::ClusteredVectors(params, kCorpusSeed);
  };
  std::vector<VectorQuery> queries;
  std::vector<mvp::net::WireQuery> wire;
  {
    const std::vector<Vector> data = corpus();
    std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 29);
    const double radius = CalibrateL2(data, kTargetHits - 1, kObjects);
    report->Info("range radius " + std::to_string(radius) + " calibrated for " +
                 std::to_string(kTargetHits) +
                 " expected hits per indexed point");
    for (std::size_t i = 0; i < kQueries; ++i) {
      VectorQuery q;
      q.object = data[rng() % data.size()];
      q.radius = radius;
      wire.push_back(ToWire(q));
      queries.push_back(std::move(q));
    }
  }

  // The in-process reference comes from its own build of the same corpus,
  // closed before the served set-ups, so no second index sits beside the
  // server.
  std::vector<mvp::serve::QueryOutcome> reference;
  {
    const std::string dir = args.workdir + "/reference";
    SetupTimes unused;
    BuildAndSaveFlat(corpus(), dir, &unused, kCorpusSeed);
    reference = InProcessReference(OpenFlatIndex(dir), queries);
    std::filesystem::remove_all(dir);
  }
  Counters counters;
  for (const auto& r : reference) counters.Add(r);
  report->Info("counters: " + counters.ToString());

  // Set-up: build, SaveFlat, server start (which opens the snapshot),
  // connect, first answered query. Each set-up's wire answers must equal
  // the in-process reference, SearchStats included.
  SetupSteps<Vector, RunningServer> steps;
  steps.corpus = corpus;
  steps.build_and_save = [&](std::vector<Vector> objects, const std::string& dir,
                             SetupTimes* times) {
    BuildAndSaveFlat(std::move(objects), dir, times, kCorpusSeed);
  };
  steps.open = StartServer;
  steps.first_query = [&](RunningServer& running) {
    mvp::net::Client client = Connect(running.port);
    const auto first = client.Query(kCollection, wire[0]);
    return first.ok() && first.value().status_code == 0;
  };
  steps.answer = [&](RunningServer& running, int) {
    return WireAnswers(running.port, wire, kWireCheck);
  };
  SetupTimes times;
  std::optional<RunningServer> running;
  const std::string dir = RepeatSetups(args, "store", kCheapSetupReps, steps,
                                       report, &times, &running, &reference);

  // Non-degeneracy.
  std::size_t empty = 0;
  for (const auto& r : reference) {
    if (!r.status.ok()) report->Fail("reference query failed");
    if (r.neighbors.empty()) ++empty;
  }
  if (empty != 0) report->Fail(std::to_string(empty) + " queries returned nothing");
  CheckHitBand(report, "point queries", counters.PerQuery(counters.hits), 1.1,
               2.5);

  // Wire answers under the scalar kernel tier (the server runs in this
  // process, so the override reaches its leaf filter).
  {
    const std::string native =
        mvp::metric::kernels::TierName(mvp::metric::kernels::ActiveTier());
    if (!mvp::metric::kernels::ForceTier("scalar").ok()) {
      report->Fail("cannot force the scalar kernel tier");
    }
    const auto scalar = WireAnswers(running->port, wire, kScalarCheck);
    if (!mvp::metric::kernels::ForceTier(native).ok()) {
      report->Fail("cannot restore the " + native + " kernel tier");
    }
    Counters native_counters, scalar_counters;
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      native_counters.Add(reference[i]);
      scalar_counters.Add(scalar[i]);
    }
    CheckSameCounters(report, "scalar tier vs " + native + ", over the wire",
                      native_counters, scalar_counters);
    CheckSameOutcomes(report, "scalar tier", reference, scalar);
  }

  // Warm-up, then the measured phase.
  (void)RunRpcPhase(running->port, wire, reference,
                    std::min(1.0, args.seconds / 10), nullptr);
  ResetPeakRss();
  StealSampler steal;
  const RpcPhase phase =
      RunRpcPhase(running->port, wire, reference, args.seconds, nullptr);
  steal.Stop();
  times.EmitPeakRss(report, PeakRssMb());
  ReportRequests(report, "Client::Query latency", phase.rtt, phase.start,
                 phase.wall_s, 1, steal);
  // Exactness, after the measured phase, so the scan's copy of the corpus
  // never sits in the heap beside a set-up or the server.
  std::vector<Vector> sample;  // for the metric probe
  {
    const mvp::scan::LinearScan<Vector, L2> scan(corpus(), L2());
    CheckAgainstScan(report, "exactness", scan, queries, reference, 64,
                     args.seed);
    for (std::size_t i = 0; i < 4096; ++i) {
      sample.push_back(scan.object((i * 7919) % scan.size()));
    }
  }
  report->Info("queries=" + std::to_string(phase.attempted) + " wall_s=" +
               std::to_string(phase.wall_s) + " failed=" +
               std::to_string(phase.failed));
  report->CountOps(phase.attempted, phase.failed);
  if (phase.mismatched != 0) {
    report->Fail(std::to_string(phase.mismatched) +
                 " wire answers differ from in-process RunBatch");
  } else {
    report->Info("every wire answer equals in-process RunBatch, SearchStats "
                 "included");
  }
  report->EndToEnd("dist_per_query", counters.PerQuery(counters.distances),
                   "count");
  times.Emit(report, static_cast<double>(kObjects * params.dim * sizeof(double)));
  CoreLayerMetrics(report, counters);

  if (args.trace) {
    Tracer tracer;
    const RpcPhase traced =
        RunRpcPhase(running->port, wire, reference, args.seconds, &tracer);
    if (traced.failed != 0 || traced.mismatched != 0) {
      report->Fail("traced phase: failed or mismatched answers");
    }
    NetLayerMetrics(report, traced, wire, reference);
    FinishTrace(report, args, tracer, tracer.Collect(),
                Summarize(phase.rtt.us).p50, Summarize(traced.rtt.us).p50);
    const FlatIndex local = OpenFlatIndex(dir);
    const double search_p50_us =
        ServeReplica(report, local, queries, args.seconds / 2);
    const double call_ns = ProbeL2(sample, queries, report);
    report->Layer("metric.share",
                  counters.PerQuery(counters.distances) * call_ns /
                      (search_p50_us * 1e3),
                  "ratio");
  }
  running->server->Stop();
}

}  // namespace perfbench
