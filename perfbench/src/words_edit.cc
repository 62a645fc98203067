// words_edit: the served workload on heap traversal and a generic metric.
// 50k SyntheticWords under Levenshtein in a heap 4-shard ShardedMvpIndex,
// committed with SaveSharded and reopened with LoadSharded. Queries are
// 1-edit MutateWord variants of indexed words at radius 1, so each has at
// least one answer, run as a closed loop of 16-query RunBatch calls.

#include <random>
#include <string>
#include <vector>

#include "batch_workload.h"
#include "common.h"
#include "common/codec.h"
#include "dataset/words.h"
#include "metric/edit_distance.h"
#include "snapshot/snapshot_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mvp::metric::Levenshtein;
using WordIndex = mvp::serve::ShardedMvpIndex<std::string, Levenshtein>;
using WordQuery = mvp::serve::BatchQuery<std::string>;

constexpr std::size_t kWords = 50000;
constexpr std::size_t kQueries = 2048;

void BuildAndSaveHeap(std::vector<std::string> words, const std::string& dir,
                      SetupTimes* times) {
  WordIndex::Options options;
  options.num_shards = kShards;
  options.tree.seed = kCorpusSeed;
  const Clock::time_point t0 = Clock::now();
  std::optional<WordIndex> built =
      WordIndex::Build(std::move(words), Levenshtein(), options)
          .ValueOrDie();
  const Clock::time_point t1 = Clock::now();
  mvp::snapshot::SnapshotStore store(dir);
  const auto saved = store.SaveSharded(*built, mvp::StringCodec{});
  if (!saved.ok()) {
    std::fprintf(stderr, "SaveSharded: %s\n",
                 saved.status().ToString().c_str());
    std::abort();
  }
  built.reset();
  times->build_s.push_back(MicrosBetween(t0, t1) / 1e6);
  times->save_s.push_back(SecondsSince(t1));
  times->bytes.push_back(CommittedContainerBytes(dir));
}

WordIndex OpenHeap(const std::string& dir) {
  auto loaded = mvp::snapshot::SnapshotStore(dir).LoadSharded<std::string, Levenshtein>(
      Levenshtein(), mvp::StringCodec{});
  if (!loaded.ok()) {
    std::fprintf(stderr, "LoadSharded: %s\n",
                 loaded.status().ToString().c_str());
    std::abort();
  }
  return std::move(loaded.value().index);
}

double ProbeLevenshtein(const std::vector<std::string>& words,
                        const std::vector<WordQuery>& queries, Report* report) {
  const Levenshtein metric;
  const double call_ns = NanosPerCall(4096, 15, [&](std::size_t i) {
    KeepAlive(metric(queries[i % queries.size()].object,
                     words[(i * 7919) % words.size()]));
  });
  report->Layer("metric.call_ns", call_ns, "ns");
  return call_ns;
}

}  // namespace

void RunWordsEdit(const Args& args, Report* report) {
  BatchWorkload<std::string, Levenshtein> w;
  w.corpus = [] { return mvp::dataset::SyntheticWords(kWords, kCorpusSeed); };
  {
    const std::vector<std::string> words = w.corpus();
    std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 23);
    for (std::size_t i = 0; i < kQueries; ++i) {
      // Drawn into named values first: argument evaluation order is
      // unspecified, and the queries must be the same for a seed everywhere.
      const std::size_t source = rng() % words.size();
      const std::uint64_t mutation_seed = rng();
      WordQuery q;
      q.object = mvp::dataset::MutateWord(words[source], 1, mutation_seed);
      q.radius = 1;  // one edit: the source word is always an answer
      w.queries.push_back(std::move(q));
    }
    for (const std::string& word : words) {
      w.raw_bytes += static_cast<double>(word.size());
    }
  }
  report->Info("range radius 1 (one edit); every query has its source word "
               "within it");
  w.build_and_save = BuildAndSaveHeap;
  w.open = OpenHeap;
  w.setup_reps = kCheapSetupReps;
  w.num_reference = kQueries;
  w.num_check = 512;
  w.hits_lo = 1;
  w.hits_hi = 10;
  w.require_answer = true;
  w.probe_metric = ProbeLevenshtein;
  ServeBatchWorkload(args, report, std::move(w));
}

}  // namespace perfbench
