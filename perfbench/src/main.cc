// Repository benchmark entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--trace-out <file>] [--git-sha <sha>]
//             [--src-digest <hex>]
//
// Runs one serving workload, checks its answers, and prints as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// run.py builds this binary and is the intended way to call it.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common.h"
#include "metric/kernels/kernels.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
      have_workdir = true;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--src-digest") {
      args->src_digest = value;
    } else {
      std::cerr << "unknown argument " << key << "\n";
      return false;
    }
  }
  return have_workload && have_workdir && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir>\n";
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  if (build_type != "Release" || !optimized) {
    std::cerr << "refusing to report timings from a non-Release build ("
              << build_type << ")\n";
    return 3;
  }
  Report report;
  report.Info(std::string("meta: workload=") + args.workload +
              " seed=" + std::to_string(args.seed) +
              " seconds=" + std::to_string(args.seconds) +
              " trace=" + (args.trace ? "1" : "0") +
              " git_sha=" + (args.git_sha.empty() ? "unknown" : args.git_sha) +
              " src_digest=" +
              (args.src_digest.empty() ? "unknown" : args.src_digest) +
              " kernel_tier=" +
              mvp::metric::kernels::TierName(
                  mvp::metric::kernels::ActiveTier()) +
              " cpu=\"" + CpuModel() + "\"" +
              " nproc=" + std::to_string(std::thread::hardware_concurrency()) +
              " build_type=" + build_type);

  std::error_code ec;
  std::filesystem::remove_all(args.workdir, ec);
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::cerr << "cannot create " << args.workdir << ": " << ec.message()
              << "\n";
    return 2;
  }
  bool known = true;
  if (args.workload == "batch_clustered") {
    RunBatchClustered(args, &report);
  } else if (args.workload == "rpc_point") {
    RunRpcPoint(args, &report);
  } else if (args.workload == "mixed_rw") {
    RunMixedRw(args, &report);
  } else if (args.workload == "words_edit") {
    RunWordsEdit(args, &report);
  } else {
    known = false;
  }
  std::filesystem::remove_all(args.workdir, ec);
  if (!known) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  // The verdict travels in the result line; the exit code only says that a
  // result was printed.
  report.PrintResult(args.trace);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
