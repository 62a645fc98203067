// The benchmark's workloads. Each builds its inputs from the seed, sets up
// and serves its index, checks the answers, and adds its metrics to the
// report (docs: ../README.md).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunBatchClustered(const Args& args, Report* report);
void RunRpcPoint(const Args& args, Report* report);
void RunMixedRw(const Args& args, Report* report);
void RunWordsEdit(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
