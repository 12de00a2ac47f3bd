// Output checks run at the end of every benchmark run. Each one recomputes
// what it checks from the program's raw outputs (placements, per-job rows)
// or from an independent replay, never from a stored copy of an earlier
// run. Every check returns "" when it passes, else the first violation.
#ifndef PERFBENCH_SRC_CHECKS_H_
#define PERFBENCH_SRC_CHECKS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/cluster/cluster_spec.h"
#include "src/cluster/placer.h"
#include "src/common/job_id.h"
#include "src/sim/simulator.h"

namespace perfbench {

// Rigid GPU count per job id (the jobs MakeTunedJobs made rigid).
using RigidGpus = std::unordered_map<sia::JobId, int>;

// One round's placement as the placer returned it: placed GPUs per GPU type
// stay within the type's available GPUs, GPUs per node within the node's
// capacity, no job sits on a down node, and -- when `rigid` is non-null --
// every placed job holds exactly its rigid GPU count.
std::string CheckPlacement(const sia::ClusterSpec& cluster, const sia::PlacerResult& placed,
                           const RigidGpus* rigid);

// Every submitted job appears exactly once in `result` and finished.
std::string CheckAllFinished(const std::vector<sia::JobId>& submitted,
                             const sia::SimResult& result);

// Recomputes average JCT (finish - submit), GPU-hours per job and makespan
// from the per-job rows and compares each with the SimResult helper.
std::string CheckSummaries(const sia::SimResult& result);

// A tenant's results.csv against the rows an in-process replay produced:
// every submitted job id appears exactly once, and each row equals the
// replay's row for that id.
std::string CheckResultsCsv(const std::string& actual_csv, const std::string& replay_csv,
                            const std::vector<sia::JobId>& submitted);

// A round kept for the self-test (the one with the most GPUs placed).
struct PlacementSample {
  sia::ClusterSpec cluster;
  sia::PlacerResult placed;
  int placed_gpus = -1;
};

// Self-test: each check must fail on a result corrupted on purpose. Returns
// one message per check that let its corruption through (empty = all good).
std::vector<std::string> SelfTestSimChecks(const PlacementSample& sample, const RigidGpus* rigid,
                                           const std::vector<sia::JobId>& submitted,
                                           const sia::SimResult& result);
std::vector<std::string> SelfTestCsvCheck(const std::string& actual_csv,
                                          const std::string& replay_csv,
                                          const std::vector<sia::JobId>& submitted);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECKS_H_
