#include "checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {
namespace {

std::string JobStr(sia::JobId id) { return "job " + std::to_string(id); }

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

// results.csv rows keyed by job id (the first field), with a count per id.
struct CsvRows {
  std::string header;
  std::unordered_map<sia::JobId, std::string> row;
  std::unordered_map<sia::JobId, int> count;
  std::string error;
};

CsvRows ParseRows(const std::string& csv) {
  CsvRows rows;
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, rows.header)) {
    rows.error = "empty results file";
    return rows;
  }
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const size_t comma = line.find(',');
    sia::JobId id = -1;
    try {
      id = static_cast<sia::JobId>(std::stoll(line.substr(0, comma)));
    } catch (const std::exception&) {
      rows.error = "unparseable row '" + line + "'";
      return rows;
    }
    rows.row[id] = line;
    ++rows.count[id];
  }
  return rows;
}

}  // namespace

std::string CheckPlacement(const sia::ClusterSpec& cluster, const sia::PlacerResult& placed,
                           const RigidGpus* rigid) {
  std::vector<int> by_type(static_cast<size_t>(cluster.num_gpu_types()), 0);
  std::vector<int> by_node(static_cast<size_t>(cluster.num_nodes()), 0);
  for (const auto& [job, placement] : placed.placements) {
    const int type = placement.config.gpu_type;
    if (placement.node_ids.size() != placement.gpus_per_node.size() || type < 0 ||
        type >= cluster.num_gpu_types()) {
      return JobStr(job) + " has a malformed placement";
    }
    for (size_t i = 0; i < placement.node_ids.size(); ++i) {
      const int node = placement.node_ids[i];
      if (node < 0 || node >= cluster.num_nodes()) {
        return JobStr(job) + " placed on unknown node " + std::to_string(node);
      }
      if (!cluster.NodeUp(node)) {
        return JobStr(job) + " placed on down node " + std::to_string(node);
      }
      if (cluster.node(node).gpu_type != type) {
        return JobStr(job) + " placed on node " + std::to_string(node) + " of another GPU type";
      }
      by_node[node] += placement.gpus_per_node[i];
      by_type[type] += placement.gpus_per_node[i];
    }
    if (rigid != nullptr) {
      const auto it = rigid->find(job);
      if (it != rigid->end() && placement.total_gpus() != it->second) {
        return "rigid " + JobStr(job) + " holds " + std::to_string(placement.total_gpus()) +
               " GPUs, not its " + std::to_string(it->second);
      }
    }
  }
  for (int t = 0; t < cluster.num_gpu_types(); ++t) {
    if (by_type[t] > cluster.AvailableGpus(t)) {
      return "GPU type " + std::to_string(t) + ": " + std::to_string(by_type[t]) +
             " GPUs placed, " + std::to_string(cluster.AvailableGpus(t)) + " available";
    }
  }
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    if (by_node[n] > cluster.node(n).num_gpus) {
      return "node " + std::to_string(n) + ": " + std::to_string(by_node[n]) +
             " GPUs placed, capacity " + std::to_string(cluster.node(n).num_gpus);
    }
  }
  return "";
}

std::string CheckAllFinished(const std::vector<sia::JobId>& submitted,
                             const sia::SimResult& result) {
  std::unordered_map<sia::JobId, int> seen;
  for (const sia::JobResult& job : result.jobs) {
    if (!job.finished) {
      return JobStr(job.spec.id) + " did not finish";
    }
    if (++seen[job.spec.id] > 1) {
      return JobStr(job.spec.id) + " appears twice in the results";
    }
  }
  for (const sia::JobId id : submitted) {
    if (seen.count(id) == 0) {
      return JobStr(id) + " is missing from the results";
    }
  }
  if (seen.size() != submitted.size()) {
    return "results hold " + std::to_string(seen.size()) + " jobs, " +
           std::to_string(submitted.size()) + " were submitted";
  }
  if (!result.all_finished) {
    return "run ended with jobs pending";
  }
  return "";
}

std::string CheckSummaries(const sia::SimResult& result) {
  if (result.jobs.empty()) {
    return "no job results";
  }
  double jct_seconds = 0.0;
  double gpu_seconds = 0.0;
  double makespan_seconds = 0.0;
  for (const sia::JobResult& job : result.jobs) {
    jct_seconds += job.finish_time - job.spec.submit_time;
    gpu_seconds += job.gpu_seconds;
    makespan_seconds = std::max(makespan_seconds, job.finish_time);
  }
  const double n = static_cast<double>(result.jobs.size());
  const struct {
    const char* name;
    double recomputed;
    double reported;
  } pairs[] = {{"avg_jct_h", jct_seconds / n / 3600.0, result.AvgJctHours()},
               {"gpu_h_per_job", gpu_seconds / n / 3600.0, result.AvgGpuHoursPerJob()},
               {"makespan_h", makespan_seconds / 3600.0, result.MakespanHours()}};
  for (const auto& pair : pairs) {
    if (!Close(pair.recomputed, pair.reported)) {
      std::ostringstream msg;
      msg.precision(17);
      msg << pair.name << ": recomputed " << pair.recomputed << ", program reports "
          << pair.reported;
      return msg.str();
    }
  }
  return "";
}

std::string CheckResultsCsv(const std::string& actual_csv, const std::string& replay_csv,
                            const std::vector<sia::JobId>& submitted) {
  const CsvRows actual = ParseRows(actual_csv);
  const CsvRows replay = ParseRows(replay_csv);
  if (!actual.error.empty() || !replay.error.empty()) {
    return actual.error.empty() ? "replay: " + replay.error : actual.error;
  }
  if (actual.header != replay.header) {
    return "results header differs from the replay's";
  }
  for (const sia::JobId id : submitted) {
    const auto count = actual.count.find(id);
    if (count == actual.count.end() || count->second != 1) {
      return JobStr(id) + " appears " +
             std::to_string(count == actual.count.end() ? 0 : count->second) +
             " times in results.csv";
    }
    const auto expected = replay.row.find(id);
    if (expected == replay.row.end() || expected->second != actual.row.at(id)) {
      return JobStr(id) + ": results.csv row '" + actual.row.at(id) + "' differs from replay '" +
             (expected == replay.row.end() ? "" : expected->second) + "'";
    }
  }
  if (actual.count.size() != submitted.size()) {
    return "results.csv holds jobs that were never submitted";
  }
  return "";
}

std::vector<std::string> SelfTestSimChecks(const PlacementSample& sample, const RigidGpus* rigid,
                                           const std::vector<sia::JobId>& submitted,
                                           const sia::SimResult& result) {
  std::vector<std::string> missed;
  // A job dropped from the results.
  sia::SimResult dropped;
  dropped.all_finished = true;
  dropped.jobs = result.jobs;
  if (!dropped.jobs.empty()) {
    dropped.jobs.erase(dropped.jobs.begin() + static_cast<long>(dropped.jobs.size() / 2));
  }
  if (CheckAllFinished(submitted, dropped).empty()) {
    missed.push_back("self-test: a dropped job passed CheckAllFinished");
  }
  if (sample.placed.placements.empty()) {
    missed.push_back("self-test: no placed round to corrupt");
    return missed;
  }
  // A placement over a node's capacity.
  sia::PlacerResult over = sample.placed;
  sia::Placement& first = over.placements.begin()->second;
  first.gpus_per_node[0] = sample.cluster.node(first.node_ids[0]).num_gpus + 1;
  if (CheckPlacement(sample.cluster, over, nullptr).empty()) {
    missed.push_back("self-test: an over-capacity placement passed CheckPlacement");
  }
  // A rigid job resized (shrunk by one GPU, so capacity still holds).
  if (rigid != nullptr) {
    sia::PlacerResult resized = sample.placed;
    bool corrupted = false;
    for (auto& [job, placement] : resized.placements) {
      if (rigid->count(job) > 0 && placement.gpus_per_node.back() > 1) {
        --placement.gpus_per_node.back();
        --placement.config.num_gpus;
        corrupted = true;
        break;
      }
    }
    const std::string found = CheckPlacement(sample.cluster, resized, rigid);
    if (!corrupted || found.find("rigid") == std::string::npos) {
      missed.push_back("self-test: a resized rigid job passed CheckPlacement");
    }
  }
  return missed;
}

std::vector<std::string> SelfTestCsvCheck(const std::string& actual_csv,
                                          const std::string& replay_csv,
                                          const std::vector<sia::JobId>& submitted) {
  // Alter the JCT field of the first data row.
  std::string altered = actual_csv;
  const size_t row = altered.find('\n');
  size_t field = row;
  for (int i = 0; i < 5 && field != std::string::npos; ++i) {
    field = altered.find(',', field + 1);
  }
  if (field == std::string::npos) {
    return {"self-test: results.csv has no row to alter"};
  }
  altered.insert(field + 1, "9");
  if (CheckResultsCsv(altered, replay_csv, submitted).empty()) {
    return {"self-test: an altered results.csv row passed CheckResultsCsv"};
  }
  return {};
}

}  // namespace perfbench
