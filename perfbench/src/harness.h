// Shared pieces of the perfbench harness: clock helpers, sample statistics,
// the per-process report printed as one JSON line, and the in-memory span
// log that traced runs write out at exit.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Sec(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

// q-quantile (q in [0, 1]) by linear interpolation between order statistics;
// 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);
double Sum(const std::vector<double>& samples);
double Mean(const std::vector<double>& samples);  // 0 for an empty sample.

// Peak resident set of this process, in MB.
double PeakRssMb();

// Seed of sub-input `index` of a run, derived from the run seed (SplitMix64),
// so sub-inputs of one run are independent of each other and of other seeds.
uint64_t SubSeed(uint64_t seed, uint64_t index);

// What one workload process measured and checked.
class Report {
 public:
  // `samples` is the sample count behind a percentile (0 = not a percentile).
  void Set(const std::string& name, double value, const std::string& unit, int64_t samples = 0);
  // Records a failed output check (the run is then not correct).
  void Fail(const std::string& what);
  void Count(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return errors_.empty(); }
  std::string ToJson() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    int64_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> errors_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Spans of a traced run: name, start, end, and the span that caused it.
// Spans of one request or round share `trace`. Kept in memory; Write() dumps
// them as JSON lines when the run ends. A disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  // Returns the new span's id (0 when disabled); `parent` 0 = root.
  int64_t Add(const char* name, int64_t parent, const std::string& trace, Clock::time_point start,
              Clock::time_point end);
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t id;
    int64_t parent;
    std::string trace;
    int64_t start_ns;
    int64_t end_ns;
  };
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;  // Client threads of the serve workload share the log.
  std::vector<Span> spans_;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  std::string out_dir;  // Per-process scratch/output directory (exists).
};

// Workload entry points (sim_workload.cc, serve_workload.cc).
bool IsSimWorkload(const std::string& name);
void RunSimWorkload(const RunArgs& args, Report* report);
void RunServeWorkload(const RunArgs& args, Report* report);
// Reports 0 for every service, storage and trace-sink layer metric, for the
// workloads that do not run those layers.
void ReportIdleServiceLayers(Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
