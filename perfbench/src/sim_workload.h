// The instrumented simulation driver shared by the sim workloads and the
// serve-tenants replay. Layers are timed from outside, around calls into
// their public functions:
//   sim.round         ClusterSimulator::StepRound(), entry to return;
//   sim.pre           StepRound() entry to Schedule() entry (faults, arrivals,
//                     view refresh);
//   schedulers.policy a forwarding Scheduler around Schedule();
//   cluster.place     Schedule() return to the SimObserver callback, which
//                     the simulator makes right after PlaceJobs;
//   sim.advance       the observer callback's end to StepRound() return
//                     (apply placements, progress, telemetry, refits).
// The observer also runs the per-round placement check in every run; the
// forwarding Scheduler and the spans exist only in traced runs.
#ifndef PERFBENCH_SRC_SIM_WORKLOAD_H_
#define PERFBENCH_SRC_SIM_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "harness.h"
#include "src/obs/metrics_registry.h"
#include "src/schedulers/scheduler.h"
#include "src/sim/simulator.h"

namespace perfbench {

// Per-layer timings gathered across every LayeredSim of one process.
struct LayerTimes {
  std::vector<double> round_ms;    // Every scheduled round (all runs).
  std::vector<double> place_ms;    // Traced runs only, like the fields below.
  std::vector<double> advance_ms;
  double pre_ms_total = 0.0;
  double policy_ms_total = 0.0;
  int64_t evicted_jobs = 0;  // Sum of PlacerResult::evicted.
};

class LayeredSim {
 public:
  // Builds Sia (the service's named-scheduler factory) and the simulator;
  // `rigid`, `metrics`, `spans` and `times` must outlive this object.
  LayeredSim(sia::ClusterSpec cluster, std::vector<sia::JobSpec> jobs, uint64_t seed,
             const RigidGpus* rigid, sia::MetricsRegistry* metrics, SpanLog* spans,
             std::string trace_id, LayerTimes* times);
  ~LayeredSim();
  LayeredSim(const LayeredSim&) = delete;
  LayeredSim& operator=(const LayeredSim&) = delete;

  sia::ClusterSimulator& sim() { return *sim_; }
  // One StepRound(), timed; returns its status.
  sia::ClusterSimulator::StepStatus Step();
  // First placement violation the observer saw ("" = none).
  const std::string& placement_error() const;
  const PlacementSample& sample() const;

 private:
  struct Marks;
  class TimedScheduler;
  class Observer;

  SpanLog* spans_;
  const std::string trace_id_;
  LayerTimes* times_;
  std::unique_ptr<Marks> marks_;
  std::unique_ptr<sia::Scheduler> scheduler_;
  std::unique_ptr<TimedScheduler> timed_;
  std::unique_ptr<Observer> observer_;
  std::unique_ptr<sia::ClusterSimulator> sim_;
};

// The simulator workloads' job mixes are fixed: the Philly trace of a fixed
// seed (made rigid, where the workload is, with that seed too). The run seed
// deals a mix out over the submission window: as many uniform arrival times
// as jobs (a Poisson process given its count), in a shuffled job order. A
// freshly drawn mix of a few hundred jobs holds a handful of the 3%
// extra-large jobs, which moved each run's load, and with it every figure,
// by up to a third between seeds.
void DealArrivals(std::vector<sia::JobSpec>* jobs, double window_hours, uint64_t seed);

// Per-layer metrics of the engine (sim, schedulers, solver, models, cluster)
// from the timings above and Sia's own registry counters, which carry wall
// times only when SimOptions::trace_timings was on. `wall_s` is the time the
// covered rounds ran in, the base of obs.span_coverage_pct.
void ReportEngineLayers(const LayerTimes& times, const sia::MetricsRegistry& registry,
                        double wall_s, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SIM_WORKLOAD_H_
