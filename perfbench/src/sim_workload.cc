#include "sim_workload.h"

#include <algorithm>
#include <utility>

#include "src/cluster/cluster_spec.h"
#include "src/common/rng.h"
#include "src/obs/metrics_registry.h"
#include "src/service/engine.h"
#include "src/workload/trace_gen.h"

namespace perfbench {

// Clock marks one round leaves behind for Step() to turn into spans.
struct LayeredSim::Marks {
  Clock::time_point policy_start;
  Clock::time_point policy_end;
  Clock::time_point check_start;
  Clock::time_point check_end;
  bool observed = false;
};

class LayeredSim::TimedScheduler : public sia::Scheduler {
 public:
  TimedScheduler(sia::Scheduler* inner, Marks* marks) : inner_(inner), marks_(marks) {}

  std::string name() const override { return inner_->name(); }
  double round_duration_seconds() const override { return inner_->round_duration_seconds(); }
  sia::ScheduleOutput Schedule(const sia::ScheduleInput& input) override {
    marks_->policy_start = Clock::now();
    sia::ScheduleOutput output = inner_->Schedule(input);
    marks_->policy_end = Clock::now();
    return output;
  }
  void SaveState(sia::BinaryWriter& w) const override { inner_->SaveState(w); }
  bool RestoreState(sia::BinaryReader& r) override { return inner_->RestoreState(r); }

 private:
  sia::Scheduler* inner_;
  Marks* marks_;
};

class LayeredSim::Observer : public sia::SimObserver {
 public:
  Observer(const RigidGpus* rigid, Marks* marks, LayerTimes* times)
      : rigid_(rigid), marks_(marks), times_(times) {}

  void OnRoundScheduled(const sia::RoundObservation& observation) override {
    marks_->check_start = Clock::now();
    marks_->observed = true;
    const sia::PlacerResult& placed = *observation.placed;
    times_->evicted_jobs += static_cast<int64_t>(placed.evicted.size());
    if (error_.empty()) {
      const std::string error = CheckPlacement(*observation.cluster, placed, rigid_);
      if (!error.empty()) {
        error_ = "round " + std::to_string(observation.round_index) + ": " + error;
      }
    }
    int gpus = 0;
    for (const auto& [job, placement] : placed.placements) {
      gpus += placement.total_gpus();
    }
    if (gpus > sample_.placed_gpus) {
      sample_.cluster = *observation.cluster;
      sample_.placed = placed;
      sample_.placed_gpus = gpus;
    }
    marks_->check_end = Clock::now();
  }

  const std::string& error() const { return error_; }
  const PlacementSample& sample() const { return sample_; }

 private:
  const RigidGpus* rigid_;
  Marks* marks_;
  LayerTimes* times_;
  std::string error_;
  PlacementSample sample_;
};

LayeredSim::LayeredSim(sia::ClusterSpec cluster, std::vector<sia::JobSpec> jobs, uint64_t seed,
                       const RigidGpus* rigid, sia::MetricsRegistry* metrics, SpanLog* spans,
                       std::string trace_id, LayerTimes* times)
    : spans_(spans),
      trace_id_(std::move(trace_id)),
      times_(times),
      marks_(std::make_unique<Marks>()),
      scheduler_(sia::MakeNamedScheduler("sia")) {
  sia::Scheduler* policy = scheduler_.get();
  if (spans_->enabled()) {
    timed_ = std::make_unique<TimedScheduler>(policy, marks_.get());
    policy = timed_.get();
  }
  observer_ = std::make_unique<Observer>(rigid, marks_.get(), times_);
  sia::SimOptions options;
  options.seed = seed;
  options.metrics = metrics;
  options.trace_timings = spans_->enabled();
  options.observer = observer_.get();
  sim_ = std::make_unique<sia::ClusterSimulator>(std::move(cluster), std::move(jobs), policy,
                                                 options);
}

LayeredSim::~LayeredSim() = default;

const std::string& LayeredSim::placement_error() const { return observer_->error(); }

const PlacementSample& LayeredSim::sample() const { return observer_->sample(); }

sia::ClusterSimulator::StepStatus LayeredSim::Step() {
  marks_->observed = false;
  const Clock::time_point start = Clock::now();
  const sia::ClusterSimulator::StepStatus status = sim_->StepRound();
  const Clock::time_point end = Clock::now();
  if (status != sia::ClusterSimulator::StepStatus::kRoundScheduled) {
    return status;
  }
  times_->round_ms.push_back(Ms(end - start));
  if (!spans_->enabled() || !marks_->observed) {
    return status;
  }
  const Marks& m = *marks_;
  times_->pre_ms_total += Ms(m.policy_start - start);
  times_->policy_ms_total += Ms(m.policy_end - m.policy_start);
  times_->place_ms.push_back(Ms(m.check_start - m.policy_end));
  times_->advance_ms.push_back(Ms(end - m.check_end));
  const int64_t round = spans_->Add("sim.round", 0, trace_id_, start, end);
  spans_->Add("sim.pre", round, trace_id_, start, m.policy_start);
  spans_->Add("schedulers.policy", round, trace_id_, m.policy_start, m.policy_end);
  spans_->Add("cluster.place", round, trace_id_, m.policy_end, m.check_start);
  spans_->Add("bench.check", round, trace_id_, m.check_start, m.check_end);
  spans_->Add("sim.advance", round, trace_id_, m.check_end, end);
  return status;
}

void DealArrivals(std::vector<sia::JobSpec>* jobs, double window_hours, uint64_t seed) {
  sia::Rng rng(seed);
  std::vector<double> arrivals;
  for (size_t i = 0; i < jobs->size(); ++i) {
    arrivals.push_back(rng.Uniform(0.0, window_hours * 3600.0));
  }
  std::sort(arrivals.begin(), arrivals.end());
  for (size_t i = jobs->size(); i > 1; --i) {
    std::swap((*jobs)[i - 1],
              (*jobs)[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
  for (size_t i = 0; i < jobs->size(); ++i) {
    (*jobs)[i].submit_time = arrivals[i];
  }
}

void ReportEngineLayers(const LayerTimes& times, const sia::MetricsRegistry& registry,
                        double wall_s, Report* report) {
  const auto ns_to_ms = [&registry](const char* name) {
    return static_cast<double>(registry.counter_value(name)) / 1e6;
  };
  const auto count = [&registry](const char* name) {
    return static_cast<double>(registry.counter_value(name));
  };
  const int64_t rounds = static_cast<int64_t>(times.round_ms.size());
  report->Set("sim.rounds", static_cast<double>(rounds), "count");
  report->Set("sim.round_ms_p50", Quantile(times.round_ms, 0.5), "ms", rounds);
  report->Set("sim.round_ms_p95", Quantile(times.round_ms, 0.95), "ms", rounds);
  report->Set("sim.pre_ms_total", times.pre_ms_total, "ms");
  report->Set("sim.advance_ms_total", Sum(times.advance_ms), "ms");
  report->Set("sim.advance_ms_p95", Quantile(times.advance_ms, 0.95), "ms",
              static_cast<int64_t>(times.advance_ms.size()));
  report->Set("schedulers.policy_ms_total", times.policy_ms_total, "ms");
  report->Set("cluster.place_ms_total", Sum(times.place_ms), "ms");
  report->Set("cluster.place_ms_p95", Quantile(times.place_ms, 0.95), "ms",
              static_cast<int64_t>(times.place_ms.size()));
  report->Set("cluster.evicted_jobs", static_cast<double>(times.evicted_jobs), "count");
  const double covered =
      times.pre_ms_total + times.policy_ms_total + Sum(times.place_ms) + Sum(times.advance_ms);
  report->Set("obs.span_coverage_pct", wall_s > 0.0 ? 100.0 * covered / (wall_s * 1e3) : 0.0,
              "%");

  const double hits = count("sia.candidate_cache_hits");
  const double misses = count("sia.candidate_cache_misses");
  report->Set("schedulers.candidate_gen_ms_total", ns_to_ms("sia.candidate_gen_wall_ns"), "ms");
  report->Set("schedulers.cache_hits", hits, "count");
  report->Set("schedulers.cache_misses", misses, "count");
  report->Set("schedulers.cache_hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
              "ratio");
  report->Set("schedulers.lp_build_ms_total", ns_to_ms("sia.lp_build_wall_ns"), "ms");
  report->Set("schedulers.ilp_variables", count("scheduler.ilp_variables"), "count");
  report->Set("schedulers.decode_ms_total", ns_to_ms("sia.placement_wall_ns"), "ms");
  report->Set("schedulers.greedy_fallbacks", count("scheduler.greedy_fallbacks"), "count");
  report->Set("solver.solve_ms_total", ns_to_ms("sia.solve_wall_ns"), "ms");
  for (const char* name : {"solver.lp_iterations", "solver.bb_nodes", "solver.dual_pivots",
                           "solver.cold_node_solves", "solver.incremental_roots",
                           "solver.incremental_fallbacks"}) {
    report->Set(name, count(name), "count");
  }
  report->Set("models.refits", count("estimator.refits"), "count");
  const sia::Histogram* fits = registry.find_histogram("estimator.fit_iterations");
  const int64_t fit_count = fits != nullptr ? static_cast<int64_t>(fits->count()) : 0;
  report->Set("models.fit_iterations_total", fits != nullptr ? fits->sum() : 0.0, "count");
  report->Set("models.fit_iterations_p90", fits != nullptr ? fits->Percentile(0.9) : 0.0,
              "count", fit_count);
  report->Set("models.fit_iterations_max", fits != nullptr ? fits->max() : 0.0, "count");
}

namespace {

struct SimWorkload {
  const char* name;
  int scale;       // MakeHeterogeneousCluster(scale): 64 GPUs per unit.
  double rate;     // Philly arrivals per hour...
  double hours;    // ...over this submission window.
  bool rigid;      // MakeTunedJobs (at most 16 GPUs each).
  int sub_traces;  // Traces per run; trace i has job-mix seed kJobMixSeed + i.
};

constexpr SimWorkload kSimWorkloads[] = {
    {"philly-2048", 32, 160.0, 8.0, false, 4},
    {"philly-256-rigid", 4, 160.0, 4.0, true, 4},
};

constexpr uint64_t kJobMixSeed = 1;

// Set-up is timed this many times per trace (the last build is kept), so
// setup_s is a median over several set-ups in every run.
constexpr int kSetupRepeats = 3;

const SimWorkload* FindSimWorkload(const std::string& name) {
  for (const SimWorkload& w : kSimWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

}  // namespace

bool IsSimWorkload(const std::string& name) { return FindSimWorkload(name) != nullptr; }

void RunSimWorkload(const RunArgs& args, Report* report) {
  const SimWorkload& w = *FindSimWorkload(args.workload);
  SpanLog spans(args.traced);
  sia::MetricsRegistry registry;
  LayerTimes times;
  std::vector<double> setup_s;
  std::vector<double> gen_ms;
  std::vector<double> policy_ms;
  double wall_s = 0.0;
  double jct_h = 0.0;
  double gpu_h = 0.0;
  double makespan_h = 0.0;

  for (int i = 0; i < w.sub_traces; ++i) {
    const uint64_t seed = SubSeed(args.seed, static_cast<uint64_t>(i));
    const std::string trace_id = "trace-" + std::to_string(i);
    RigidGpus rigid;
    std::vector<sia::JobSpec> jobs;
    std::unique_ptr<LayeredSim> sim;
    for (int setup = 0; setup < kSetupRepeats; ++setup) {
      sim.reset();
      const Clock::time_point t0 = Clock::now();
      sia::TraceOptions trace;
      trace.kind = sia::TraceKind::kPhilly;
      trace.arrival_rate_per_hour = w.rate;
      trace.duration_hours = w.hours;
      trace.seed = kJobMixSeed + static_cast<uint64_t>(i);
      jobs = sia::GenerateTrace(trace);
      if (w.rigid) {
        sia::TunedJobsOptions tuned;
        tuned.max_gpus = 16;
        tuned.seed = trace.seed;
        jobs = sia::MakeTunedJobs(jobs, tuned);
      }
      DealArrivals(&jobs, w.hours, seed);
      const Clock::time_point t1 = Clock::now();
      sim = std::make_unique<LayeredSim>(sia::MakeHeterogeneousCluster(w.scale), jobs, seed,
                                         w.rigid ? &rigid : nullptr, &registry, &spans, trace_id,
                                         &times);
      const Clock::time_point t2 = Clock::now();
      gen_ms.push_back(Ms(t1 - t0));
      setup_s.push_back(Sec(t2 - t0));
    }
    std::vector<sia::JobId> submitted;
    for (const sia::JobSpec& job : jobs) {
      submitted.push_back(job.id);
      if (w.rigid) {
        rigid[job.id] = job.rigid_num_gpus;
      }
    }

    const Clock::time_point start = Clock::now();
    sia::ClusterSimulator::StepStatus status;
    do {
      status = sim->Step();
    } while (status == sia::ClusterSimulator::StepStatus::kRoundScheduled);
    const sia::SimResult& result = sim->sim().Finalize();
    wall_s += Sec(Clock::now() - start);

    // Output checks, outside the timed span.
    if (status != sia::ClusterSimulator::StepStatus::kComplete) {
      report->Fail(trace_id + ": run stopped before every job completed");
    }
    for (const std::string& error :
         {sim->placement_error(), CheckAllFinished(submitted, result), CheckSummaries(result)}) {
      if (!error.empty()) {
        report->Fail(trace_id + ": " + error);
      }
    }
    if (i == 0) {
      for (const std::string& missed : SelfTestSimChecks(
               sim->sample(), w.rigid ? &rigid : nullptr, submitted, result)) {
        report->Fail(missed);
      }
    }
    int64_t finished = 0;
    for (const sia::JobResult& job : result.jobs) {
      finished += job.finished ? 1 : 0;
    }
    report->Count(static_cast<int64_t>(submitted.size()),
                  static_cast<int64_t>(submitted.size()) - finished);
    for (const double seconds : result.policy_cost.runtimes_seconds) {
      policy_ms.push_back(seconds * 1e3);
    }
    jct_h += result.AvgJctHours() / w.sub_traces;
    gpu_h += result.AvgGpuHoursPerJob() / w.sub_traces;
    makespan_h += result.MakespanHours() / w.sub_traces;
  }

  const int64_t rounds = static_cast<int64_t>(times.round_ms.size());
  const int64_t policy_samples = static_cast<int64_t>(policy_ms.size());
  report->Set("setup_s", Quantile(setup_s, 0.5), "s", static_cast<int64_t>(setup_s.size()));
  report->Set("wall_s", wall_s, "s");
  report->Set("policy_ms_mean", Mean(policy_ms), "ms", policy_samples);
  report->Set("policy_ms_p95", Quantile(policy_ms, 0.95), "ms", policy_samples);
  report->Set("step_ms_mean", Mean(times.round_ms), "ms", rounds);
  report->Set("step_ms_p95", Quantile(times.round_ms, 0.95), "ms", rounds);
  report->Set("avg_jct_h", jct_h, "h");
  report->Set("makespan_h", makespan_h, "h");
  report->Set("gpu_h_per_job", gpu_h, "GPU-h");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");

  report->Set("workload.gen_ms", Quantile(gen_ms, 0.5), "ms", static_cast<int64_t>(gen_ms.size()));
  report->Set("schedulers.policy_ms_p50", Quantile(policy_ms, 0.5), "ms", policy_samples);
  ReportEngineLayers(times, registry, wall_s, report);
  ReportIdleServiceLayers(report);
  registry.WriteJsonFile(args.out_dir + "/registry.json");
  if (spans.enabled()) {
    spans.Write(args.out_dir + "/spans.jsonl");
  }
}

}  // namespace perfbench
