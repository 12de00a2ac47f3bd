// serve-tenants: an in-process SiaServer on a unix socket hosting three
// 64-GPU Sia tenants, in kSessions sessions on the same inputs. Each tenant
// is driven by its own ServiceClient connection and client thread, in a
// closed loop (the next request goes out only after the reply): submit the
// jobs due by the next round boundary (journaled writes), step one round,
// query (a read), and every kTelemetryEvery rounds fetch telemetry, until the
// cluster completes and finalizes. After the timed sessions an in-process
// ClusterSimulator replays each tenant's submissions at the same round
// boundaries, and its per-job results must equal the tenant's results.csv.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "checks.h"
#include "harness.h"
#include "sim_workload.h"
#include "src/cluster/cluster_spec.h"
#include "src/common/file_util.h"
#include "src/common/rng.h"
#include "src/metrics/report.h"
#include "src/models/model_kind.h"
#include "src/service/client.h"
#include "src/service/engine.h"
#include "src/service/server.h"
#include "src/workload/trace_gen.h"
#include "src/workload/trace_io.h"

namespace perfbench {
namespace {

constexpr int kTenants = 3;
constexpr int kTenantScale = 1;         // MakeHeterogeneousCluster(1): 64 GPUs.
constexpr double kTenantRate = 10.0;    // Philly arrivals per hour per tenant...
constexpr double kTenantHours = 24.0;   // ...over this submission window.
// Tenant t's jobs are the Philly trace of seed kJobMixSeed + t, each arrival
// moved by a seeded offset of at most kJitterSeconds. Dealing the whole mix
// out anew per seed (DealArrivals), as the simulator workloads do, still
// moved the tenants' load, and with it the session time, the step round
// trips' p99 and the policy p95, by 0.27-0.43 across five seeds: three
// tenants of about 160 jobs are too few to average out where the
// extra-large jobs land.
constexpr uint64_t kJobMixSeed = 1000;
constexpr double kJitterSeconds = 600.0;
constexpr int kTelemetryEvery = 8;      // Rounds between telemetry reads.
constexpr int kSetUps = 15;             // Set-ups timed per run (server start + creates),
constexpr int kSessions = 2;            // the last of which host a timed session each.
constexpr int kMaxIterations = 100000;  // Guard against a session that never ends.

// The service's FileOps seam, with every call counted. Snapshot writes are
// the files opened under checkpoints/ and the renames into it.
//
// fsync and fdatasync are counted but not passed to the disk: they return
// success at once, which is what they amount to on tmpfs. The state
// directory has to sit inside the benchmark's checkout, on whatever disk
// holds it; there, with every call forwarded, fdatasync took 0.4-0.5 ms at
// the median on a shared virtio disk, and in busy periods the disk doubled
// step_ms_mean and spread it by 0.40 across ten runs. Every other call,
// writes included, goes to the real file system.
class CountingFileOps : public sia::FileOps {
 public:
  struct Counts {
    uint64_t write_calls = 0;
    uint64_t write_bytes = 0;
    uint64_t fsync_calls = 0;
    uint64_t fdatasync_calls = 0;
    uint64_t renames = 0;
    uint64_t snapshot_writes = 0;
    uint64_t snapshot_bytes = 0;
  };

  int Open(const char* path, int flags, mode_t mode) override {
    const int fd = sia::FileOps::Open(path, flags, mode);
    if (fd >= 0 && IsSnapshotPath(path)) {
      std::lock_guard<std::mutex> lock(mu_);
      snapshot_fds_.insert(fd);
    }
    return fd;
  }
  ssize_t Write(int fd, const void* buf, size_t count) override {
    const ssize_t n = sia::FileOps::Write(fd, buf, count);
    write_calls_.fetch_add(1);
    if (n > 0) {
      write_bytes_.fetch_add(static_cast<uint64_t>(n));
      std::lock_guard<std::mutex> lock(mu_);
      if (snapshot_fds_.count(fd) > 0) {
        snapshot_bytes_ += static_cast<uint64_t>(n);
      }
    }
    return n;
  }
  int Fsync(int fd) override {
    fsync_calls_.fetch_add(1);
    return 0;
  }
  int Fdatasync(int fd) override {
    fdatasync_calls_.fetch_add(1);
    return 0;
  }
  int Close(int fd) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      snapshot_fds_.erase(fd);
    }
    return sia::FileOps::Close(fd);
  }
  int Rename(const char* from, const char* to) override {
    const int rc = sia::FileOps::Rename(from, to);
    renames_.fetch_add(1);
    if (rc == 0 && IsSnapshotPath(to)) {
      snapshot_writes_.fetch_add(1);
    }
    return rc;
  }

  Counts Read() const {
    Counts c;
    c.write_calls = write_calls_.load();
    c.write_bytes = write_bytes_.load();
    c.fsync_calls = fsync_calls_.load();
    c.fdatasync_calls = fdatasync_calls_.load();
    c.renames = renames_.load();
    c.snapshot_writes = snapshot_writes_.load();
    std::lock_guard<std::mutex> lock(mu_);
    c.snapshot_bytes = snapshot_bytes_;
    return c;
  }

 private:
  static bool IsSnapshotPath(const char* path) {
    return std::string_view(path).find("/checkpoints/") != std::string_view::npos;
  }
  std::atomic<uint64_t> write_calls_{0};
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<uint64_t> fsync_calls_{0};
  std::atomic<uint64_t> fdatasync_calls_{0};
  std::atomic<uint64_t> renames_{0};
  std::atomic<uint64_t> snapshot_writes_{0};
  mutable std::mutex mu_;
  std::unordered_set<int> snapshot_fds_;
  uint64_t snapshot_bytes_ = 0;
};

// Installs a FileOps seam for this object's lifetime.
class ScopedFileOps {
 public:
  explicit ScopedFileOps(sia::FileOps* ops) : previous_(sia::SetFileOps(ops)) {}
  ~ScopedFileOps() { sia::SetFileOps(previous_); }
  ScopedFileOps(const ScopedFileOps&) = delete;
  ScopedFileOps& operator=(const ScopedFileOps&) = delete;

 private:
  sia::FileOps* previous_;
};

// The "job" object of a submit_job request, and the JobSpec the server
// parses out of it: the object goes through Dump/Parse exactly as it does on
// the wire, so the replay sees the same doubles the server applied.
bool WireJob(const sia::JobSpec& spec, sia::JsonValue* json, sia::JobSpec* parsed,
             std::string* error) {
  sia::JsonValue out = sia::JsonValue::MakeObject();
  out.Set("id", sia::JsonValue::MakeNumber(static_cast<double>(spec.id)));
  out.Set("name", sia::JsonValue::MakeString(spec.name));
  out.Set("model", sia::JsonValue::MakeString(sia::ToString(spec.model)));
  out.Set("submit_time", sia::JsonValue::MakeNumber(spec.submit_time));
  out.Set("adaptivity", sia::JsonValue::MakeString(sia::ToString(spec.adaptivity)));
  out.Set("fixed_bsz", sia::JsonValue::MakeNumber(spec.fixed_bsz));
  out.Set("rigid_num_gpus", sia::JsonValue::MakeNumber(spec.rigid_num_gpus));
  out.Set("max_num_gpus", sia::JsonValue::MakeNumber(spec.max_num_gpus));
  out.Set("preemptible", sia::JsonValue::MakeBool(spec.preemptible));
  out.Set("batch_inference", sia::JsonValue::MakeBool(spec.batch_inference));
  out.Set("latency_slo_seconds", sia::JsonValue::MakeNumber(spec.latency_slo_seconds));
  if (!sia::JsonValue::Parse(out.Dump(), json, error)) {
    return false;
  }
  parsed->id = static_cast<sia::JobId>(json->GetInt("id", -1));
  parsed->name = json->GetString("name", "");
  if (!sia::ModelKindFromString(json->GetString("model", ""), &parsed->model) ||
      !sia::AdaptivityModeFromString(json->GetString("adaptivity", ""), &parsed->adaptivity)) {
    *error = "job " + std::to_string(spec.id) + ": unparseable model or adaptivity";
    return false;
  }
  parsed->submit_time = json->GetNumber("submit_time", 0.0);
  parsed->fixed_bsz = json->GetNumber("fixed_bsz", 0.0);
  parsed->rigid_num_gpus = json->GetInt("rigid_num_gpus", 0);
  parsed->max_num_gpus = json->GetInt("max_num_gpus", 64);
  parsed->preemptible = json->GetBool("preemptible", true);
  parsed->batch_inference = json->GetBool("batch_inference", false);
  parsed->latency_slo_seconds = json->GetNumber("latency_slo_seconds", 0.0);
  return true;
}

// A tenant's inputs: its seeded trace, as the server will parse each job.
struct TenantInput {
  std::string name;
  uint64_t seed = 0;
  std::vector<sia::JobSpec> jobs;  // By submit time.
  std::vector<sia::JsonValue> job_json;
};

// One tenant's side of one session: its connection and what it saw.
struct TenantLog {
  std::unique_ptr<sia::ServiceClient> client;
  std::vector<std::vector<int>> batches;  // Job indices submitted before each step.
  std::vector<double> server_now;         // now_seconds each step reported.
  std::vector<double> step_ms, write_ms, read_ms, telemetry_ms;
  double session_s = 0.0;  // First request to the finalizing step's reply.
  int64_t sent = 0;
  int64_t failed = 0;
  bool finalized = false;
  std::string error;
};

// One server lifetime: set-up, the timed client session, and the stop.
struct Session {
  std::string dir;
  std::vector<TenantLog> logs = std::vector<TenantLog>(kTenants);
  sia::ClientResult stats;
  sia::ClientResult info;
  CountingFileOps::Counts storage;  // Over the server's lifetime.
  std::vector<std::string> results_csv = std::vector<std::string>(kTenants);
  uint64_t trace_bytes = 0;
};

// One timed request; failures are counted and the first one kept.
bool Call(TenantLog* log, sia::JsonValue request, std::vector<double>* latency_ms,
          SpanLog* spans, const char* span_name, const std::string& trace,
          sia::ClientResult* out = nullptr) {
  const Clock::time_point start = Clock::now();
  sia::ClientResult result = log->client->Call(std::move(request));
  const Clock::time_point end = Clock::now();
  ++log->sent;
  if (latency_ms != nullptr) {
    latency_ms->push_back(Ms(end - start));
  }
  spans->Add(span_name, 0, trace, start, end);
  if (!result.ok) {
    ++log->failed;
    if (log->error.empty()) {
      log->error = std::string(span_name) + ": " + sia::ToString(result.error) + " " +
                   result.message;
    }
  }
  const bool ok = result.ok;
  if (out != nullptr) {
    *out = std::move(result);
  }
  return ok;
}

sia::JsonValue Request(const char* op) {
  sia::JsonValue request = sia::JsonValue::MakeObject();
  request.Set("op", sia::JsonValue::MakeString(op));
  return request;
}

sia::JsonValue Request(const char* op, const std::string& cluster) {
  sia::JsonValue request = Request(op);
  request.Set("cluster", sia::JsonValue::MakeString(cluster));
  return request;
}

void RunTenant(const TenantInput* tenant, TenantLog* log, double round_seconds,
               const std::string& session, SpanLog* spans) {
  const int n = static_cast<int>(tenant->jobs.size());
  const Clock::time_point start = Clock::now();
  double now = 0.0;
  int next = 0;
  for (int iteration = 0; iteration < kMaxIterations; ++iteration) {
    const std::string trace = session + "/" + tenant->name + "/" + std::to_string(iteration);
    const Clock::time_point round_start = Clock::now();
    std::vector<int> batch;
    // Writes: every job due by the next round boundary, plus the next job
    // when none is still pending, so the engine never drains (and
    // finalizes) before the trace is fully submitted.
    while (next < n && tenant->jobs[next].submit_time <= now + round_seconds) {
      batch.push_back(next++);
    }
    if (next < n && (next == 0 || tenant->jobs[next - 1].submit_time <= now)) {
      batch.push_back(next++);
    }
    for (const int index : batch) {
      sia::JsonValue request = Request("submit_job", tenant->name);
      request.Set("job", tenant->job_json[index]);
      if (!Call(log, std::move(request), &log->write_ms, spans, "service.submit_job", trace)) {
        return;
      }
    }
    log->batches.push_back(std::move(batch));

    sia::JsonValue step = Request("step_round", tenant->name);
    step.Set("rounds", sia::JsonValue::MakeNumber(1));
    sia::ClientResult stepped;
    if (!Call(log, std::move(step), &log->step_ms, spans, "service.step_round", trace,
              &stepped)) {
      return;
    }
    now = stepped.response.GetNumber("now_seconds", -1.0);
    log->server_now.push_back(now);
    log->finalized = stepped.response.GetBool("finalized", false);

    if (!Call(log, Request("query", tenant->name), &log->read_ms, spans, "service.query",
              trace)) {
      return;
    }
    if (iteration % kTelemetryEvery == 0 &&
        !Call(log, Request("telemetry", tenant->name), &log->telemetry_ms, spans,
              "service.telemetry", trace)) {
      return;
    }
    spans->Add("tenant.round", 0, trace, round_start, Clock::now());
    log->session_s = Sec(Clock::now() - start);
    if (log->finalized) {
      if (next < n) {
        log->error = "cluster finalized with jobs left to submit";
      }
      return;
    }
  }
  log->error = "session did not finish";
}

sia::ServerOptions MakeServerOptions(const std::string& dir, bool measured) {
  sia::ServerOptions options;
  options.listen = "unix:" + dir + "/s.sock";
  options.state_dir = dir + "/state";
  options.recover = false;
  if (!measured) {
    // Sessions keep the default watchdog sweep; a set-up that runs no
    // session stops at once instead of waiting out a sweep.
    options.watchdog_interval_ms = 50;
  }
  return options;
}

// Generates the tenants' traces and starts a server hosting them: the
// benchmark's set-up for this workload. Returns nullptr after reporting a
// failure.
std::unique_ptr<sia::SiaServer> SetUp(const RunArgs& args, bool measured,
                                      std::vector<TenantInput>* tenants, Session* session,
                                      std::vector<double>* gen_ms, std::vector<double>* create_ms,
                                      int64_t* sent, Report* report) {
  for (int t = 0; t < kTenants; ++t) {
    TenantInput& tenant = (*tenants)[t];
    tenant.name = "tenant-" + std::to_string(t);
    tenant.seed = SubSeed(args.seed, 100 + static_cast<uint64_t>(t));
    const Clock::time_point g0 = Clock::now();
    sia::TraceOptions trace;
    trace.kind = sia::TraceKind::kPhilly;
    trace.arrival_rate_per_hour = kTenantRate;
    trace.duration_hours = kTenantHours;
    trace.seed = kJobMixSeed + static_cast<uint64_t>(t);
    std::vector<sia::JobSpec> generated = sia::GenerateTrace(trace);
    sia::Rng rng(tenant.seed);
    for (sia::JobSpec& job : generated) {
      job.submit_time = std::max(0.0, job.submit_time + rng.Uniform(-kJitterSeconds, kJitterSeconds));
    }
    std::stable_sort(generated.begin(), generated.end(),
                     [](const sia::JobSpec& a, const sia::JobSpec& b) {
                       return a.submit_time < b.submit_time;
                     });
    gen_ms->push_back(Ms(Clock::now() - g0));
    tenant.jobs.assign(generated.size(), sia::JobSpec{});
    tenant.job_json.assign(generated.size(), sia::JsonValue());
    for (size_t i = 0; i < generated.size(); ++i) {
      std::string error;
      if (!WireJob(generated[i], &tenant.job_json[i], &tenant.jobs[i], &error)) {
        report->Fail(tenant.name + ": " + error);
        return nullptr;
      }
    }
  }
  auto server = std::make_unique<sia::SiaServer>(MakeServerOptions(session->dir, measured));
  std::string error;
  if (!server->Start(&error)) {
    report->Fail("server start: " + error);
    return nullptr;
  }
  for (int t = 0; t < kTenants; ++t) {
    const TenantInput& tenant = (*tenants)[t];
    sia::ClientOptions options;
    options.address = "unix:" + session->dir + "/s.sock";
    options.client_id = tenant.name;
    options.seed = tenant.seed;
    options.max_attempts = 1;
    TenantLog& log = session->logs[t];
    log.client = std::make_unique<sia::ServiceClient>(options);
    sia::JsonValue create = Request("create_cluster", tenant.name);
    create.Set("scheduler", sia::JsonValue::MakeString("sia"));
    create.Set("cluster_kind", sia::JsonValue::MakeString("heterogeneous"));
    create.Set("scale", sia::JsonValue::MakeNumber(kTenantScale));
    create.Set("trace", sia::JsonValue::MakeString("none"));
    create.Set("seed", sia::JsonValue::MakeNumber(static_cast<double>(tenant.seed)));
    const Clock::time_point c0 = Clock::now();
    const sia::ClientResult created = log.client->Call(std::move(create));
    create_ms->push_back(Ms(Clock::now() - c0));
    ++*sent;
    if (!created.ok) {
      report->Fail(tenant.name + ": create_cluster: " + created.message);
      return nullptr;
    }
  }
  return server;
}

// The timed client session, then the session-end server counters and a
// graceful stop (which snapshots every cluster).
void RunSession(const std::vector<TenantInput>& tenants, sia::SiaServer* server,
                double round_seconds, const std::string& name, SpanLog* spans,
                Session* session) {
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kTenants; ++t) {
      threads.emplace_back(RunTenant, &tenants[t], &session->logs[t], round_seconds, name, spans);
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  TenantLog& first = session->logs.front();
  Call(&first, Request("server_stats"), nullptr, spans, "service.server_stats", name,
       &session->stats);
  Call(&first, Request("server_info"), nullptr, spans, "service.server_info", name,
       &session->info);
  server->Stop();
  for (int t = 0; t < kTenants; ++t) {
    const std::string cluster_dir = session->dir + "/state/" + tenants[t].name;
    std::error_code ec;
    const auto size = std::filesystem::file_size(cluster_dir + "/trace.jsonl", ec);
    session->trace_bytes += ec ? 0 : static_cast<uint64_t>(size);
    std::string error;
    if (!sia::ReadFileToString(cluster_dir + "/results.csv", &session->results_csv[t], &error)) {
      session->logs[t].error = session->logs[t].error.empty() ? error : session->logs[t].error;
    }
  }
}

CountingFileOps::Counts Delta(const CountingFileOps::Counts& after,
                              const CountingFileOps::Counts& before) {
  CountingFileOps::Counts d;
  d.write_calls = after.write_calls - before.write_calls;
  d.write_bytes = after.write_bytes - before.write_bytes;
  d.fsync_calls = after.fsync_calls - before.fsync_calls;
  d.fdatasync_calls = after.fdatasync_calls - before.fdatasync_calls;
  d.renames = after.renames - before.renames;
  d.snapshot_writes = after.snapshot_writes - before.snapshot_writes;
  d.snapshot_bytes = after.snapshot_bytes - before.snapshot_bytes;
  return d;
}

}  // namespace

void ReportIdleServiceLayers(Report* report) {
  for (const char* name :
       {"service.create_ms_p50", "service.write_ms_p50", "service.write_ms_p95",
        "service.read_ms_p50", "service.read_ms_p99", "service.step_overhead_ms_p50",
        "service.telemetry_ms_p50"}) {
    report->Set(name, 0.0, "ms");
  }
  for (const char* name :
       {"service.requests", "service.requests_shed", "service.requests_timed_out",
        "service.journal_segments", "storage.fdatasync_calls", "storage.write_calls",
        "storage.fsync_calls", "storage.renames", "snapshot.writes"}) {
    report->Set(name, 0.0, "count");
  }
  for (const char* name :
       {"service.journal_bytes", "storage.write_bytes", "snapshot.bytes_mean", "obs.trace_bytes"}) {
    report->Set(name, 0.0, "bytes");
  }
}

void RunServeWorkload(const RunArgs& args, Report* report) {
  SpanLog spans(args.traced);
  CountingFileOps file_ops;
  ScopedFileOps installed(&file_ops);
  const double round_seconds = sia::MakeNamedScheduler("sia")->round_duration_seconds();

  // Set-up runs kSetUps times (the median is setup_s); the last kSessions
  // set-ups each host one timed session on the same inputs.
  std::vector<TenantInput> tenants(kTenants);
  std::vector<Session> sessions;
  std::vector<double> setup_s;
  std::vector<double> gen_ms;
  std::vector<double> create_ms;
  int64_t sent = 0;
  int64_t failed = 0;
  for (int i = 0; i < kSetUps; ++i) {
    const bool measured = i >= kSetUps - kSessions;
    Session session;
    session.dir = args.out_dir + "/server-" + std::to_string(i);
    std::filesystem::create_directories(session.dir);
    const CountingFileOps::Counts before = file_ops.Read();
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<sia::SiaServer> server =
        SetUp(args, measured, &tenants, &session, &gen_ms, &create_ms, &sent, report);
    if (server == nullptr) {
      report->Count(sent + 1, 1);
      return;
    }
    setup_s.push_back(Sec(Clock::now() - t0));
    if (!measured) {
      continue;  // ~Session closes the clients; ~SiaServer stops the server.
    }
    RunSession(tenants, server.get(), round_seconds, "s" + std::to_string(sessions.size()),
               &spans, &session);
    session.storage = Delta(file_ops.Read(), before);
    for (TenantLog& log : session.logs) {
      sent += log.sent;
      failed += log.failed;
      if (!log.error.empty()) {
        report->Fail(session.dir + ": " + log.error);
      }
      log.client.reset();
    }
    sessions.push_back(std::move(session));
  }
  report->Count(sent, failed);
  if (!report->correct()) {
    return;
  }

  // Replay each tenant of the first session in-process; every session must
  // have run the same steps, and each results.csv must equal the replay's.
  sia::MetricsRegistry registry;
  LayerTimes times;
  std::vector<double> overhead_ms;
  std::vector<double> policy_ms;
  double replay_wall_s = 0.0;
  double jct_h = 0.0;
  double gpu_h = 0.0;
  double makespan_h = 0.0;
  for (int t = 0; t < kTenants; ++t) {
    const TenantInput& tenant = tenants[t];
    const TenantLog& log = sessions.front().logs[t];
    for (const Session& other : sessions) {
      if (other.logs[t].batches != log.batches || other.logs[t].server_now != log.server_now) {
        report->Fail(tenant.name + ": " + other.dir + " ran other steps than " +
                     sessions.front().dir);
      }
    }
    LayeredSim replay(sia::MakeHeterogeneousCluster(kTenantScale), {}, tenant.seed, nullptr,
                      &registry, &spans, "replay/" + tenant.name, &times);
    std::vector<sia::JobId> submitted;
    const Clock::time_point start = Clock::now();
    for (size_t it = 0; it < log.batches.size(); ++it) {
      for (const int index : log.batches[it]) {
        std::string error;
        submitted.push_back(tenant.jobs[index].id);
        if (!replay.sim().SubmitJob(tenant.jobs[index], &error)) {
          report->Fail(tenant.name + " replay: " + error);
        }
      }
      const size_t rounds_before = times.round_ms.size();
      const sia::ClusterSimulator::StepStatus status = replay.Step();
      if (times.round_ms.size() > rounds_before) {
        for (const Session& session : sessions) {
          overhead_ms.push_back(session.logs[t].step_ms[it] - times.round_ms.back());
        }
      }
      const bool done = status == sia::ClusterSimulator::StepStatus::kComplete ||
                        status == sia::ClusterSimulator::StepStatus::kCapReached;
      if (replay.sim().now_seconds() != log.server_now[it] ||
          done != (it + 1 == log.batches.size())) {
        report->Fail(tenant.name + ": replay diverged from the service at step " +
                     std::to_string(it));
        break;
      }
    }
    const sia::SimResult& result = replay.sim().Finalize();
    replay_wall_s += Sec(Clock::now() - start);

    std::ostringstream replay_csv;
    sia::WriteJobResultsCsv(replay_csv, result);
    std::vector<std::string> errors = {replay.placement_error(),
                                       CheckAllFinished(submitted, result),
                                       CheckSummaries(result)};
    for (const Session& session : sessions) {
      errors.push_back(CheckResultsCsv(session.results_csv[t], replay_csv.str(), submitted));
    }
    for (const std::string& error : errors) {
      if (!error.empty()) {
        report->Fail(tenant.name + ": " + error);
      }
    }
    if (t == 0) {
      for (const std::string& missed :
           SelfTestCsvCheck(sessions.front().results_csv[t], replay_csv.str(), submitted)) {
        report->Fail(missed);
      }
      for (const std::string& missed :
           SelfTestSimChecks(replay.sample(), nullptr, submitted, result)) {
        report->Fail(missed);
      }
    }
    for (const double seconds : result.policy_cost.runtimes_seconds) {
      policy_ms.push_back(seconds * 1e3);
    }
    jct_h += result.AvgJctHours() / kTenants;
    gpu_h += result.AvgGpuHoursPerJob() / kTenants;
    makespan_h += result.MakespanHours() / kTenants;
  }

  // --- metrics: per-session figures, then the median over sessions ---
  std::vector<double> wall_s, step_mean, step_p95;
  std::vector<double> write_ms, read_ms, telemetry_ms;
  for (const Session& session : sessions) {
    std::vector<double> step_ms;
    std::vector<double> tenant_s;
    for (const TenantLog& log : session.logs) {
      tenant_s.push_back(log.session_s);
      step_ms.insert(step_ms.end(), log.step_ms.begin(), log.step_ms.end());
      write_ms.insert(write_ms.end(), log.write_ms.begin(), log.write_ms.end());
      read_ms.insert(read_ms.end(), log.read_ms.begin(), log.read_ms.end());
      telemetry_ms.insert(telemetry_ms.end(), log.telemetry_ms.begin(), log.telemetry_ms.end());
    }
    wall_s.push_back(Mean(tenant_s));
    step_mean.push_back(Mean(step_ms));
    step_p95.push_back(Quantile(step_ms, 0.95));
  }
  const auto n = [](const std::vector<double>& v) { return static_cast<int64_t>(v.size()); };
  int64_t steps = 0;
  for (const TenantLog& log : sessions.front().logs) {
    steps += n(log.step_ms);
  }
  report->Set("setup_s", Quantile(setup_s, 0.5), "s", n(setup_s));
  report->Set("wall_s", Quantile(wall_s, 0.5), "s", n(wall_s));
  report->Set("policy_ms_mean", Mean(policy_ms), "ms", n(policy_ms));
  report->Set("policy_ms_p95", Quantile(policy_ms, 0.95), "ms", n(policy_ms));
  report->Set("step_ms_mean", Quantile(step_mean, 0.5), "ms", steps);
  report->Set("step_ms_p95", Quantile(step_p95, 0.5), "ms", steps);
  report->Set("avg_jct_h", jct_h, "h");
  report->Set("makespan_h", makespan_h, "h");
  report->Set("gpu_h_per_job", gpu_h, "GPU-h");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");

  report->Set("workload.gen_ms", Quantile(gen_ms, 0.5), "ms", n(gen_ms));
  report->Set("schedulers.policy_ms_p50", Quantile(policy_ms, 0.5), "ms", n(policy_ms));
  ReportEngineLayers(times, registry, replay_wall_s, report);
  report->Set("service.create_ms_p50", Quantile(create_ms, 0.5), "ms", n(create_ms));
  report->Set("service.write_ms_p50", Quantile(write_ms, 0.5), "ms", n(write_ms));
  report->Set("service.write_ms_p95", Quantile(write_ms, 0.95), "ms", n(write_ms));
  report->Set("service.read_ms_p50", Quantile(read_ms, 0.5), "ms", n(read_ms));
  report->Set("service.read_ms_p99", Quantile(read_ms, 0.99), "ms", n(read_ms));
  report->Set("service.step_overhead_ms_p50", Quantile(overhead_ms, 0.5), "ms", n(overhead_ms));
  report->Set("service.telemetry_ms_p50", Quantile(telemetry_ms, 0.5), "ms", n(telemetry_ms));

  // Counters of the last session's server.
  const Session& last = sessions.back();
  for (const char* name :
       {"service.requests", "service.requests_shed", "service.requests_timed_out"}) {
    report->Set(name, last.stats.response.GetNumber(name, 0.0), "count");
  }
  report->Set("service.journal_segments", last.info.response.GetNumber("journal_segments_total", 0.0),
              "count");
  report->Set("service.journal_bytes", last.info.response.GetNumber("journal_bytes_total", 0.0),
              "bytes");
  const CountingFileOps::Counts& io = last.storage;
  const auto num = [](uint64_t v) { return static_cast<double>(v); };
  report->Set("storage.fdatasync_calls", num(io.fdatasync_calls), "count");
  report->Set("storage.write_calls", num(io.write_calls), "count");
  report->Set("storage.write_bytes", num(io.write_bytes), "bytes");
  report->Set("storage.fsync_calls", num(io.fsync_calls), "count");
  report->Set("storage.renames", num(io.renames), "count");
  report->Set("snapshot.writes", num(io.snapshot_writes), "count");
  report->Set("snapshot.bytes_mean",
              io.snapshot_writes > 0 ? num(io.snapshot_bytes) / num(io.snapshot_writes) : 0.0,
              "bytes");
  report->Set("obs.trace_bytes", num(last.trace_bytes), "bytes");
  registry.WriteJsonFile(args.out_dir + "/registry.json");
  if (spans.enabled()) {
    spans.Write(args.out_dir + "/spans.jsonl");
  }
}

}  // namespace perfbench
