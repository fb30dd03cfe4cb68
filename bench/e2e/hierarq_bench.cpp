// hierarq_bench — the repository benchmark.
//
// Spawns the real hierarq_server once per workload, drives it over
// loopback with net::HierarqClient from this one process, checks every
// answer against an in-process reference, and prints each end-to-end
// metric by name with its unit. The last stdout line is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics, or with --trace the per-layer ones.
// README.md describes the workloads, metrics and bounds; BENCHMARK.json
// at the repository root lists them.
//
//   hierarq_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//                 [--smoke] [--plant-mismatch] [--work-dir DIR]
//                 [--git-rev REV]
//
// Flags take "--flag value" or "--flag=value". Without --workload every
// workload runs in turn. --smoke runs each for 2 s with every check on.
// --plant-mismatch corrupts the first reference answer of the request
// mix, so the run must fail. It does not reach update_mix, whose reader
// is checked against a replay instead.

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hierarq/data/storage.h"
#include "hierarq/net/client.h"
#include "hierarq/obs/trace.h"
#include "hierarq/util/simd.h"
#include "hierarq/util/strings.h"
#include "layers.h"
#include "load.h"
#include "server_process.h"
#include "workloads.h"

extern char** environ;

namespace hierarq::bench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Cold starts per run; setup_s is their median.
constexpr int kSetupStarts = 5;
/// update_mix kill-and-recover cycles; recover_s is their median.
constexpr int kRecoverCycles = 3;
/// Delta lines written before each kill, so every recovery replays the
/// same WAL tail (fewer than the server's snapshot interval of 256).
constexpr size_t kLinesBeforeKill = 128;
constexpr double kWarmupSeconds = 3.0;
constexpr double kSmokeWarmupSeconds = 0.5;
constexpr double kSmokeSeconds = 2.0;
constexpr double kServerStartTimeout = 60.0;
/// Quantile of one-second windows the windowed metrics report (ByWindow).
constexpr double kBestWindows = 0.10;

struct Options {
  std::vector<const WorkloadSpec*> workloads;
  uint64_t seed = 1;
  double seconds = 0.0;  ///< 0 = each workload's default.
  bool trace = false;
  bool smoke = false;
  bool plant_mismatch = false;
  std::string work_dir = "build-e2e";
  std::string git_rev = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload's measurements and verdict.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, size_t>> samples;
  std::string note;  ///< Extra human-readable line (the stage sum).

  void Count(const LoadResult& load) {
    attempted += load.attempted;
    failed += load.failed;
    if (!load.first_error.empty()) {
      errors.push_back(load.first_error);
    }
  }
  void Error(const std::string& error) {
    ++failed;
    errors.push_back(error);
  }
  bool correct() const { return failed == 0 && errors.empty(); }
};

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// A pass seen as one-second sub-windows. Each window yields its
/// closed-loop median latency, its completion rate, and the server's CPU
/// time per operation; the metric is the best tenth of the windows (the
/// 10th percentile of latency and CPU, the 90th of rate). Other tenants
/// of a shared host only ever add time, and on a noisy host they do so
/// for seconds to minutes at a stretch, so the least-disturbed seconds
/// track the code far more steadily across runs than a mean or median
/// does. Stalls the server causes itself still show in p99_us, which is
/// taken over every sample. A window's rate is (n - 1) / (last - first
/// completion), which does not round to whole operations the way a count
/// per second would.
struct Windowed {
  double p50_us = 0.0;
  double ops_per_s = 0.0;
  double cpu_us_per_op = 0.0;
  size_t windows = 0;
};

Windowed ByWindow(const LoadResult& pass,
                  const std::vector<uint64_t>& cpu_ticks) {
  const size_t windows = static_cast<size_t>(pass.elapsed_s);
  std::vector<std::vector<double>> latency(windows);
  std::vector<std::vector<double>> done_at(windows);
  std::vector<double> ops(windows, 0.0);
  for (size_t i = 0; i < pass.closed_at_s.size(); ++i) {
    const size_t w = static_cast<size_t>(pass.closed_at_s[i]);
    if (w < windows) {
      latency[w].push_back(pass.closed_us[i]);
      done_at[w].push_back(pass.closed_at_s[i]);
      ops[w] += 1.0;
    }
  }
  for (const double at : pass.reader_at_s) {
    if (static_cast<size_t>(at) < windows) {
      ops[static_cast<size_t>(at)] += 1.0;
    }
  }
  std::vector<double> p50s;
  std::vector<double> rates;
  std::vector<double> cpu_per_op;
  for (size_t w = 0; w < windows; ++w) {
    if (!latency[w].empty()) {
      p50s.push_back(Median(std::move(latency[w])));
    }
    if (done_at[w].size() >= 2) {
      const auto [first, last] =
          std::minmax_element(done_at[w].begin(), done_at[w].end());
      rates.push_back(static_cast<double>(done_at[w].size() - 1) /
                      (*last - *first));
    }
    if (w + 1 < cpu_ticks.size() && ops[w] > 0.0) {
      cpu_per_op.push_back(static_cast<double>(cpu_ticks[w + 1] -
                                               cpu_ticks[w]) /
                           ClockTicksPerSecond() * 1e6 / ops[w]);
    }
  }
  return Windowed{Percentile(std::move(p50s), kBestWindows),
                  Percentile(std::move(rates), 1.0 - kBestWindows),
                  Percentile(std::move(cpu_per_op), kBestWindows), windows};
}

size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 0;
  }
  return static_cast<size_t>(CPU_COUNT(&set));
}

/// Runs tools/check_trace.py on `path`, its report on stderr.
bool TraceAccepted(const std::string& path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
  const std::string script = HIERARQ_CHECK_TRACE_PATH;
  std::vector<char*> argv = {const_cast<char*>("python3"),
                             const_cast<char*>(script.c_str()),
                             const_cast<char*>(path.c_str()), nullptr};
  pid_t pid = -1;
  const int spawned = ::posix_spawnp(&pid, "python3", &actions, nullptr,
                                     argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    return false;
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// One workload, start to finish: inputs, set-up, warm-up, the measured
/// window, the traced window, the update_mix durability cycles, and the
/// per-layer probes.
class WorkloadRun {
 public:
  WorkloadRun(const WorkloadSpec& spec, const Options& options)
      : spec_(spec),
        options_(options),
        run_dir_(options.work_dir + "/run/" + spec.name),
        seconds_(options.smoke            ? kSmokeSeconds
                 : options.seconds > 0.0 ? options.seconds
                                          : spec.default_seconds) {}

  double seconds() const { return seconds_; }
  const std::string& run_dir() const { return run_dir_; }

  Status Run(Outcome* out);

 private:
  std::vector<std::string> ServerArgs() const {
    std::vector<std::string> args = data_.server_args;
    if (spec_.updates) {
      args.push_back("--data-dir=" + DataDir());
    }
    return args;
  }
  std::string DataDir() const { return run_dir_ + "/data"; }

  /// (Re)starts the server on the current files and data dir.
  Status Start(double* startup_s) {
    server_.reset();
    HIERARQ_ASSIGN_OR_RETURN(
        server_, ServerProcess::Start(HIERARQ_SERVER_PATH, ServerArgs(),
                                      run_dir_ + "/server.log",
                                      kServerStartTimeout, startup_s));
    control_ = net::HierarqClient();
    return control_.Connect("127.0.0.1", server_->port());
  }

  /// One pass of the workload's load; with `cpu_ticks` the server's CPU
  /// time is sampled at each one-second boundary.
  LoadResult Pass(double seconds, bool traced,
                  std::vector<uint64_t>* cpu_ticks = nullptr) {
    LoadOptions load{server_->port(), seconds, traced, {}};
    if (cpu_ticks != nullptr) {
      load.on_second = [this, cpu_ticks](int) {
        Result<ProcSample> sample = server_->Sample();
        cpu_ticks->push_back(sample.ok()        ? sample->cpu_ticks
                             : cpu_ticks->empty() ? 0
                                                  : cpu_ticks->back());
      };
    }
    return mix_ ? mix_->Run(load)
                : RunClosedQueries(data_.cases, spec_.closed_clients, load);
  }

  /// update_mix: checks the reader's answers of the last pass.
  void CheckReader(Outcome* out) {
    if (!mix_) {
      return;
    }
    Result<uint64_t> mismatches = mix_->CheckReaderSamples(*reference_);
    if (!mismatches.ok()) {
      out->Error("reader reference: " + mismatches.status().ToString());
    } else if (*mismatches > 0) {
      out->failed += *mismatches;
      out->errors.push_back(std::to_string(*mismatches) +
                            " reader answers match no generation");
    }
  }

  Result<MetricsScrape> Scrape() {
    HIERARQ_ASSIGN_OR_RETURN(const std::string text,
                             control_.Metrics(net::WireFormat::kNative));
    return ParseMetricsText(text);
  }

  /// Kill, restart on the same data dir, compare count and pqe against
  /// the reference at the last acked generation, write more lines.
  Status RecoverCycles(Outcome* out, std::vector<double>* recover_s);

  const WorkloadSpec& spec_;
  const Options& options_;
  const std::string run_dir_;
  const double seconds_;
  WorkloadData data_;
  std::unique_ptr<ServerProcess> server_;
  net::HierarqClient control_;
  std::optional<UpdateMix> mix_;
  std::optional<ReferenceReplay> reference_;
};

Status WorkloadRun::RecoverCycles(Outcome* out,
                                  std::vector<double>* recover_s) {
  for (int cycle = 0; cycle < kRecoverCycles; ++cycle) {
    LoadResult writes;
    mix_->WriteLines(control_, kLinesBeforeKill, &writes);
    out->Count(writes);
    server_->Kill();
    double startup_s = 0.0;
    HIERARQ_RETURN_NOT_OK(Start(&startup_s));
    recover_s->push_back(startup_s);
    HIERARQ_RETURN_NOT_OK(reference_->AdvanceTo(mix_->lines(), mix_->acked()));
    for (const net::SolverKind solver :
         {net::SolverKind::kCount, net::SolverKind::kPqe}) {
      HIERARQ_ASSIGN_OR_RETURN(const QueryCase expected,
                               reference_->Answer(solver));
      ++out->attempted;
      Result<net::QueryResult> got = control_.Query(solver, kPaperQuery);
      if (!got.ok()) {
        out->Error("after recovery: " + got.status().ToString());
      } else if (!Matches(expected, *got)) {
        out->Error(std::string("after recovery at generation ") +
                   std::to_string(mix_->acked()) + ": wrong " +
                   net::SolverKindName(solver));
      }
    }
  }
  return Status::OK();
}

Status WorkloadRun::Run(Outcome* out) {
  std::error_code ignored;
  fs::remove_all(run_dir_, ignored);
  fs::create_directories(run_dir_);
  HIERARQ_ASSIGN_OR_RETURN(data_,
                           PrepareWorkload(spec_, options_.seed, run_dir_));
  if (options_.plant_mismatch) {
    QueryCase& planted = data_.cases.front();
    ++planted.count;
    planted.probability *= 1.0 + 1e-6;
    if (!planted.shapley.empty()) {
      planted.shapley.front().second += "1";
    }
  }
  if (spec_.updates) {
    mix_.emplace(data_, options_.seed);
    reference_.emplace(data_.db_path);
    HIERARQ_RETURN_NOT_OK(reference_->status());
  }

  // Set-up: cold starts, fresh data dir each; the last one serves.
  std::vector<double> setup_s;
  std::vector<double> setup_rss_mb;
  for (int i = 0; i < kSetupStarts; ++i) {
    fs::remove_all(DataDir(), ignored);
    double startup_s = 0.0;
    HIERARQ_RETURN_NOT_OK(Start(&startup_s));
    setup_s.push_back(startup_s);
    HIERARQ_ASSIGN_OR_RETURN(const ProcSample loaded, server_->Sample());
    setup_rss_mb.push_back(static_cast<double>(loaded.vm_rss_kb) / 1024.0);
    if (i + 1 < kSetupStarts) {
      HIERARQ_RETURN_NOT_OK(server_->Stop());
    }
  }

  const LoadResult warmup = Pass(
      options_.smoke ? kSmokeWarmupSeconds : kWarmupSeconds, false);
  out->Count(warmup);
  CheckReader(out);

  HIERARQ_ASSIGN_OR_RETURN(const ProcSample before, server_->Sample());
  std::vector<uint64_t> cpu_ticks;
  const LoadResult window = Pass(seconds_, false, &cpu_ticks);
  HIERARQ_ASSIGN_OR_RETURN(const ProcSample after, server_->Sample());
  out->Count(window);
  CheckReader(out);

  const Windowed windowed = ByWindow(window, cpu_ticks);
  out->end_to_end = {
      {"p50_us", windowed.p50_us, "us"},
      {"p99_us", Percentile(window.closed_us, 0.99), "us"},
      {"ops_per_s", windowed.ops_per_s, "1/s"},
      {"server_cpu_us_per_op", windowed.cpu_us_per_op, "us"},
      {"setup_s", Median(setup_s), "s"},
      {"setup_rss_mb", Median(setup_rss_mb), "MB"},
      {"server_rss_mb", static_cast<double>(before.vm_rss_kb) / 1024.0, "MB"},
  };
  out->samples = {{"p50_us", window.closed_us.size()},
                  {"p99_us", window.closed_us.size()},
                  {"sub_windows", windowed.windows},
                  {"setup_s", setup_s.size()}};
  if (mix_) {
    out->samples.emplace_back("bench.reader_p50_us", window.reader_us.size());
  }

  // The traced window: QueryStats on every query, one span per RPC, and
  // metrics scraped at both ends.
  std::optional<obs::Tracer> tracer;
  LoadResult traced;
  MetricsScrape m0;
  MetricsScrape m1;
  std::vector<double> ping_us;
  if (options_.trace) {
    HIERARQ_ASSIGN_OR_RETURN(m0, Scrape());
    tracer.emplace();
    tracer->Install();
    traced = Pass(seconds_, true);
    HIERARQ_ASSIGN_OR_RETURN(m1, Scrape());
    out->Count(traced);
    CheckReader(out);
    for (int i = 0; i < (options_.smoke ? 200 : 2000); ++i) {
      const Clock::time_point start = Clock::now();
      obs::Span span("rpc.ping", "bench");
      if (const Status pinged = control_.Ping(); !pinged.ok()) {
        return pinged;
      }
      ping_us.push_back(std::chrono::duration<double, std::micro>(
                            Clock::now() - start)
                            .count());
    }
  }

  std::vector<double> recover_s;
  if (mix_) {
    HIERARQ_RETURN_NOT_OK(RecoverCycles(out, &recover_s));
  }
  control_.Close();
  if (const Status stopped = server_->Stop(); !stopped.ok()) {
    out->Error("server stop: " + stopped.ToString());
  }
  server_.reset();

  if (!options_.trace) {
    return Status::OK();
  }

  // Per-layer numbers.
  HIERARQ_ASSIGN_OR_RETURN(
      auto probes,
      ProbeLayers(data_, options_.seed, mix_ ? DataDir() : std::string()));
  tracer->Uninstall();
  const std::string trace_path =
      options_.work_dir + "/results/trace_" + spec_.name + ".json";
  if (!tracer->WriteChromeTraceFile(trace_path) ||
      !TraceAccepted(trace_path)) {
    out->Error("trace rejected: " + trace_path);
  }

  std::vector<double> queue_us;
  std::vector<double> exec_us;
  std::vector<double> unattributed_us;
  double rows_scanned = 0.0;
  double steps = 0.0;
  double parallel_steps = 0.0;
  for (size_t i = 0; i < traced.stats.size(); ++i) {
    const obs::QueryStats& s = traced.stats[i];
    queue_us.push_back(static_cast<double>(s.queue_wait_ns) / 1e3);
    exec_us.push_back(static_cast<double>(s.exec_ns) / 1e3);
    unattributed_us.push_back(traced.stats_rtt_us[i] - queue_us.back() -
                              exec_us.back());
    rows_scanned +=
        static_cast<double>(s.rule1_rows_scanned + s.rule2_rows_scanned);
    steps += static_cast<double>(s.steps_total);
    parallel_steps += static_cast<double>(s.steps_parallel);
  }
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto delta = [&](const char* name) {
    return CounterDelta(m0, m1, name);
  };
  const double jobs = delta("async.jobs_completed");
  const double eval_p50_us =
      HistogramDeltaQuantile(m0, m1, "server.query_ns", 0.50) / 1e3;
  const double exec_p50_us = Percentile(exec_us, 0.50);
  const double pre_exec_us = std::max(0.0, eval_p50_us - exec_p50_us);
  const double traced_ops_per_s = ByWindow(traced, {}).ops_per_s;

  out->per_layer = {
      {"net.ping_rtt_us", Median(ping_us), "us"},
      {"net.unattributed_us", Median(unattributed_us), "us"},
      {"net.codec_request_ns", probes["net.codec_request_ns"], "ns"},
      {"net.codec_result_ns", probes["net.codec_result_ns"], "ns"},
      {"net.result_bytes", probes["net.result_bytes"], "bytes"},
      {"async.queue_wait_us.p50", Percentile(queue_us, 0.50), "us"},
      {"async.queue_wait_us.p99", Percentile(queue_us, 0.99), "us"},
      {"async.rejected_ratio",
       ratio(delta("async.jobs_rejected_queue_full"),
             delta("async.jobs_accepted") +
                 delta("async.jobs_rejected_queue_full")),
       "ratio"},
      {"server.eval_us.p50", eval_p50_us, "us"},
      {"server.eval_us.p99",
       HistogramDeltaQuantile(m0, m1, "server.query_ns", 0.99) / 1e3, "us"},
      {"server.pre_exec_us", pre_exec_us, "us"},
      {"query.parse_us", probes["query.parse_us"], "us"},
      {"service.plan_cache_hit_ratio",
       ratio(delta("planner.plan_cache_hits"),
             delta("planner.plan_cache_hits") + delta("planner.plans_built")),
       "ratio"},
      {"service.annotation_cache_hit_ratio",
       ratio(delta("service.annotation_cache_hits"),
             delta("service.annotation_cache_hits") +
                 delta("service.annotation_cache_misses")),
       "ratio"},
      {"service.annotation_scans_per_query",
       ratio(delta("service.annotation_scans"), delta("service.requests")),
       "count"},
      {"service.annotate_ms", probes["service.annotate_ms"], "ms"},
      {"core.exec_us.p50", exec_p50_us, "us"},
      {"core.replay_ms", probes["core.replay_ms"], "ms"},
      {"core.base_copy_ms", probes["core.base_copy_ms"], "ms"},
      {"core.rows_scanned_per_query",
       ratio(rows_scanned, static_cast<double>(traced.stats.size())),
       "count"},
      {"core.parallel_step_ratio", ratio(parallel_steps, steps), "ratio"},
      {"core.shapley_ms", probes["core.shapley_ms"], "ms"},
      {"core.satcount_run_us", probes["core.satcount_run_us"], "us"},
      {"util.pool_tasks_per_query",
       ratio(delta("workerpool.tasks_executed"), jobs), "count"},
      {"util.pool_latch_waits_per_query",
       ratio(delta("workerpool.latch_waits"), jobs), "count"},
      {"data.load_s", probes["data.load_s"], "s"},
      {"incremental.delta_parse_us", probes["incremental.delta_parse_us"],
       "us"},
      {"incremental.apply_us", probes["incremental.apply_us"], "us"},
      {"persist.wal_append_us.p50",
       HistogramDeltaQuantile(m0, m1, "persist.wal_append_ns", 0.50) / 1e3,
       "us"},
      {"persist.wal_append_us.p99",
       HistogramDeltaQuantile(m0, m1, "persist.wal_append_ns", 0.99) / 1e3,
       "us"},
      {"persist.snapshot_ms",
       HistogramDeltaMean(m0, m1, "persist.snapshot_ns") / 1e6, "ms"},
      {"persist.snapshots_per_kupdate",
       1e3 * ratio(delta("persist.snapshots"), delta("persist.wal_appends")),
       "count"},
      {"persist.recover_ms", probes["persist.recover_ms"], "ms"},
      {"persist.recover_s", Median(recover_s), "s"},
      {"persist.write_amp",
       ratio(static_cast<double>(after.write_bytes - before.write_bytes),
             static_cast<double>(window.delta_bytes)),
       "ratio"},
      {"obs.trace_overhead_ratio",
       ratio(windowed.ops_per_s, traced_ops_per_s),
       "ratio"},
      {"bench.reader_p50_us", Percentile(window.reader_us, 0.50), "us"},
      {"bench.reader_p99_us", Percentile(window.reader_us, 0.99), "us"},
      {"bench.reader_late_p99_us", Percentile(window.reader_late_us, 0.99),
       "us"},
  };
  out->samples.emplace_back("async.queue_wait_us.p99", traced.stats.size());
  out->samples.emplace_back("net.ping_rtt_us", ping_us.size());

  if (spec_.name == std::string("point_small")) {
    const double rtt = Median(traced.stats_rtt_us);
    const double ping = Median(ping_us);
    const double queue = Percentile(queue_us, 0.50);
    const double sum = ping + queue + pre_exec_us + exec_p50_us;
    char note[320];
    std::snprintf(note, sizeof(note),
                  "stage sum (p50s): ping %.1f + queue wait %.1f + pre-exec "
                  "%.1f + exec %.1f = %.1f us; measured RTT p50 %.1f us; "
                  "residual %.1f us",
                  ping, queue, pre_exec_us, exec_p50_us, sum, rtt, rtt - sum);
    out->note = note;
  }
  return Status::OK();
}

void PrintEnvironment(const Options& options, const std::string& run_dir) {
  std::printf(
      "# env nproc=%zu hardware_concurrency=%u data_dir_fs=%s simd=%s "
      "storage=%s seed=%llu git=%s\n",
      UsableCpus(), std::thread::hardware_concurrency(),
      FilesystemType(run_dir).c_str(),
      simd::LevelName(simd::ActiveLevel()),
      StorageKindName(kDefaultStorageKind),
      static_cast<unsigned long long>(options.seed), options.git_rev.c_str());
}

/// The results file: the same numbers and environment the run printed.
void WriteResults(const Options& options, const WorkloadSpec& spec,
                  double seconds, const std::string& run_dir,
                  const Outcome& outcome) {
  std::string samples = "{";
  for (size_t i = 0; i < outcome.samples.size(); ++i) {
    samples += (i > 0 ? ", " : "") + JsonString(outcome.samples[i].first) +
               ": " + std::to_string(outcome.samples[i].second);
  }
  samples += "}";
  std::string errors = "[";
  for (size_t i = 0; i < outcome.errors.size(); ++i) {
    errors += (i > 0 ? ", " : "") + JsonString(outcome.errors[i]);
  }
  errors += "]";
  const std::string dir = options.work_dir + "/results";
  const std::string path =
      dir + "/" + spec.name + "-seed" + std::to_string(options.seed) +
      (options.trace ? "-trace" : "") + "-" +
      std::to_string(std::chrono::system_clock::now().time_since_epoch() /
                     std::chrono::milliseconds(1)) +
      ".json";
  std::ofstream file(path);
  file << "{\"workload\": " << JsonString(spec.name)
       << ", \"seed\": " << options.seed << ", \"seconds\": "
       << JsonNumber(seconds) << ", \"trace\": " << (options.trace ? 1 : 0)
       << ", \"env\": {\"nproc\": " << UsableCpus()
       << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ", \"data_dir_fs\": " << JsonString(FilesystemType(run_dir))
       << ", \"simd\": "
       << JsonString(simd::LevelName(simd::ActiveLevel()))
       << ", \"storage\": "
       << JsonString(StorageKindName(kDefaultStorageKind))
       << ", \"git\": " << JsonString(options.git_rev) << "}"
       << ", \"correct\": " << (outcome.correct() ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed
       << ", \"end_to_end\": " << MetricsJson(outcome.end_to_end)
       << ", \"per_layer\": " << MetricsJson(outcome.per_layer)
       << ", \"samples\": " << samples << ", \"errors\": " << errors
       << "}\n";
}

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-8s %-36s %14.4f %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int RunAll(const Options& options) {
  std::error_code ignored;
  fs::create_directories(options.work_dir + "/results", ignored);
  bool all_correct = true;
  for (const WorkloadSpec* spec : options.workloads) {
    WorkloadRun run(*spec, options);
    Outcome outcome;
    std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", spec->name,
                static_cast<unsigned long long>(options.seed), run.seconds(),
                options.trace ? 1 : 0);
    std::fflush(stdout);
    if (const Status status = run.Run(&outcome); !status.ok()) {
      std::fprintf(stderr, "hierarq_bench: %s: %s\n", spec->name,
                   status.ToString().c_str());
      return 1;
    }
    PrintEnvironment(options, run.run_dir());
    for (const auto& [name, n] : outcome.samples) {
      std::printf("# samples %s=%zu\n", name.c_str(), n);
    }
    PrintMetrics("e2e", outcome.end_to_end);
    PrintMetrics("layer", outcome.per_layer);
    if (!outcome.note.empty()) {
      std::printf("# %s\n", outcome.note.c_str());
    }
    std::printf("# error_ratio=%.6g (%llu failed of %llu attempted)\n",
                outcome.attempted > 0
                    ? static_cast<double>(outcome.failed) /
                          static_cast<double>(outcome.attempted)
                    : 0.0,
                static_cast<unsigned long long>(outcome.failed),
                static_cast<unsigned long long>(outcome.attempted));
    for (const std::string& error : outcome.errors) {
      std::fprintf(stderr, "hierarq_bench: %s: %s\n", spec->name,
                   error.c_str());
    }
    WriteResults(options, *spec, run.seconds(), run.run_dir(), outcome);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                outcome.correct() ? "true" : "false",
                static_cast<unsigned long long>(
                    std::max<uint64_t>(outcome.attempted, 1)),
                static_cast<unsigned long long>(outcome.failed),
                MetricsJson(options.trace ? outcome.per_layer
                                          : outcome.end_to_end)
                    .c_str());
    std::fflush(stdout);
    all_correct = all_correct && outcome.correct();
  }
  return all_correct ? 0 : 1;
}

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "hierarq_bench: %s\n"
               "usage: hierarq_bench [--workload NAME] [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "                     [--smoke] [--plant-mismatch] "
               "[--work-dir DIR] [--git-rev REV]\n",
               problem.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  std::vector<std::pair<std::string, std::string>> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke" || arg == "--plant-mismatch" || arg == "--trace") {
      // "--trace" alone is a switch; "--trace 0|1" gives the value.
      if (arg == "--trace" && i + 1 < argc &&
          (std::string(argv[i + 1]) == "0" || std::string(argv[i + 1]) == "1")) {
        flags.emplace_back(arg, argv[++i]);
      } else {
        flags.emplace_back(arg, "1");
      }
    } else if (const size_t eq = arg.find('='); eq != std::string::npos) {
      flags.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (i + 1 < argc) {
      flags.emplace_back(arg, argv[++i]);
    } else {
      return Usage("missing value for " + arg);
    }
  }
  for (const auto& [flag, value] : flags) {
    if (flag == "--workload") {
      const WorkloadSpec* spec = FindWorkload(value);
      if (spec == nullptr) {
        return Usage("unknown workload '" + value + "'");
      }
      options.workloads.push_back(spec);
    } else if (flag == "--seed") {
      auto seed = ParseInt64(value);
      if (!seed.ok() || *seed < 0) {
        return Usage("bad seed '" + value + "'");
      }
      options.seed = static_cast<uint64_t>(*seed);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        return Usage("bad seconds '" + value + "'");
      }
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--smoke") {
      options.smoke = true;
    } else if (flag == "--plant-mismatch") {
      options.plant_mismatch = true;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--git-rev") {
      options.git_rev = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (options.workloads.empty()) {
    for (const WorkloadSpec& spec : AllWorkloads()) {
      options.workloads.push_back(&spec);
    }
  }
  return RunAll(options);
}

}  // namespace
}  // namespace hierarq::bench

int main(int argc, char** argv) { return hierarq::bench::Main(argc, argv); }
