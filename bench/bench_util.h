#ifndef HIERARQ_BENCH_BENCH_UTIL_H_
#define HIERARQ_BENCH_BENCH_UTIL_H_

// Shared helpers for the benchmark binaries. Each binary regenerates one
// paper artifact (see DESIGN.md §2 and EXPERIMENTS.md): it first prints a
// human-readable reproduction report (the paper's claimed values next to
// hierarq's measured ones), then runs its google-benchmark timing sweeps.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hierarq/data/storage.h"
#include "hierarq/obs/query_stats.h"
#include "hierarq/obs/trace.h"
#include "hierarq/util/simd.h"
#include "hierarq/util/timer.h"

namespace hierarq::bench {

/// Runs `fn` once to warm up (plan builds, scratch sizing), then
/// repeatedly for at least `seconds` of wall clock; returns invocations
/// per second. The shared harness behind every BENCH_*.json throughput
/// row — keep the warm-up/measure shape identical across emitters so
/// cross-binary numbers stay comparable.
template <typename Fn>
double MeasureRate(Fn&& fn, double seconds = 0.4) {
  fn();
  size_t iterations = 0;
  WallTimer timer;
  do {
    fn();
    ++iterations;
  } while (timer.ElapsedSeconds() < seconds);
  return static_cast<double>(iterations) / timer.ElapsedSeconds();
}

inline void PrintHeader(const std::string& experiment,
                        const std::string& claim) {
  std::printf("\n====================================================\n");
  std::printf("Experiment: %s\n", experiment.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("====================================================\n");
}

inline void PrintRow(const std::string& what, const std::string& paper,
                     const std::string& measured) {
  std::printf("  %-44s paper=%-14s measured=%s\n", what.c_str(),
              paper.c_str(), measured.c_str());
}

inline void PrintNote(const std::string& note) {
  std::printf("  %s\n", note.c_str());
}

/// Collects named rows of numeric metrics and writes them as one JSON
/// document, so successive PRs can diff measured throughput machine-to-
/// machine (e.g. BENCH_algorithm1.json records ops/sec per storage
/// backend). The format is flat on purpose:
///   {"benchmark": "...", "storage": "...", "hardware_threads": N,
///    "rows": [{"name": "...", "simd": "...", "metric_a": 1.0, ...}, ...]}
/// The top-level "storage" field is the build's *default* backend; rows
/// measured under an explicit runtime backend append "/<backend>" to
/// their name (see StorageRow) so flat-vs-columnar A/B pairs sit side by
/// side in one document regardless of the build configuration. The
/// top-level "hardware_threads" is std::thread::hardware_concurrency()
/// — the first thing to check before comparing thread-scaling rows
/// across machines (a 1-core CI container cannot show a parallel
/// speedup). Each row's "simd" string is the SIMD tier that was
/// *actually dispatched* while the row was measured (simd::ActiveLevel
/// at AddRow time), not the build-time or A/B-requested tier, so
/// rows are interpretable after the fact; bench_compare
/// joins rows by name and only diffs numeric fields, so the tag never
/// trips the regression tripwire.
class JsonReport {
 public:
  JsonReport(std::string benchmark, std::string path)
      : benchmark_(std::move(benchmark)), path_(std::move(path)) {}

  /// Adds one row, stamping it with the currently dispatched SIMD tier;
  /// metrics render in insertion order.
  void AddRow(const std::string& name,
              std::vector<std::pair<std::string, double>> metrics) {
    rows_.push_back(
        Row{name, simd::LevelName(simd::ActiveLevel()), std::move(metrics)});
  }

  /// Writes the document; returns false (with a note on stderr) on I/O
  /// failure so benches never abort over a read-only working directory.
  bool WriteToFile() const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReport: cannot open %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n", benchmark_.c_str());
    std::fprintf(f, "  \"storage\": \"%s\",\n", StorageBackend());
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"rows\": [");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"simd\": \"%s\"",
                   i == 0 ? "" : ",", rows_[i].name.c_str(),
                   rows_[i].simd.c_str());
      for (const auto& [key, value] : rows_[i].metrics) {
        std::fprintf(f, ", \"%s\": %.6g", key.c_str(), value);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("  wrote %s\n", path_.c_str());
    return true;
  }

  /// The default storage backend of AnnotatedRelation, recorded as the
  /// document's top-level "storage" field.
  static const char* StorageBackend() {
    return StorageKindName(kDefaultStorageKind);
  }

  /// Row name for a measurement taken under an explicit runtime backend:
  /// "base/<backend>".
  static std::string StorageRow(const std::string& base, StorageKind kind) {
    return base + "/" + StorageKindName(kind);
  }

 private:
  struct Row {
    std::string name;
    /// Dispatched SIMD tier at measurement time (simd::LevelName).
    std::string simd;
    std::vector<std::pair<std::string, double>> metrics;
  };

  std::string benchmark_;
  std::string path_;
  std::vector<Row> rows_;
};

/// Measures `fn` (a full replay of some workload) untraced and then with
/// a `Tracer` installed, and records both as rows in `report`:
///   "instrumentation/untraced"  replays_per_sec
///   "instrumentation/traced"    replays_per_sec, overhead_ratio
/// `overhead_ratio` is untraced/traced rate (1.0 = free, 1.05 = 5%
/// slower). The untraced row is the one the CI tripwire guards — the
/// disabled emit points (one relaxed load each) must stay invisible; the
/// traced row documents the cost of actually recording.
template <typename Fn>
void AddInstrumentationOverheadRows(JsonReport* report, Fn&& fn) {
  const double untraced = MeasureRate(fn);
  obs::Tracer tracer;
  tracer.Install();
  const double traced = MeasureRate(fn);
  tracer.Uninstall();
  report->AddRow("instrumentation/untraced",
                 {{"replays_per_sec", untraced}});
  report->AddRow("instrumentation/traced",
                 {{"replays_per_sec", traced},
                  {"overhead_ratio", traced > 0.0 ? untraced / traced : 0.0}});
  std::printf("  instrumentation overhead: untraced=%.0f/s traced=%.0f/s "
              "(x%.3f)\n",
              untraced, traced, traced > 0.0 ? untraced / traced : 0.0);
}

/// Same shape for per-query accounting (obs/query_stats.h): `fn` with no
/// collector installed (the default — one thread_local load per run,
/// must stay invisible) versus with a `ScopedQueryStats` collector
/// counting every step:
///   "accounting/off"  replays_per_sec
///   "accounting/on"   replays_per_sec, overhead_ratio
/// The off row is the one the ≤2% budget guards; a regression here means
/// a runner lost its hoisted null check.
template <typename Fn>
void AddAccountingOverheadRows(JsonReport* report, Fn&& fn) {
  const double off = MeasureRate(fn);
  obs::QueryStats stats;
  double on;
  {
    obs::ScopedQueryStats scope(&stats);
    on = MeasureRate(fn);
  }
  report->AddRow("accounting/off", {{"replays_per_sec", off}});
  report->AddRow("accounting/on",
                 {{"replays_per_sec", on},
                  {"overhead_ratio", on > 0.0 ? off / on : 0.0}});
  std::printf("  accounting overhead: off=%.0f/s on=%.0f/s (x%.3f)\n",
              off, on, on > 0.0 ? off / on : 0.0);
}

/// Runs the report function, then google-benchmark.
#define HIERARQ_BENCH_MAIN(report_fn)                       \
  int main(int argc, char** argv) {                         \
    report_fn();                                            \
    ::benchmark::Initialize(&argc, argv);                   \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) { \
      return 1;                                             \
    }                                                       \
    ::benchmark::RunSpecifiedBenchmarks();                  \
    ::benchmark::Shutdown();                                \
    return 0;                                               \
  }

}  // namespace hierarq::bench

#endif  // HIERARQ_BENCH_BENCH_UTIL_H_
