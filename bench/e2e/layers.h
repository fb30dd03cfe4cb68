#ifndef HIERARQ_BENCH_E2E_LAYERS_H_
#define HIERARQ_BENCH_E2E_LAYERS_H_

/// \file layers.h
/// \brief Per-layer numbers, measured from outside the server: window
/// deltas of its kMetrics scrape, and in-process timings of each layer's
/// public functions on the workload's own inputs.

#include <cstdint>
#include <map>
#include <string>

#include "hierarq/util/result.h"
#include "workloads.h"

namespace hierarq::bench {

/// One kMetrics scrape in its text rendering.
struct MetricsScrape {
  std::map<std::string, uint64_t> counters;
  /// Histogram name → bucket lower bound → observations.
  std::map<std::string, std::map<uint64_t, uint64_t>> histograms;
  std::map<std::string, uint64_t> histogram_sums;
};

Result<MetricsScrape> ParseMetricsText(const std::string& text);

/// Change of a counter between two scrapes (0 when absent).
double CounterDelta(const MetricsScrape& before, const MetricsScrape& after,
                    const std::string& name);

/// The `q`-quantile of the observations a histogram gained between two
/// scrapes, interpolated inside its power-of-two buckets; 0 when none.
double HistogramDeltaQuantile(const MetricsScrape& before,
                              const MetricsScrape& after,
                              const std::string& name, double q);

/// Mean of the observations a histogram gained; 0 when none.
double HistogramDeltaMean(const MetricsScrape& before,
                          const MetricsScrape& after, const std::string& name);

/// Times the public functions each layer exposes on `data`'s inputs and
/// returns one value per [P] metric, named as in BENCHMARK.json. Each
/// call is one span on the installed tracer, if any. `data_dir` is the
/// update_mix server's data directory after its run ("" otherwise).
Result<std::map<std::string, double>> ProbeLayers(const WorkloadData& data,
                                                  uint64_t seed,
                                                  const std::string& data_dir);

}  // namespace hierarq::bench

#endif  // HIERARQ_BENCH_E2E_LAYERS_H_
