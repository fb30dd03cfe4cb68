#ifndef HIERARQ_BENCH_E2E_LOAD_H_
#define HIERARQ_BENCH_E2E_LOAD_H_

/// \file load.h
/// \brief The benchmark's load: closed-loop query clients, and the
/// update_mix pair of a closed-loop writer and an open-loop reader.
///
/// Every thread owns one `net::HierarqClient` (one connection), which
/// waits for each reply before the next request. Every answer is checked
/// on arrival, except the update_mix reader's: the database moves under
/// it, so each reader sample records the generations it could have seen
/// and `UpdateMix::CheckReaderSamples` checks it after the run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hierarq/net/client.h"
#include "hierarq/obs/query_stats.h"
#include "hierarq/util/result.h"
#include "workloads.h"

namespace hierarq::bench {

struct LoadOptions {
  uint16_t port = 0;
  double seconds = 0.0;
  /// The traced pass: every query asks for its QueryStats (kFlagStats)
  /// and every RPC is one span on the installed tracer.
  bool traced = false;
  /// Called at the start of the pass (0) and after each whole second
  /// (1, 2, ...), from the thread that runs the pass — the boundaries of
  /// the one-second sub-windows.
  std::function<void(int)> on_second;
};

/// What one pass of load did. Latencies are client-observed, in µs.
struct LoadResult {
  /// The closed-loop stream: query round trips, or update_mix's delta
  /// send → kDeltaAck.
  std::vector<double> closed_us;
  /// When each closed_us sample completed, in seconds into the pass.
  std::vector<double> closed_at_s;
  /// When each reader sample completed, in seconds into the pass.
  std::vector<double> reader_at_s;
  /// update_mix reader: reply time − due time, and send time − due time.
  std::vector<double> reader_us;
  std::vector<double> reader_late_us;
  /// Traced pass: one QueryStats per query answer, with its round trip.
  std::vector<obs::QueryStats> stats;
  std::vector<double> stats_rtt_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t queries = 0;      ///< Queries answered (checked or pending).
  uint64_t deltas = 0;       ///< Delta lines acked.
  uint64_t delta_bytes = 0;  ///< Bytes of acked delta text.
  double elapsed_s = 0.0;
  std::string first_error;

  void Fail(const std::string& error);
  /// Adds `other`'s counts and samples to this result.
  void Merge(const LoadResult& other);
};

/// Linear-interpolated `q`-quantile (q in [0, 1]); 0 for no samples.
double Percentile(std::vector<double> values, double q);

/// `clients` closed-loop threads cycling through `cases`, each starting
/// at its own offset, for `options.seconds`.
LoadResult RunClosedQueries(const std::vector<QueryCase>& cases,
                            size_t clients, const LoadOptions& options);

/// update_mix: the writer's stream, everything it got acked, and the
/// reader's pending samples, across passes and server restarts.
class UpdateMix {
 public:
  /// Reader queries per second, open loop.
  static constexpr double kReaderRate = 50.0;

  UpdateMix(const WorkloadData& data, uint64_t seed);

  /// One pass: the writer and the reader run for `options.seconds`.
  LoadResult Run(const LoadOptions& options);

  /// Sends `n` delta lines on `client`, closed loop, checking each ack.
  void WriteLines(net::HierarqClient& client, size_t n, LoadResult* out);

  /// Acked delta lines; line g moved the database from generation g to
  /// g + 1.
  const std::vector<std::string>& lines() const { return lines_; }
  uint64_t acked() const { return acked_.load(); }

  /// Checks every reader sample against `reference` replaying the acked
  /// lines: the answer must be the reference's at some generation the
  /// server could have stood at while the query ran. Returns the number
  /// of samples that match none.
  Result<uint64_t> CheckReaderSamples(ReferenceReplay& reference);

 private:
  struct ReaderSample {
    uint64_t lo = 0;  ///< Generations acked when the query was sent.
    uint64_t hi = 0;  ///< Generations sent when the reply arrived.
    QueryCase answer;
  };

  /// One delta line round trip; false once the stream cannot continue.
  bool WriteOne(net::HierarqClient& client,
                std::chrono::steady_clock::time_point start, LoadResult* out);
  void ReadLoop(const LoadOptions& options, const std::atomic<bool>& stop,
                std::chrono::steady_clock::time_point start, LoadResult* out);

  DeltaStream stream_;
  std::vector<QueryCase> cases_;
  std::vector<std::string> lines_;
  std::atomic<uint64_t> acked_{0};
  std::atomic<uint64_t> sent_{0};
  std::vector<ReaderSample> samples_;
};

}  // namespace hierarq::bench

#endif  // HIERARQ_BENCH_E2E_LOAD_H_
