#ifndef HIERARQ_OBS_LOG_H_
#define HIERARQ_OBS_LOG_H_

/// \file log.h
/// \brief Structured logging: leveled key=value / JSON event lines.
///
/// The server's operational narrative — startup, shutdown, slow queries,
/// protocol errors — needs to be grep-able by a human AND parseable by a
/// collector, which raw printf lines are not. A `Logger` emits one line
/// per event in one of two sink formats over the SAME call sites:
///
///   key=value   ts_ns=171234 level=info event=listening port=9000
///   JSON        {"ts_ns":"171234","level":"info","event":"listening",...}
///
/// Three properties matter at server scale and are built in rather than
/// bolted on at every call site:
///
///   * **Per-thread buffering.** Each call formats its full line into a
///     thread_local buffer and hands the sink ONE write under the sink
///     mutex, so lines from concurrent connection threads never
///     interleave mid-line and the lock covers an append, not the
///     formatting.
///   * **Token-bucket rate limiting.** An error loop (a peer replaying a
///     malformed frame forever) must not turn the log into the DoS
///     amplifier. The bucket admits `burst` lines instantly and refills
///     at `rate_per_sec`; beyond that, lines are counted in `dropped()`
///     instead of written. Level kError and above can be exempted
///     (`Options.never_drop_errors`).
///   * **Levels.** Lines below `min_level` cost one atomic load and
///     nothing else.
///
/// Values are strings; helpers format integers at the call site
/// (`std::to_string`) — the log path is not hot enough to warrant a
/// type-erased field system, and strings keep both sinks trivial.

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace hierarq::obs {

enum class LogLevel : uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

/// "debug" / "info" / "warn" / "error".
const char* LogLevelName(LogLevel level);

/// Appends `s` to `out` escaped for the inside of a JSON string (quotes,
/// backslashes, control bytes); the caller writes the quotes. The one
/// JSON string escaper: log lines and net/wire's JSON status payload.
void AppendJsonEscaped(std::string* out, std::string_view s);

/// One structured field. The value is owned: call sites routinely pass
/// `std::to_string(...)` temporaries.
struct LogField {
  std::string_view key;
  std::string value;
};

class Logger {
 public:
  struct Options {
    LogLevel min_level = LogLevel::kInfo;
    /// false = key=value lines, true = one JSON object per line.
    bool json = false;
    /// Where lines go. nullptr = std::cerr. The stream must outlive the
    /// logger; writes are serialized by the logger's sink mutex.
    std::ostream* sink = nullptr;
    /// Token bucket: sustained lines/second admitted. 0 = unlimited.
    uint64_t rate_per_sec = 0;
    /// Bucket capacity (instantaneous burst). 0 with rate set = rate.
    uint64_t burst = 0;
    /// kError lines bypass the bucket — an operator debugging an outage
    /// needs the errors most exactly when the volume spikes.
    bool never_drop_errors = true;
  };

  Logger() : Logger(Options{}) {}
  explicit Logger(Options options);

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// Emits one event line: a `ts_ns`/`level`/`event` prefix plus
  /// `fields` in order. Thread-safe; below-level calls return after one
  /// atomic load; rate-limited calls bump `dropped()` and return.
  void Log(LogLevel level, std::string_view event,
           std::initializer_list<LogField> fields);

  void Debug(std::string_view event, std::initializer_list<LogField> fields) {
    Log(LogLevel::kDebug, event, fields);
  }
  void Info(std::string_view event, std::initializer_list<LogField> fields) {
    Log(LogLevel::kInfo, event, fields);
  }
  void Warn(std::string_view event, std::initializer_list<LogField> fields) {
    Log(LogLevel::kWarn, event, fields);
  }
  void Error(std::string_view event, std::initializer_list<LogField> fields) {
    Log(LogLevel::kError, event, fields);
  }

  /// Lines suppressed by the token bucket since construction.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  LogLevel min_level() const { return min_level_.load(std::memory_order_relaxed); }
  void set_min_level(LogLevel level) {
    min_level_.store(level, std::memory_order_relaxed);
  }

  /// The process-wide logger (stderr, key=value, info). Tools reconfigure
  /// it once at startup via `Configure` — before spawning threads.
  static Logger& Global();
  /// Re-applies `options` to this logger. NOT thread-safe against
  /// concurrent Log calls; startup-time only.
  void Configure(Options options);

 private:
  bool Admit(LogLevel level);

  std::atomic<LogLevel> min_level_;
  bool json_;
  std::ostream* sink_;
  bool never_drop_errors_;
  std::mutex sink_mutex_;

  // Token bucket, guarded by bucket_mutex_ (refill needs read-modify-
  // write of two fields; contention is bounded by the admitted rate).
  std::mutex bucket_mutex_;
  uint64_t rate_per_sec_;
  uint64_t burst_;
  double tokens_;
  uint64_t last_refill_ns_;

  std::atomic<uint64_t> dropped_{0};
};

}  // namespace hierarq::obs

#endif  // HIERARQ_OBS_LOG_H_
