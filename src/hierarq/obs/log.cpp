#include "hierarq/obs/log.h"

#include <chrono>
#include <cstdio>
#include <iostream>

#include "hierarq/obs/trace.h"

namespace hierarq::obs {

namespace {

uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// key=value values quote only when they must (spaces, quotes, '=',
/// control bytes) so the common line stays clean.
void AppendKvValue(std::string* out, std::string_view value) {
  bool needs_quotes = value.empty();
  for (const char c : value) {
    if (c == ' ' || c == '"' || c == '=' ||
        static_cast<unsigned char>(c) < 0x20) {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) {
    out->append(value);
    return;
  }
  *out += '"';
  AppendJsonEscaped(out, value);
  *out += '"';
}

}  // namespace

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "unknown";
}

Logger::Logger(Options options)
    : min_level_(options.min_level),
      json_(options.json),
      sink_(options.sink != nullptr ? options.sink : &std::cerr),
      never_drop_errors_(options.never_drop_errors),
      rate_per_sec_(options.rate_per_sec),
      burst_(options.burst != 0 ? options.burst
                                : (options.rate_per_sec != 0
                                       ? options.rate_per_sec
                                       : 0)),
      tokens_(static_cast<double>(burst_)),
      last_refill_ns_(Tracer::NowNs()) {}

void Logger::Configure(Options options) {
  min_level_.store(options.min_level, std::memory_order_relaxed);
  json_ = options.json;
  sink_ = options.sink != nullptr ? options.sink : &std::cerr;
  never_drop_errors_ = options.never_drop_errors;
  rate_per_sec_ = options.rate_per_sec;
  burst_ = options.burst != 0
               ? options.burst
               : (options.rate_per_sec != 0 ? options.rate_per_sec : 0);
  tokens_ = static_cast<double>(burst_);
  last_refill_ns_ = Tracer::NowNs();
}

Logger& Logger::Global() {
  static Logger* const logger = new Logger(Options{});
  return *logger;
}

bool Logger::Admit(LogLevel level) {
  if (rate_per_sec_ == 0) {
    return true;
  }
  if (never_drop_errors_ && level >= LogLevel::kError) {
    return true;
  }
  std::lock_guard<std::mutex> lock(bucket_mutex_);
  const uint64_t now = Tracer::NowNs();
  const uint64_t elapsed = now - last_refill_ns_;
  last_refill_ns_ = now;
  tokens_ += static_cast<double>(elapsed) * 1e-9 *
             static_cast<double>(rate_per_sec_);
  const double cap = static_cast<double>(burst_);
  if (tokens_ > cap) {
    tokens_ = cap;
  }
  if (tokens_ < 1.0) {
    return false;
  }
  tokens_ -= 1.0;
  return true;
}

void Logger::Log(LogLevel level, std::string_view event,
                 std::initializer_list<LogField> fields) {
  if (level < min_level_.load(std::memory_order_relaxed)) {
    return;
  }
  if (!Admit(level)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Per-thread buffer: the whole line is formatted lock-free, and the
  // buffer's capacity survives across calls on this thread.
  thread_local std::string line;
  line.clear();
  if (json_) {
    line += "{\"ts_ns\":\"";
    line += std::to_string(WallNowNs());
    line += "\",\"level\":\"";
    line += LogLevelName(level);
    line += "\",\"event\":\"";
    AppendJsonEscaped(&line, event);
    line += '"';
    for (const LogField& field : fields) {
      line += ",\"";
      AppendJsonEscaped(&line, field.key);
      line += "\":\"";
      AppendJsonEscaped(&line, field.value);
      line += '"';
    }
    line += "}\n";
  } else {
    line += "ts_ns=";
    line += std::to_string(WallNowNs());
    line += " level=";
    line += LogLevelName(level);
    line += " event=";
    AppendKvValue(&line, event);
    for (const LogField& field : fields) {
      line += ' ';
      line.append(field.key);
      line += '=';
      AppendKvValue(&line, field.value);
    }
    line += '\n';
  }
  std::lock_guard<std::mutex> lock(sink_mutex_);
  sink_->write(line.data(), static_cast<std::streamsize>(line.size()));
  sink_->flush();
}

}  // namespace hierarq::obs
