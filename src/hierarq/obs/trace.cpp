#include "hierarq/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace hierarq::obs {

std::atomic<Tracer*> Tracer::current_{nullptr};

namespace {

uint64_t NextTracerId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Tracer::Tracer(size_t capacity_per_thread)
    : capacity_(capacity_per_thread > 0 ? capacity_per_thread : 1),
      id_(NextTracerId()) {}

Tracer::~Tracer() { Uninstall(); }

uint64_t Tracer::NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

Tracer::Ring* Tracer::ThisThreadRing() {
  // Keyed on the tracer id, not the pointer: a new tracer allocated at a
  // dead one's address must not inherit its rings.
  thread_local uint64_t cached_id = 0;
  thread_local Ring* cached_ring = nullptr;
  if (cached_id == id_) {
    return cached_ring;
  }
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<Ring>());
  Ring* ring = rings_.back().get();
  ring->events.resize(capacity_);
  ring->tid = static_cast<uint32_t>(rings_.size() - 1);
  cached_id = id_;
  cached_ring = ring;
  return ring;
}

void Tracer::Push(const TraceEvent& event) {
  Ring* ring = ThisThreadRing();
  TraceEvent& slot = ring->events[ring->next];
  slot = event;
  slot.tid = ring->tid;
  ring->next = ring->next + 1 == capacity_ ? 0 : ring->next + 1;
  ++ring->total;
}

void Tracer::EmitSpan(const char* name, const char* cat, uint64_t start_ns,
                      uint64_t end_ns) {
  TraceEvent event;
  event.name = name;
  event.cat = cat;
  event.kind = TraceEvent::Kind::kSpan;
  event.ts_ns = start_ns;
  event.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  Push(event);
}

void Tracer::EmitStep(uint64_t start_ns, uint64_t end_ns,
                      const TraceStepArgs& args) {
  TraceEvent event;
  event.name = args.rule == 1 ? "rule1_project" : "rule2_merge";
  event.cat = "step";
  event.kind = TraceEvent::Kind::kStep;
  event.ts_ns = start_ns;
  event.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  event.step = args;
  Push(event);
}

void Tracer::EmitInstant(const char* name, const char* arg_name, double arg) {
  TraceEvent event;
  event.name = name;
  event.kind = TraceEvent::Kind::kInstant;
  event.ts_ns = NowNs();
  event.arg_name = arg_name;
  event.arg = arg;
  Push(event);
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Ring>& ring : rings_) {
    const size_t kept = ring->total < capacity_
                            ? static_cast<size_t>(ring->total)
                            : capacity_;
    // Chronological replay of the ring: the oldest retained event sits at
    // the write cursor once the ring has wrapped, at 0 before.
    const size_t start = ring->total < capacity_ ? 0 : ring->next;
    for (size_t i = 0; i < kept; ++i) {
      out.push_back(ring->events[(start + i) % capacity_]);
    }
  }
  // Parents before children: earlier start first, and at equal starts the
  // longer (enclosing) duration first.
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) {
                return a.ts_ns < b.ts_ns;
              }
              return a.dur_ns > b.dur_ns;
            });
  return out;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t dropped = 0;
  for (const std::unique_ptr<Ring>& ring : rings_) {
    if (ring->total > capacity_) {
      dropped += ring->total - capacity_;
    }
  }
  return dropped;
}

namespace {

void AppendStepArgsJson(const TraceStepArgs& step, std::string* out) {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "{\"step\": %u, \"rule\": %u, \"backend\": \"%s\", \"simd\": \"%s\", "
      "\"rows_in\": %llu, \"rows_out\": %llu}",
      step.step_index, static_cast<unsigned>(step.rule),
      StorageKindName(step.backend), simd::LevelName(step.simd),
      static_cast<unsigned long long>(step.rows_in),
      static_cast<unsigned long long>(step.rows_out));
  *out += buf;
}

}  // namespace

void Tracer::WriteChromeTrace(std::ostream& out, int pid,
                              const std::string& trace_id) const {
  const std::vector<TraceEvent> events = Snapshot();
  // "dropped" tells validators (tools/check_trace.py) the rings wrapped:
  // step coverage can then only be checked as <=, not ==, because the
  // overwritten window may have held the missing step events.
  out << "{\"displayTimeUnit\": \"ns\", \"dropped\": " << dropped();
  if (!trace_id.empty()) {
    // No escaping needed: a wire-borne id is 1-64 bytes of
    // [0-9A-Za-z_-] (net/wire.cpp rejects any other), and HierarqClient
    // mints hex.
    out << ", \"trace_id\": \"" << trace_id << "\"";
  }
  out << ", \"traceEvents\": [";
  char buf[256];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    out << (i == 0 ? "\n" : ",\n");
    // Chrome's ts/dur are microseconds; keep ns resolution as fractions.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"pid\": %d, "
                  "\"tid\": %u, \"ts\": %.3f",
                  event.name, event.cat, pid, event.tid,
                  static_cast<double>(event.ts_ns) / 1000.0);
    out << buf;
    switch (event.kind) {
      case TraceEvent::Kind::kSpan:
        std::snprintf(buf, sizeof(buf),
                      ", \"ph\": \"X\", \"dur\": %.3f, \"args\": {}}",
                      static_cast<double>(event.dur_ns) / 1000.0);
        out << buf;
        break;
      case TraceEvent::Kind::kStep: {
        std::snprintf(buf, sizeof(buf),
                      ", \"ph\": \"X\", \"dur\": %.3f, \"args\": ",
                      static_cast<double>(event.dur_ns) / 1000.0);
        out << buf;
        std::string args;
        AppendStepArgsJson(event.step, &args);
        out << args << "}";
        break;
      }
      case TraceEvent::Kind::kInstant:
        std::snprintf(buf, sizeof(buf),
                      ", \"ph\": \"i\", \"s\": \"g\", \"args\": "
                      "{\"%s\": %.6g}}",
                      event.arg_name != nullptr ? event.arg_name : "value",
                      event.arg);
        out << buf;
        break;
    }
  }
  out << "\n]}\n";
}

bool Tracer::WriteChromeTraceFile(const std::string& path, int pid,
                                  const std::string& trace_id) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "Tracer: cannot open %s\n", path.c_str());
    return false;
  }
  WriteChromeTrace(out, pid, trace_id);
  return out.good();
}

}  // namespace hierarq::obs
