#include "load.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "hierarq/obs/trace.h"

namespace hierarq::bench {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Runs `body(thread, stop, start, out)` on `threads` threads for
/// `options.seconds`, calling `options.on_second` at each whole second,
/// then raises `stop`, joins, and merges their results.
template <typename Body>
LoadResult RunThreads(size_t threads, const LoadOptions& options, Body body) {
  std::atomic<bool> stop{false};
  std::vector<LoadResult> results(threads);
  const Clock::time_point start = Clock::now();
  if (options.on_second) {
    options.on_second(0);
  }
  {
    std::vector<std::jthread> workers;
    for (size_t i = 0; i < threads; ++i) {
      workers.emplace_back([&body, &stop, &results, start, i] {
        body(i, stop, start, &results[i]);
      });
    }
    for (int second = 1; second <= options.seconds; ++second) {
      std::this_thread::sleep_until(start + Seconds(second));
      if (options.on_second) {
        options.on_second(second);
      }
    }
    std::this_thread::sleep_until(start + Seconds(options.seconds));
    stop.store(true);
  }
  LoadResult merged;
  for (const LoadResult& result : results) {
    merged.Merge(result);
  }
  merged.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return merged;
}

}  // namespace

void LoadResult::Fail(const std::string& error) {
  ++failed;
  if (first_error.empty()) {
    first_error = error;
  }
}

void LoadResult::Merge(const LoadResult& other) {
  const auto append = [](std::vector<double>* to,
                         const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&closed_us, other.closed_us);
  append(&closed_at_s, other.closed_at_s);
  append(&reader_at_s, other.reader_at_s);
  append(&reader_us, other.reader_us);
  append(&reader_late_us, other.reader_late_us);
  append(&stats_rtt_us, other.stats_rtt_us);
  stats.insert(stats.end(), other.stats.begin(), other.stats.end());
  attempted += other.attempted;
  failed += other.failed;
  queries += other.queries;
  deltas += other.deltas;
  delta_bytes += other.delta_bytes;
  if (first_error.empty()) {
    first_error = other.first_error;
  }
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(std::floor(rank));
  const size_t above = std::min(below + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(below);
  return values[below] + frac * (values[above] - values[below]);
}

LoadResult RunClosedQueries(const std::vector<QueryCase>& cases,
                            size_t clients, const LoadOptions& options) {
  return RunThreads(clients, options, [&](size_t thread,
                                          const std::atomic<bool>& stop,
                                          Clock::time_point start,
                                          LoadResult* out) {
    net::HierarqClient client;
    if (const Status connected = client.Connect("127.0.0.1", options.port);
        !connected.ok()) {
      ++out->attempted;
      out->Fail("connect: " + connected.ToString());
      return;
    }
    for (size_t next = thread; !stop.load(); ++next) {
      const QueryCase& expected = cases[next % cases.size()];
      ++out->attempted;
      const Clock::time_point sent = Clock::now();
      Result<net::QueryResult> result = [&] {
        obs::Span span("rpc.query", "bench");
        return client.Query(expected.solver, expected.query, 0, false,
                            options.traced);
      }();
      const Clock::time_point replied = Clock::now();
      if (!result.ok()) {
        out->Fail(std::string(net::SolverKindName(expected.solver)) + ": " +
                  result.status().ToString());
        if (!client.connected()) {
          return;
        }
        continue;
      }
      if (!Matches(expected, *result)) {
        out->Fail(std::string("wrong ") +
                  net::SolverKindName(expected.solver) + " answer to " +
                  expected.query);
        continue;
      }
      ++out->queries;
      const double rtt = MicrosBetween(sent, replied);
      out->closed_us.push_back(rtt);
      out->closed_at_s.push_back(SecondsBetween(start, replied));
      if (options.traced) {
        out->stats.push_back(result->stats);
        out->stats_rtt_us.push_back(rtt);
      }
    }
  });
}

// -- update_mix --------------------------------------------------------

UpdateMix::UpdateMix(const WorkloadData& data, uint64_t seed)
    : stream_(data.tid, seed), cases_(data.cases) {}

bool UpdateMix::WriteOne(net::HierarqClient& client, Clock::time_point start,
                         LoadResult* out) {
  const std::string line = stream_.NextLine();
  const uint64_t generation = acked_.load() + 1;
  sent_.store(generation);
  ++out->attempted;
  const Clock::time_point sent = Clock::now();
  Result<net::DeltaAck> ack = [&] {
    obs::Span span("rpc.delta", "bench");
    return client.ApplyDelta(line);
  }();
  const Clock::time_point replied = Clock::now();
  if (!ack.ok()) {
    // The stream has moved past a line the server may not hold; the
    // writer cannot continue consistently.
    out->Fail("delta: " + ack.status().ToString());
    return false;
  }
  if (ack->generation != generation) {
    out->Fail("delta acked generation " + std::to_string(ack->generation) +
              ", expected " + std::to_string(generation));
    return false;
  }
  lines_.push_back(line);
  acked_.store(generation);
  ++out->deltas;
  out->delta_bytes += line.size();
  out->closed_us.push_back(MicrosBetween(sent, replied));
  out->closed_at_s.push_back(SecondsBetween(start, replied));
  return true;
}

void UpdateMix::WriteLines(net::HierarqClient& client, size_t n,
                           LoadResult* out) {
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    if (!WriteOne(client, start, out)) {
      return;
    }
  }
}

void UpdateMix::ReadLoop(const LoadOptions& options,
                         const std::atomic<bool>& stop,
                         Clock::time_point start, LoadResult* out) {
  net::HierarqClient client;
  if (const Status connected = client.Connect("127.0.0.1", options.port);
      !connected.ok()) {
    ++out->attempted;
    out->Fail("connect: " + connected.ToString());
    return;
  }
  const Clock::duration period = Seconds(1.0 / kReaderRate);
  for (uint64_t i = 0; !stop.load(); ++i) {
    const Clock::time_point due = start + period * static_cast<int64_t>(i);
    std::this_thread::sleep_until(due);
    if (stop.load()) {
      break;
    }
    const QueryCase& expected = cases_[i % cases_.size()];
    ++out->attempted;
    const uint64_t lo = acked_.load();
    const Clock::time_point sent = Clock::now();
    Result<net::QueryResult> result = [&] {
      obs::Span span("rpc.query", "bench");
      return client.Query(expected.solver, expected.query, 0, false,
                          options.traced);
    }();
    const Clock::time_point replied = Clock::now();
    const uint64_t hi = sent_.load();
    if (!result.ok()) {
      out->Fail(std::string("reader: ") + result.status().ToString());
      if (!client.connected()) {
        return;
      }
      continue;
    }
    ++out->queries;
    QueryCase answer{expected.query, expected.solver, result->count,
                     result->number, {}};
    samples_.push_back(ReaderSample{lo, hi, std::move(answer)});
    out->reader_us.push_back(MicrosBetween(due, replied));
    out->reader_at_s.push_back(SecondsBetween(start, replied));
    out->reader_late_us.push_back(MicrosBetween(due, sent));
    if (options.traced) {
      out->stats.push_back(result->stats);
      out->stats_rtt_us.push_back(MicrosBetween(sent, replied));
    }
  }
}

LoadResult UpdateMix::Run(const LoadOptions& options) {
  // Thread 0 writes, thread 1 reads; they share only the two atomics.
  return RunThreads(2, options, [&](size_t thread,
                                    const std::atomic<bool>& stop,
                                    Clock::time_point start, LoadResult* out) {
    if (thread == 1) {
      ReadLoop(options, stop, start, out);
      return;
    }
    net::HierarqClient client;
    if (const Status connected = client.Connect("127.0.0.1", options.port);
        !connected.ok()) {
      ++out->attempted;
      out->Fail("connect: " + connected.ToString());
      return;
    }
    while (!stop.load() && WriteOne(client, start, out)) {
    }
  });
}

Result<uint64_t> UpdateMix::CheckReaderSamples(ReferenceReplay& reference) {
  // Samples arrive in send order, so `lo` never decreases and the
  // reference only moves forward.
  uint64_t mismatches = 0;
  for (const ReaderSample& sample : samples_) {
    bool matched = false;
    for (uint64_t g = std::max(sample.lo, reference.generation());
         g <= sample.hi && !matched; ++g) {
      HIERARQ_RETURN_NOT_OK(reference.AdvanceTo(lines_, g));
      HIERARQ_ASSIGN_OR_RETURN(const QueryCase expected,
                               reference.Answer(sample.answer.solver));
      matched = sample.answer.solver == net::SolverKind::kCount
                    ? expected.count == sample.answer.count
                    : SameProbability(expected.probability,
                                      sample.answer.probability);
    }
    mismatches += matched ? 0 : 1;
  }
  samples_.clear();
  return mismatches;
}

}  // namespace hierarq::bench
