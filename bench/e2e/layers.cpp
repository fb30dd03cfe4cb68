#include "layers.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <sstream>
#include <vector>

#include "hierarq/algebra/semirings.h"
#include "hierarq/core/shapley.h"
#include "hierarq/incremental/delta_text.h"
#include "hierarq/obs/query_stats.h"
#include "hierarq/obs/trace.h"
#include "hierarq/persist/fault_io.h"
#include "hierarq/persist/snapshot.h"
#include "hierarq/query/parser.h"
#include "hierarq/service/batch_solvers.h"
#include "hierarq/service/eval_service.h"
#include "load.h"

namespace hierarq::bench {

namespace {

using Clock = std::chrono::steady_clock;

double NanosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

/// Median wall time of `reps` calls of `fn`, in ns.
double MedianNs(size_t reps, const std::function<void()>& fn) {
  std::vector<double> ns;
  ns.reserve(reps);
  for (size_t i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    ns.push_back(NanosSince(start));
  }
  return Percentile(std::move(ns), 0.5);
}

/// Buckets the histogram gained between two scrapes, in bound order.
std::vector<std::pair<uint64_t, uint64_t>> DeltaBuckets(
    const MetricsScrape& before, const MetricsScrape& after,
    const std::string& name) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  const auto it = after.histograms.find(name);
  if (it == after.histograms.end()) {
    return out;
  }
  const auto old = before.histograms.find(name);
  for (const auto& [lower, count] : it->second) {
    uint64_t was = 0;
    if (old != before.histograms.end()) {
      if (const auto b = old->second.find(lower); b != old->second.end()) {
        was = b->second;
      }
    }
    if (count > was) {
      out.emplace_back(lower, count - was);
    }
  }
  return out;
}

}  // namespace

Result<MetricsScrape> ParseMetricsText(const std::string& text) {
  MetricsScrape scrape;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string kind;
    std::string name;
    fields >> kind >> name;
    if (kind == "counter") {
      fields >> scrape.counters[name];
    } else if (kind == "histogram") {
      std::map<uint64_t, uint64_t>& buckets = scrape.histograms[name];
      std::string field;
      while (fields >> field) {
        unsigned long long lower = 0;
        unsigned long long upper = 0;
        unsigned long long count = 0;
        if (std::sscanf(field.c_str(), "[%llu,%llu]=%llu", &lower, &upper,
                        &count) == 3) {
          buckets[lower] = count;
        } else if (field.rfind("sum=", 0) == 0) {
          scrape.histogram_sums[name] = std::stoull(field.substr(4));
        }
      }
    }
  }
  if (scrape.counters.empty()) {
    return Status::ParseError("metrics scrape holds no counters");
  }
  return scrape;
}

double CounterDelta(const MetricsScrape& before, const MetricsScrape& after,
                    const std::string& name) {
  const auto value = [&name](const MetricsScrape& scrape) -> double {
    const auto it = scrape.counters.find(name);
    return it == scrape.counters.end() ? 0.0
                                       : static_cast<double>(it->second);
  };
  return value(after) - value(before);
}

double HistogramDeltaQuantile(const MetricsScrape& before,
                              const MetricsScrape& after,
                              const std::string& name, double q) {
  const auto buckets = DeltaBuckets(before, after, name);
  uint64_t total = 0;
  for (const auto& [lower, count] : buckets) {
    total += count;
  }
  if (total == 0) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(total);
  double seen = 0.0;
  for (const auto& [lower, count] : buckets) {
    if (seen + static_cast<double>(count) >= rank) {
      // Bucket [lower, 2*lower - 1]; the zero bucket holds exact zeros.
      const double lo = static_cast<double>(lower);
      const double width = lower == 0 ? 0.0 : lo - 1.0;
      return lo + width * (rank - seen) / static_cast<double>(count);
    }
    seen += static_cast<double>(count);
  }
  return static_cast<double>(buckets.back().first);
}

double HistogramDeltaMean(const MetricsScrape& before,
                          const MetricsScrape& after,
                          const std::string& name) {
  uint64_t count = 0;
  for (const auto& [lower, n] : DeltaBuckets(before, after, name)) {
    count += n;
  }
  if (count == 0) {
    return 0.0;
  }
  const auto sum = [&name](const MetricsScrape& scrape) -> double {
    const auto it = scrape.histogram_sums.find(name);
    return it == scrape.histogram_sums.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  return (sum(after) - sum(before)) / static_cast<double>(count);
}

Result<std::map<std::string, double>> ProbeLayers(const WorkloadData& data,
                                                  uint64_t seed,
                                                  const std::string& data_dir) {
  std::map<std::string, double> out;
  const QueryCase& first = data.cases.front();
  const bool shapley = first.solver == net::SolverKind::kShapley;
  const Database& facts = shapley ? data.exogenous : data.tid.facts();
  std::vector<ConjunctiveQuery> queries;
  for (const QueryCase& c : data.cases) {
    HIERARQ_ASSIGN_OR_RETURN(ConjunctiveQuery query, ParseQuery(c.query));
    queries.push_back(std::move(query));
  }
  std::vector<const ConjunctiveQuery*> query_set;
  for (const ConjunctiveQuery& query : queries) {
    query_set.push_back(&query);
  }
  const ConjunctiveQuery& query = queries.front();

  out["data.load_s"] = data.load_s;

  {
    obs::Span span("p.parse_query", "bench");
    out["query.parse_us"] =
        MedianNs(2000, [&] {
          for (const QueryCase& c : data.cases) {
            (void)ParseQuery(c.query);
          }
        }) /
        1e3 / static_cast<double>(data.cases.size());
  }

  {
    obs::Span span("p.codec", "bench");
    net::QueryRequest request;
    request.solver = first.solver;
    request.query = first.query;
    out["net.codec_request_ns"] = MedianNs(20000, [&] {
      (void)net::DecodeQueryRequest(
          net::EncodeQueryRequest(request, net::WireFormat::kNative),
          net::WireFormat::kNative);
    });
    net::QueryResult result;
    result.solver = first.solver;
    result.count = first.count;
    result.number = first.probability;
    for (const auto& [fact, fraction] : first.shapley) {
      result.shapley.push_back(net::ShapleyEntry{fact, fraction, 0.5});
    }
    const std::string encoded =
        net::EncodeQueryResult(result, net::WireFormat::kNative, false, false);
    out["net.result_bytes"] = static_cast<double>(encoded.size());
    out["net.codec_result_ns"] = MedianNs(20000, [&] {
      (void)net::DecodeQueryResult(
          net::EncodeQueryResult(result, net::WireFormat::kNative, false,
                                 false),
          net::WireFormat::kNative, false, false);
    });
  }

  const auto count_one = [](const Fact&) -> uint64_t { return 1; };
  const CountMonoid count;
  const auto plus = [&count](uint64_t a, uint64_t b) {
    return count.Plus(a, b);
  };
  {
    obs::Span span("p.annotate", "bench");
    out["service.annotate_ms"] = MedianNs(5, [&] {
                                   (void)AnnotateForQuerySet<uint64_t>(
                                       query_set, facts, count_one, plus);
                                 }) /
                                 1e6;
  }

  {
    obs::Span span("p.replay", "bench");
    const AnnotationPool<uint64_t> pool =
        AnnotateForQuerySet<uint64_t>({&query}, facts, count_one, plus);
    Evaluator evaluator;
    HIERARQ_ASSIGN_OR_RETURN(const EliminationPlan* plan,
                             evaluator.GetPlan(query));
    std::vector<double> replay_ns;
    std::vector<double> exec_ns;
    for (int i = 0; i < 5; ++i) {
      obs::QueryStats stats;
      obs::ScopedQueryStats collect(&stats);
      const Clock::time_point start = Clock::now();
      (void)evaluator.ReplayPlan(*plan, count, query, pool);
      replay_ns.push_back(NanosSince(start));
      exec_ns.push_back(static_cast<double>(stats.exec_ns));
    }
    const double replay = Percentile(replay_ns, 0.5);
    out["core.replay_ms"] = replay / 1e6;
    out["core.base_copy_ms"] =
        std::max(0.0, replay - Percentile(exec_ns, 0.5)) / 1e6;
  }

  out["core.shapley_ms"] = 0.0;
  out["core.satcount_run_us"] = 0.0;
  if (shapley) {
    obs::Span span("p.shapley", "bench");
    EvalService service;
    out["core.shapley_ms"] =
        MedianNs(5, [&] {
          (void)AllShapleyValues(service, query, data.exogenous,
                                 data.endogenous);
        }) /
        1e6;
    Evaluator evaluator;
    out["core.satcount_run_us"] =
        MedianNs(20, [&] {
          (void)CountSatBoth(evaluator, query, data.exogenous,
                             data.endogenous);
        }) /
        1e3;
  }

  {
    obs::Span span("p.delta", "bench");
    Dictionary dict;
    VersionedDatabase db = shapley ? VersionedDatabase(data.exogenous)
                                   : VersionedDatabase(data.tid);
    DeltaStream stream(data.tid, seed);
    std::vector<double> parse_ns;
    std::vector<double> apply_ns;
    for (int i = 0; i < 500; ++i) {
      const std::string line = stream.NextLine();
      Clock::time_point start = Clock::now();
      HIERARQ_ASSIGN_OR_RETURN(const DeltaBatch batch,
                               ParseDeltaLine(line, &dict, db, &query));
      parse_ns.push_back(NanosSince(start));
      start = Clock::now();
      db.Apply(batch);
      apply_ns.push_back(NanosSince(start));
      db.TruncateLog(db.generation());
    }
    out["incremental.delta_parse_us"] = Percentile(parse_ns, 0.5) / 1e3;
    out["incremental.apply_us"] = Percentile(apply_ns, 0.5) / 1e3;
  }

  out["persist.recover_ms"] = 0.0;
  if (!data_dir.empty()) {
    obs::Span span("p.recover", "bench");
    persist::RealFileIo io;
    std::vector<double> ns;
    for (int i = 0; i < 3; ++i) {
      Dictionary dict;
      const Clock::time_point start = Clock::now();
      HIERARQ_ASSIGN_OR_RETURN(
          const VersionedDatabase recovered,
          persist::RecoverDatabase(io, data_dir, &dict));
      ns.push_back(NanosSince(start));
      (void)recovered;
    }
    out["persist.recover_ms"] = Percentile(ns, 0.5) / 1e6;
  }
  return out;
}

}  // namespace hierarq::bench
