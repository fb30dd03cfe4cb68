// Tests for the observability layer (obs/): the metrics registry's
// counters/gauges/log-2 histograms and their concurrency story (the TSAN
// leg runs this file), the span tracer's ring-buffer wraparound, the
// disabled-instrumentation fast path, and the EXPLAIN ANALYZE renderer's
// contract that every plan step appears exactly once.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hierarq/algebra/semirings.h"
#include "hierarq/core/evaluator.h"
#include "hierarq/data/database.h"
#include "hierarq/obs/explain.h"
#include "hierarq/obs/log.h"
#include "hierarq/obs/metrics.h"
#include "hierarq/obs/query_stats.h"
#include "hierarq/obs/trace.h"
#include "hierarq/query/elimination.h"
#include "hierarq/workload/query_gen.h"

namespace hierarq {
namespace {

// Figure 1a's database for the paper query Q() :- R(A,B), S(A,C), T(A,C,D).
Database PaperDb() {
  Database d;
  d.AddFactOrDie("R", MakeTuple({1, 5}));
  d.AddFactOrDie("S", MakeTuple({1, 1}));
  d.AddFactOrDie("S", MakeTuple({1, 2}));
  d.AddFactOrDie("T", MakeTuple({1, 2, 4}));
  return d;
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

TEST(Histogram, BucketBoundariesArePowersOfTwo) {
  // Bucket 0 holds exactly the zeros; bucket i >= 1 covers
  // [2^(i-1), 2^i - 1] — the log-2 layout BucketOf/bit_width implies.
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketOf(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketOf(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketOf(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketOf(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketOf(7), 3u);
  EXPECT_EQ(obs::Histogram::BucketOf(8), 4u);
  EXPECT_EQ(obs::Histogram::BucketOf(UINT64_MAX),
            obs::Histogram::kNumBuckets - 1);
  for (size_t i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(obs::Histogram::BucketOf(obs::Histogram::BucketLowerBound(i)),
              i);
    EXPECT_EQ(obs::Histogram::BucketOf(obs::Histogram::BucketUpperBound(i)),
              i);
    if (i + 1 < obs::Histogram::kNumBuckets) {
      EXPECT_EQ(obs::Histogram::BucketUpperBound(i) + 1,
                obs::Histogram::BucketLowerBound(i + 1));
    }
  }

  obs::Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  h.Observe(1000);
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_EQ(h.Sum(), 1006u);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 2u);
  EXPECT_EQ(h.BucketCount(obs::Histogram::BucketOf(1000)), 1u);
}

TEST(Metrics, CounterSumsItsShards) {
  obs::Counter counter;
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(Metrics, DisabledMetricsDropUpdates) {
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram histogram;
  obs::SetMetricsEnabled(false);
  counter.Add(7);
  gauge.Set(7);
  histogram.Observe(7);
  obs::SetMetricsEnabled(true);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(histogram.Count(), 0u);
  counter.Add(7);
  EXPECT_EQ(counter.Value(), 7u);
}

TEST(Metrics, RegistryResolvesOneInstrumentPerName) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("test.counter");
  obs::Counter* b = registry.GetCounter("test.counter");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("test.other"), a);
  a->Add(3);
  registry.GetGauge("test.gauge")->Set(-5);
  registry.GetHistogram("test.hist")->Observe(9);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("counter test.counter 3"), std::string::npos) << text;
  EXPECT_NE(text.find("gauge test.gauge -5"), std::string::npos) << text;
  EXPECT_NE(text.find("histogram test.hist count=1 sum=9"),
            std::string::npos)
      << text;
  const std::string json = registry.RenderJson();
  // 64-bit integers ride JSON as decimal strings (ns counters pass 2^53,
  // where double-parsing consumers would silently round).
  EXPECT_NE(json.find("\"test.counter\": \"3\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": \"1\""), std::string::npos) << json;
  registry.Reset();
  EXPECT_EQ(a->Value(), 0u);
}

TEST(Histogram, QuantilesInterpolateWithinBuckets) {
  obs::Histogram h;
  // An empty histogram must answer NaN, not pretend bucket 0.
  EXPECT_TRUE(std::isnan(h.Quantile(0.5)));

  // 1000 samples 0..999: exact percentiles are known, and the log-2
  // buckets bound the estimate to its bucket's range.
  for (uint64_t v = 0; v < 1000; ++v) {
    h.Observe(v);
  }
  const double p50 = h.Quantile(0.50);
  const double p90 = h.Quantile(0.90);
  const double p99 = h.Quantile(0.99);
  // Exact p50 = 499.5 lives in [256,511]; p90 = 899.1 and p99 = 989.01
  // share [512,1023]. The estimate may not leave the exact value's
  // bucket, and must order correctly.
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 511.0);
  EXPECT_GE(p90, 512.0);
  EXPECT_LE(p90, 1023.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1023.0);
  EXPECT_LT(p50, p90);
  EXPECT_LT(p90, p99);
  // Within-bucket interpolation: relative error against the exact
  // percentile stays well under the 2x worst case of bucket midpoints.
  EXPECT_NEAR(p50, 499.5, 499.5 * 0.35);
  EXPECT_NEAR(p90, 899.1, 899.1 * 0.35);
  EXPECT_NEAR(p99, 989.01, 989.01 * 0.35);

  // Extremes clamp instead of over/underrunning the rank walk.
  EXPECT_GE(h.Quantile(0.0), 0.0);
  EXPECT_LE(h.Quantile(1.0), 1023.0);

  obs::Histogram zeros;
  zeros.Observe(0);
  zeros.Observe(0);
  EXPECT_EQ(zeros.Quantile(0.99), 0.0) << "all-zero data is bucket 0";

  // Empty histograms render WITHOUT p* fields in both formats.
  obs::MetricsRegistry registry;
  registry.GetHistogram("test.empty");
  EXPECT_EQ(registry.RenderText().find("p50="), std::string::npos);
  EXPECT_EQ(registry.RenderJson().find("\"p50\""), std::string::npos);
  registry.GetHistogram("test.full")->Observe(100);
  EXPECT_NE(registry.RenderText().find("p50="), std::string::npos);
  EXPECT_NE(registry.RenderJson().find("\"p50\""), std::string::npos);
}

// The TSAN target: many threads hammering the same named instruments
// through the registry must neither race nor lose updates.
TEST(Metrics, RegistryConcurrency) {
  obs::MetricsRegistry registry;
  constexpr size_t kThreads = 8;
  constexpr size_t kBumps = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      obs::Counter* counter = registry.GetCounter("conc.counter");
      obs::Gauge* gauge = registry.GetGauge("conc.gauge");
      obs::Histogram* histogram = registry.GetHistogram("conc.hist");
      for (size_t i = 0; i < kBumps; ++i) {
        counter->Add();
        gauge->Add(1);
        histogram->Observe(i);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.GetCounter("conc.counter")->Value(), kThreads * kBumps);
  EXPECT_EQ(registry.GetGauge("conc.gauge")->Value(),
            static_cast<int64_t>(kThreads * kBumps));
  EXPECT_EQ(registry.GetHistogram("conc.hist")->Count(), kThreads * kBumps);
}

TEST(Tracer, RingBufferWrapsKeepingTheMostRecentWindow) {
  constexpr size_t kCapacity = 8;
  constexpr size_t kEmits = 30;
  obs::Tracer tracer(kCapacity);
  tracer.Install();
  for (size_t i = 0; i < kEmits; ++i) {
    tracer.EmitInstant("tick", "i", static_cast<double>(i));
  }
  tracer.Uninstall();
  const std::vector<obs::TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), kCapacity);
  EXPECT_EQ(tracer.dropped(), kEmits - kCapacity);
  // A flight recorder keeps the newest window, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].arg,
                     static_cast<double>(kEmits - kCapacity + i));
  }
}

TEST(Tracer, ChromeTraceEnvelopeCarriesTheDropCount) {
  // tools/check_trace.py reads "dropped" to decide whether a wrapped
  // ring may explain missing step events (it degrades the equal-coverage
  // failure to a warning); the envelope must carry the exact count.
  constexpr size_t kCapacity = 4;
  constexpr size_t kEmits = 11;
  obs::Tracer tracer(kCapacity);
  tracer.Install();
  for (size_t i = 0; i < kEmits; ++i) {
    tracer.EmitInstant("tick", "i", static_cast<double>(i));
  }
  tracer.Uninstall();
  std::ostringstream out;
  tracer.WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"dropped\": " + std::to_string(kEmits - kCapacity)),
            std::string::npos)
      << json;

  // And a quiet tracer reports zero, so the validator stays strict.
  obs::Tracer quiet;
  quiet.Install();
  quiet.EmitInstant("tick", "i", 1.0);
  quiet.Uninstall();
  std::ostringstream quiet_out;
  quiet.WriteChromeTrace(quiet_out);
  EXPECT_NE(quiet_out.str().find("\"dropped\": 0"), std::string::npos);
}

TEST(Tracer, UninstalledSpansAreCheapAndRecordNothing) {
  ASSERT_EQ(obs::Tracer::Current(), nullptr);
  constexpr size_t kSpans = 1000000;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < kSpans; ++i) {
    obs::Span span("noop", "test");
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double ns_per_span =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()) /
      kSpans;
  // One relaxed load + a branch. The bound is deliberately loose (debug
  // builds, sanitizers, loaded CI machines) — it exists to catch the
  // fast path growing a lock or a clock read, which costs 10-100x more.
  EXPECT_LT(ns_per_span, 500.0);
}

TEST(Tracer, StepEventsCarryTheDecision) {
  obs::Tracer tracer;
  tracer.Install();
  const uint64_t t0 = obs::Tracer::NowNs();
  obs::TraceStepArgs args;
  args.step_index = 3;
  args.rule = 2;
  args.backend = StorageKind::kBaseline;
  args.simd = simd::Level::kScalar;
  args.rows_in = 100;
  args.rows_out = 60;
  tracer.EmitStep(t0, obs::Tracer::NowNs(), args);
  tracer.Uninstall();
  const std::vector<obs::TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::TraceEvent::Kind::kStep);
  EXPECT_STREQ(events[0].name, "rule2_merge");
  EXPECT_EQ(events[0].step.step_index, 3u);
  EXPECT_EQ(events[0].step.rule, 2u);
  EXPECT_EQ(events[0].step.backend, StorageKind::kBaseline);
  EXPECT_EQ(events[0].step.simd, simd::Level::kScalar);
  EXPECT_EQ(events[0].step.rows_in, 100u);
  EXPECT_EQ(events[0].step.rows_out, 60u);

  // The Chrome export carries the same decision and nothing else.
  std::ostringstream json;
  tracer.WriteChromeTrace(json);
  EXPECT_NE(json.str().find("{\"step\": 3, \"rule\": 2, \"backend\": "
                            "\"baseline\", \"simd\": \"scalar\", "
                            "\"rows_in\": 100, \"rows_out\": 60}"),
            std::string::npos)
      << json.str();
  EXPECT_EQ(json.str().find("\"parallel\""), std::string::npos) << json.str();
  EXPECT_EQ(json.str().find("\"threads\""), std::string::npos) << json.str();
  EXPECT_EQ(json.str().find("predicted"), std::string::npos) << json.str();
}

TEST(Explain, NamesEveryPlanStepExactlyOnce) {
  const ConjunctiveQuery q = MakePaperQuery();
  const Database db = PaperDb();
  auto plan = EliminationPlan::Build(q);
  ASSERT_TRUE(plan.ok());

  obs::Tracer tracer;
  tracer.Install();
  Evaluator evaluator;
  auto result = evaluator.Evaluate<CountMonoid>(
      q, CountMonoid{}, db, [](const Fact&) -> uint64_t { return 1; });
  tracer.Uninstall();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::vector<obs::TraceEvent> events = tracer.Snapshot();
  size_t step_events = 0;
  for (const obs::TraceEvent& event : events) {
    step_events += event.kind == obs::TraceEvent::Kind::kStep ? 1 : 0;
  }
  EXPECT_EQ(step_events, plan->steps().size());

  const std::string text =
      obs::RenderExplainAnalyze(*plan, q.variables(), events);
  // One "#i " step marker per elimination step, each exactly once, and
  // every step has an observation (nothing rendered "[not executed]").
  for (size_t i = 0; i < plan->steps().size(); ++i) {
    const std::string marker = "#" + std::to_string(i + 1) + " ";
    EXPECT_EQ(CountOccurrences(text, marker), 1u)
        << "marker '" << marker << "' in:\n"
        << text;
  }
  EXPECT_EQ(CountOccurrences(text, "[not executed]"), 0u) << text;
  EXPECT_EQ(CountOccurrences(text, "rows"), plan->steps().size()) << text;
  // Every step line names the backend it ran on, and no line carries the
  // thread-count or execution-mode fields of the deleted parallel path.
  EXPECT_EQ(CountOccurrences(text, "[backend=columnar "),
            plan->steps().size())
      << text;
  EXPECT_EQ(CountOccurrences(text, "threads="), 0u) << text;
  EXPECT_EQ(CountOccurrences(text, "parallel"), 0u) << text;
}

TEST(Explain, UnexecutedPlanRendersEveryStepAsNotRun) {
  const ConjunctiveQuery q = MakePaperQuery();
  auto plan = EliminationPlan::Build(q);
  ASSERT_TRUE(plan.ok());
  const std::string text =
      obs::RenderExplainAnalyze(*plan, q.variables(), {});
  EXPECT_EQ(CountOccurrences(text, "[not executed]"), plan->steps().size())
      << text;
}

TEST(Explain, FormatNsPicksReadableUnits) {
  EXPECT_EQ(obs::FormatNs(123.0), "123ns");
  EXPECT_EQ(obs::FormatNs(1500.0), "1.5us");
  EXPECT_EQ(obs::FormatNs(2350000.0), "2.35ms");
  EXPECT_EQ(obs::FormatNs(1234000000.0), "1.234s");
}

// ------------------------------------------------------ structured log --

TEST(Logger, KeyValueLinesCarryPrefixAndFields) {
  std::ostringstream sink;
  obs::Logger::Options options;
  options.sink = &sink;
  obs::Logger logger(options);
  logger.Info("listening", {{"addr", "127.0.0.1:9000"}, {"facts", "42"}});
  const std::string line = sink.str();
  EXPECT_NE(line.find("level=info"), std::string::npos) << line;
  EXPECT_NE(line.find("event=listening"), std::string::npos) << line;
  EXPECT_NE(line.find("addr=127.0.0.1:9000"), std::string::npos) << line;
  EXPECT_NE(line.find("facts=42"), std::string::npos) << line;
  EXPECT_NE(line.find("ts_ns="), std::string::npos) << line;
  EXPECT_EQ(line.back(), '\n');

  // Values with spaces or quotes are quoted-and-escaped, so the line
  // stays one-token-per-field parseable.
  sink.str("");
  logger.Warn("slow_query", {{"query", "Q() :- R(A,\"x\")"}});
  EXPECT_NE(sink.str().find("query=\"Q() :- R(A,\\\"x\\\")\""),
            std::string::npos)
      << sink.str();
}

TEST(Logger, JsonLinesAreParseableObjects) {
  std::ostringstream sink;
  obs::Logger::Options options;
  options.sink = &sink;
  options.json = true;
  obs::Logger logger(options);
  logger.Error("error_frame", {{"message", "bad \"frame\""}});
  const std::string line = sink.str();
  EXPECT_EQ(line.front(), '{');
  EXPECT_NE(line.find("\"level\":\"error\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"event\":\"error_frame\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"message\":\"bad \\\"frame\\\"\""),
            std::string::npos)
      << line;
}

TEST(Logger, LevelGateAndRateLimitDropLines) {
  std::ostringstream sink;
  obs::Logger::Options options;
  options.sink = &sink;
  options.min_level = obs::LogLevel::kWarn;
  obs::Logger logger(options);
  logger.Debug("below", {});
  logger.Info("below", {});
  logger.Warn("kept", {});
  EXPECT_EQ(CountOccurrences(sink.str(), "event="), 1u) << sink.str();

  // Token bucket: burst admits the first N instantly, the flood beyond
  // is counted in dropped() — except errors, which always land.
  std::ostringstream limited_sink;
  obs::Logger::Options limited;
  limited.sink = &limited_sink;
  limited.rate_per_sec = 1;
  limited.burst = 2;
  obs::Logger flooded(limited);
  for (int i = 0; i < 50; ++i) {
    flooded.Info("flood", {});
  }
  flooded.Error("always", {});
  EXPECT_LE(CountOccurrences(limited_sink.str(), "event=flood"), 3u);
  EXPECT_GE(flooded.dropped(), 47u);
  EXPECT_NE(limited_sink.str().find("event=always"), std::string::npos)
      << "errors bypass the bucket";
}

TEST(QueryStats, RenderAndScopedCollection) {
  obs::QueryStats stats;
  {
    obs::ScopedQueryStats scope(&stats);
    ASSERT_EQ(obs::CurrentQueryStats(), &stats);
    obs::CurrentQueryStats()->RecordStep(1, 10, 4);
    obs::CurrentQueryStats()->RecordStep(2, 8, 2);
  }
  EXPECT_EQ(obs::CurrentQueryStats(), nullptr) << "scope must uninstall";
  EXPECT_EQ(stats.rule1_rows_scanned, 10u);
  EXPECT_EQ(stats.rule1_rows_emitted, 4u);
  EXPECT_EQ(stats.rule2_rows_scanned, 8u);
  EXPECT_EQ(stats.rule2_rows_emitted, 2u);
  EXPECT_EQ(stats.steps_total, 2u);
  EXPECT_EQ(stats.steps_serial, 2u);
  EXPECT_EQ(stats.steps_parallel, 0u);
  const std::string line = stats.Render();
  EXPECT_NE(line.find("rule1_rows_scanned=10"), std::string::npos) << line;
  EXPECT_NE(line.find("plan_cache_hit=false"), std::string::npos) << line;

  // A null scope is the disabled path: collection is a no-op, not a
  // crash.
  obs::ScopedQueryStats disabled(nullptr);
  EXPECT_EQ(obs::CurrentQueryStats(), nullptr);
}

}  // namespace
}  // namespace hierarq
