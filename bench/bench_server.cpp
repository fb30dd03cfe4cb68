// Experiment N1 — the server front door: end-to-end request throughput
// through hierarq_server's wire protocol (loopback TCP, length-prefixed
// frames, async admission) rather than in-process EvalService calls.
//
// Claim emitted to BENCH_server.json for cross-PR tracking: throughput
// holds (1-core CI) or grows (multi-core) as client count rises, because
// connection threads only read frames and submitters do the evaluation —
// clients never serialize behind each other's parses.
// Rows: count requests/sec per client count, plus a ping row isolating
// pure framing + loopback cost from evaluation.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "hierarq/data/database.h"
#include "hierarq/incremental/versioned_database.h"
#include "hierarq/net/client.h"
#include "hierarq/net/server.h"
#include "hierarq/net/wire.h"
#include "hierarq/query/parser.h"
#include "hierarq/workload/data_gen.h"

namespace hierarq {
namespace {

constexpr const char* kQueryText = "Q() :- R(A,B), S(A,C)";

Database MakeWorkload() {
  const ConjunctiveQuery query = ParseQueryOrDie(kQueryText);
  Rng rng(17);
  DataGenOptions gen;
  // Small on purpose: per-request evaluation must not drown the wire
  // and admission costs the rows measure.
  gen.tuples_per_relation = 200;
  gen.domain_size = 100;
  return RandomDatabaseForQuery(query, rng, gen);
}

/// `clients` threads hammer the server with synchronous count queries
/// for `seconds`; returns total requests/sec. Each thread owns one
/// connection (HierarqClient is single-threaded), so the sweep measures
/// exactly what N independent callers would see.
double MeasureRequestRate(uint16_t port, size_t clients, double seconds) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> requests{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t i = 0; i < clients; ++i) {
    threads.emplace_back([&] {
      net::HierarqClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        return;
      }
      // Warm the connection (plan + annotation caches) outside the
      // timed window.
      (void)client.Query(net::SolverKind::kCount, kQueryText);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      uint64_t mine = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (!client.Query(net::SolverKind::kCount, kQueryText).ok()) {
          break;
        }
        ++mine;
      }
      requests.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_until(deadline);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) {
    t.join();
  }
  return static_cast<double>(requests.load()) / seconds;
}

double MeasurePingRate(uint16_t port, double seconds) {
  net::HierarqClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    return 0.0;
  }
  return bench::MeasureRate([&client] { (void)client.Ping(); }, seconds);
}

void Report() {
  using bench::PrintHeader;
  using bench::PrintNote;
  using bench::PrintRow;
  PrintHeader("N1: hierarq_server — wire-protocol request throughput",
              "clients do not serialize");
  bench::JsonReport report("server", "BENCH_server.json");

  Dictionary dict;
  const Database db = MakeWorkload();
  net::HierarqServer::Options options;
  net::HierarqServer server(options, VersionedDatabase(db), Database{},
                            &dict);
  if (const Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "bench_server: %s\n",
                 started.ToString().c_str());
    return;
  }
  std::printf("  workload: |D| = %zu facts, query %s, loopback port %u\n",
              db.NumFacts(), kQueryText,
              static_cast<unsigned>(server.port()));

  const double ping_rps = MeasurePingRate(server.port(), 0.3);
  PrintRow("ping round-trips (framing + loopback only)", "-",
           std::to_string(ping_rps) + " req/s");
  report.AddRow("server/ping/native/clients_1",
                {{"clients", 1.0}, {"requests_per_sec", ping_rps}});

  for (const size_t clients : {1, 2, 4}) {
    const double rps = MeasureRequestRate(server.port(), clients, 0.4);
    char measured[64];
    std::snprintf(measured, sizeof(measured), "%9.1f req/s", rps);
    PrintRow("count, " + std::to_string(clients) + " client(s)", "-",
             measured);
    report.AddRow("server/count/native/clients_" + std::to_string(clients),
                  {{"clients", static_cast<double>(clients)},
                   {"requests_per_sec", rps}});
  }
  PrintNote("requests_per_sec includes parse + plan-cache hit + replay; "
            "ping row is the framing floor.");

  server.Stop();
  report.WriteToFile();
}

void BM_Server_CountRoundTrip(benchmark::State& state) {
  Dictionary dict;
  net::HierarqServer::Options options;
  net::HierarqServer server(options, VersionedDatabase(MakeWorkload()),
                            Database{}, &dict);
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }
  net::HierarqClient client;
  if (!client.Connect("127.0.0.1", server.port()).ok()) {
    state.SkipWithError("client failed to connect");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        client.Query(net::SolverKind::kCount, kQueryText));
  }
  client.Close();
  server.Stop();
}
BENCHMARK(BM_Server_CountRoundTrip)->Arg(0)->UseRealTime();

}  // namespace
}  // namespace hierarq

HIERARQ_BENCH_MAIN(hierarq::Report)
