// hierarq command-line tool.
//
// Solves any of the library's problems from a query string and database
// files in the text format of hierarq/data/loader.h.
//
// Every Algorithm 1 run stores its supports in the columnar layout
// (data/columnar.h) and runs each elimination step serially. Batch
// mode's trailing [workers] argument sizes the across-query worker pool.
//
// Observability (obs/): `--explain` prints an EXPLAIN ANALYZE tree after
// the run — the elimination plan annotated with each step's backend,
// rows in/out, wall time and SIMD tier. `--trace=FILE` records the same
// per-step spans and writes Chrome trace-event JSON for chrome://tracing
// / Perfetto.
// `--metrics` dumps the metrics registry to stderr on exit.
//
//   hierarq_cli classify   <query>
//   hierarq_cli plan       <query>
//   hierarq_cli count      <query> <db>
//   hierarq_cli pqe        <query> <tid-db>
//   hierarq_cli pqe-any    <query> <tid-db>   (Shannon; any SJF-BCQ)
//   hierarq_cli expect     <query> <tid-db>
//   hierarq_cli bagset     <query> <db> <repair-db> <budget>
//   hierarq_cli repair     <query> <db> <repair-db> <budget>
//   hierarq_cli shapley    <query> <exo-db> <endo-db>
//   hierarq_cli resilience <query> <exo-db> <endo-db>
//   hierarq_cli provenance <query> <db>
//
// Batch mode reads one query per line from a file and answers them all
// through the EvalService (one annotation pass per database, replays
// fanned out across a worker pool):
//
//   hierarq_cli batch count      <queries-file> <db>            [workers]
//   hierarq_cli batch pqe        <queries-file> <tid-db>        [workers]
//   hierarq_cli batch expect     <queries-file> <tid-db>        [workers]
//   hierarq_cli batch resilience <queries-file> <exo> <endo>    [workers]
//   hierarq_cli batch provenance <queries-file> <db>            [workers]
//
// Update mode attaches an incremental view to the database and streams
// single-fact updates from stdin, printing the delta-maintained result
// after every batch (one batch per line; ops separated by ';'):
//
//   hierarq_cli update count  <query> <db>
//   hierarq_cli update pqe    <query> <tid-db>
//   hierarq_cli update expect <query> <tid-db>
//
//   > +R(1,2)            insert a fact (weight 1)
//   > +R(1,3)@0.5        insert with a weight / probability
//   > -R(1,2)            delete a fact
//   > !R(1,3)@0.9        re-weight a present fact
//   > +S(7,8); -R(1,3)   one atomic batch of two ops
//
// Malformed commands terminate the stream with an error and exit code 1.
//
// Example:
//   hierarq_cli bagset "Q() :- R(A,B), S(A,C), T(A,C,D)" d.facts dr.facts 2

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "hierarq/hierarq.h"
#include "hierarq/obs/explain.h"
#include "hierarq/obs/metrics.h"
#include "hierarq/obs/trace.h"
#include "hierarq/persist/fault_io.h"
#include "hierarq/persist/snapshot.h"
#include "hierarq/query/gyo.h"
#include "hierarq/util/strings.h"

namespace hierarq {
namespace {

/// Observability flags (--explain / --trace=FILE / --metrics), peeled off
/// the command line wherever they appear.
struct ObsOptions {
  bool explain = false;     ///< Print EXPLAIN ANALYZE after the run.
  std::string trace_path;   ///< Chrome trace-event JSON output, if set.
  bool metrics = false;     ///< Dump the metrics registry to stderr.
};

/// Client-mode flags (--deadline-ms / --request-trace=FILE / --stats /
/// --retries), peeled globally like the others but only meaningful under
/// `client`.
struct ClientOptions {
  uint64_t deadline_ms = 0;  ///< Per-request deadline (0 = server default).
  std::string trace_path;    ///< Stitched client+server trace output.
  bool stats = false;        ///< Print the server's QueryStats line.
  uint32_t max_retries = 0;  ///< Query retries on queue-full rejections.
};

int Usage() {
  std::fprintf(stderr,
               "usage: hierarq_cli [options] "
               "<command> <query> [files...]\n"
               "commands:\n"
               "  classify   <query>\n"
               "  plan       <query>\n"
               "  count      <query> <db>\n"
               "  pqe        <query> <tid-db>\n"
               "  pqe-any    <query> <tid-db>   (exhaustive; any SJF-BCQ)\n"
               "  expect     <query> <tid-db>\n"
               "  bagset     <query> <db> <repair-db> <budget>\n"
               "  repair     <query> <db> <repair-db> <budget>\n"
               "  shapley    <query> <exo-db> <endo-db>\n"
               "  resilience <query> <exo-db> <endo-db>\n"
               "  provenance <query> <db>\n"
               "batch mode (queries-file: one query per line, '#' comments):\n"
               "  batch count      <queries-file> <db>         [workers]\n"
               "  batch pqe        <queries-file> <tid-db>     [workers]\n"
               "  batch expect     <queries-file> <tid-db>     [workers]\n"
               "  batch resilience <queries-file> <exo> <endo> [workers]\n"
               "  batch provenance <queries-file> <db>         [workers]\n"
               "update mode (stdin: one delta batch per line, ops split on "
               "';'; '+R(1,2)[@w]' insert, '-R(1,2)' delete, '!R(1,2)@w' "
               "re-weight):\n"
               "  update count  <query> <db>\n"
               "  update pqe    <query> <tid-db>\n"
               "  update expect <query> <tid-db>\n"
               "durability (persist/snapshot.h data directories):\n"
               "  snapshot <db> <dir>   commit <db> as a durable snapshot\n"
               "  recover  <dir>        run crash recovery, report what "
               "survived\n"
               "client mode (against a running hierarq_server):\n"
               "  client <host:port> count|pqe|expect|resilience|shapley "
               "<query>\n"
               "  client <host:port> update            (delta lines on "
               "stdin)\n"
               "  client <host:port> metrics [text|json]\n"
               "  client <host:port> status\n"
               "  client <host:port> ping\n"
               "  client <host:port> shutdown\n"
               "options:\n"
               "  --explain     print EXPLAIN ANALYZE after the run: the "
               "plan tree with per-step backend/rows/time/SIMD tier; not "
               "available in batch mode\n"
               "  --trace=FILE  record per-step spans and write Chrome "
               "trace-event JSON to FILE (load in chrome://tracing or "
               "Perfetto)\n"
               "  --metrics     dump the metrics registry to stderr on "
               "exit\n"
               "  --deadline-ms=N      (client) per-request deadline; 0 = "
               "server default\n"
               "  --request-trace=FILE (client) trace the request on both "
               "sides and write ONE stitched Chrome trace to FILE (client "
               "spans pid 1, server spans pid 2, shared trace id)\n"
               "  --stats              (client) print the server's "
               "per-query accounting (rows, steps, queue wait vs exec "
               "time, plan-cache hit) after the result\n"
               "  --retries=N          (client) retry a query up to N "
               "times with jittered exponential backoff when the server's "
               "admission queue is full (default 0 = fail fast)\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

std::string RenderFact(const Fact& fact, const Dictionary& dict) {
  std::string out = fact.relation + "(";
  for (size_t i = 0; i < fact.tuple.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += dict.Render(fact.tuple[i]);
  }
  return out + ")";
}

/// Loads a queries file: one query per line, '#' starts a comment, blank
/// lines are skipped.
Result<std::vector<ConjunctiveQuery>> LoadQueriesFile(const char* path) {
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument(std::string("cannot open queries file: ") +
                                   path);
  }
  std::vector<ConjunctiveQuery> queries;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    const std::string text = Trim(line);
    if (text.empty()) {
      continue;
    }
    auto query = ParseQuery(text);
    if (!query.ok()) {
      return Status::InvalidArgument(
          std::string(path) + ":" + std::to_string(line_number) + ": " +
          query.status().ToString());
    }
    queries.push_back(std::move(query).ValueOrDie());
  }
  if (queries.empty()) {
    return Status::InvalidArgument(std::string(path) +
                                   ": no queries in file");
  }
  return queries;
}

void PrintServiceStats(const EvalService& service, size_t num_workers) {
  const ServiceStats stats = service.stats();
  std::printf(
      "-- service: %zu workers; %zu queries in %zu group(s); plans built=%zu "
      "cache hits=%zu; annotation passes=%zu (%zu shared)\n",
      num_workers, stats.requests, stats.groups, stats.plans_built,
      stats.plan_cache_hits, stats.annotation_scans,
      stats.annotations_shared);
}

/// `hierarq_cli batch <solver> <queries-file> <dbs...> [workers]`.
int RunBatch(int argc, char** argv, const ObsOptions& obs) {
  if (argc < 5) {
    return Usage();
  }
  const std::string solver = argv[2];
  if (solver != "count" && solver != "pqe" && solver != "expect" &&
      solver != "resilience" && solver != "provenance") {
    return Usage();
  }
  const size_t num_dbs = solver == "resilience" ? 2 : 1;
  // argv[3] = queries file, then num_dbs database files, then optionally a
  // worker count.
  if (static_cast<size_t>(argc) < 4 + num_dbs ||
      static_cast<size_t>(argc) > 5 + num_dbs) {
    return Usage();
  }
  size_t workers = 0;  // 0 = hardware concurrency.
  if (static_cast<size_t>(argc) == 5 + num_dbs) {
    auto parsed_workers = ParseInt64(argv[4 + num_dbs]);
    if (!parsed_workers.ok() || *parsed_workers < 1) {
      return Usage();
    }
    workers = static_cast<size_t>(*parsed_workers);
  }

  auto queries = LoadQueriesFile(argv[3]);
  if (!queries.ok()) {
    return Fail(queries.status());
  }
  std::vector<const ConjunctiveQuery*> query_ptrs;
  query_ptrs.reserve(queries->size());
  for (const ConjunctiveQuery& q : *queries) {
    query_ptrs.push_back(&q);
  }

  Dictionary dict;
  EvalService::Options service_options;
  service_options.num_workers = workers;
  EvalService service(service_options);

  // Renders one result line per query; errors are reported inline so one
  // non-hierarchical query does not sink the batch.
  const auto print_row = [&queries](size_t i, const std::string& value) {
    std::printf("%-50s %s\n", (*queries)[i].ToString().c_str(),
                value.c_str());
  };
  const auto row_error = [&print_row](size_t i, const Status& status) {
    print_row(i, "error: " + status.ToString());
  };

  if (solver == "count") {
    auto db = LoadDatabaseFromFile(argv[4], &dict);
    if (!db.ok()) {
      return Fail(db.status());
    }
    auto results = CountBatch(service, query_ptrs, *db);
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        print_row(i, "Q(D) = " + std::to_string(*results[i]));
      } else {
        row_error(i, results[i].status());
      }
    }
  } else if (solver == "pqe" || solver == "expect") {
    auto db = LoadTidDatabaseFromFile(argv[4], &dict);
    if (!db.ok()) {
      return Fail(db.status());
    }
    auto results = solver == "pqe"
                       ? EvaluateProbabilityBatch(service, query_ptrs, *db)
                       : ExpectedMultiplicityBatch(service, query_ptrs, *db);
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        char value[64];
        std::snprintf(value, sizeof(value),
                      solver == "pqe" ? "Pr[Q] = %.12g" : "E[Q(D)] = %.12g",
                      *results[i]);
        print_row(i, value);
      } else {
        row_error(i, results[i].status());
      }
    }
  } else if (solver == "resilience") {
    auto exo = LoadDatabaseFromFile(argv[4], &dict);
    if (!exo.ok()) {
      return Fail(exo.status());
    }
    auto endo = LoadDatabaseFromFile(argv[5], &dict);
    if (!endo.ok()) {
      return Fail(endo.status());
    }
    auto results = ComputeResilienceBatch(service, query_ptrs, *exo, *endo);
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        row_error(i, results[i].status());
      } else if (*results[i] == ResilienceMonoid::kInfinity) {
        print_row(i, "resilience = infinity");
      } else {
        print_row(i, "resilience = " + std::to_string(*results[i]));
      }
    }
  } else {  // "provenance" — the solver name was validated above.
    auto db = LoadDatabaseFromFile(argv[4], &dict);
    if (!db.ok()) {
      return Fail(db.status());
    }
    auto results = ComputeProvenanceBatch(service, query_ptrs, *db);
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        print_row(i, results[i]->tree->ToString() + "  (" +
                         std::to_string(results[i]->facts.size()) +
                         " facts)");
      } else {
        row_error(i, results[i].status());
      }
    }
  }

  PrintServiceStats(service, service.num_workers());
  if (obs.metrics) {
    // The service keeps its own registry (two services in one process
    // must not blend); dump it next to the global one Run() prints.
    std::fputs(service.metrics().RenderText().c_str(), stderr);
  }
  return 0;
}

/// Streams update batches from stdin through an incremental view of
/// `query`, printing the maintained result after each batch. `render`
/// formats the monoid value. Returns 1 on the first malformed command.
template <TwoMonoid M, typename Render>
int RunUpdateLoop(const ConjunctiveQuery& query, VersionedDatabase db,
                  M monoid, typename IncrementalView<M>::Annotator annotator,
                  const ObsOptions& obs, Dictionary* dict, Render render) {
  IncrementalEvaluator<M> evaluator(std::move(monoid), &db,
                                    std::move(annotator));
  auto handle = evaluator.Attach(query);
  if (!handle.ok()) {
    return Fail(handle.status());
  }
  const IncrementalView<M>& view = evaluator.view(*handle);
  if (obs::Tracer* const tracer = obs::Tracer::Current()) {
    tracer->EmitInstant("plan", "steps",
                        static_cast<double>(view.plan().steps().size()));
    // Attach just materialized the whole view tree, so the snapshot holds
    // one step event per plan step: the materialization EXPLAIN.
    if (obs.explain) {
      std::printf("%s", obs::RenderExplainAnalyze(view.plan(),
                                                  query.variables(),
                                                  tracer->Snapshot())
                            .c_str());
    }
  }
  const auto print_state = [&] {
    std::printf("gen=%llu |D|=%zu %s\n",
                static_cast<unsigned long long>(evaluator.generation()),
                db.NumFacts(), render(evaluator.ResultOf(*handle)).c_str());
    std::fflush(stdout);
  };
  print_state();
  std::string line;
  size_t line_number = 0;
  while (std::getline(std::cin, line)) {
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    if (Trim(line).empty()) {
      continue;
    }
    // The shared grammar (incremental/delta_text.h) validates the WHOLE
    // line — including intra-line arity consistency for relations the
    // schema doesn't know yet — before anything is applied, so a
    // malformed op mid-batch leaves the database generation unchanged.
    auto batch = ParseDeltaLine(line, dict, db, &query);
    if (!batch.ok()) {
      std::fprintf(stderr, "error: stdin:%zu: %s\n", line_number,
                   batch.status().ToString().c_str());
      return 1;
    }
    const auto& stats = view.stats();
    const uint64_t apply_ns_before = stats.apply_ns;
    const size_t inverses_before = stats.inverse_updates;
    const size_t refolds_before = stats.group_refolds;
    evaluator.ApplyDelta(*batch);
    // The ack line carries the batch's maintenance cost: wall time inside
    // Apply plus how the Rule 1 work split between O(1) inverse updates
    // and group refolds.
    std::printf("gen=%llu |D|=%zu %s apply_ns=%llu inv=%zu refold=%zu\n",
                static_cast<unsigned long long>(evaluator.generation()),
                db.NumFacts(), render(evaluator.ResultOf(*handle)).c_str(),
                static_cast<unsigned long long>(stats.apply_ns -
                                                apply_ns_before),
                stats.inverse_updates - inverses_before,
                stats.group_refolds - refolds_before);
    std::fflush(stdout);
    // Auto-truncate once the batch is applied AND acknowledged (the
    // state line above is the ack): this process is the only reader, so
    // an endless stream must not retain an endless batch log. TruncateLog
    // stays public for readers that manage retention themselves.
    db.TruncateLog(db.generation());
  }
  const auto& stats = view.stats();
  std::fprintf(stderr,
               "-- update: %zu batch(es), %zu op(s), %zu key(s) touched, "
               "%zu inverse update(s), %zu group refold(s), %llu ns "
               "applying; view support=%zu\n",
               stats.batches, stats.ops_seen, stats.keys_touched,
               stats.inverse_updates, stats.group_refolds,
               static_cast<unsigned long long>(stats.apply_ns),
               view.TotalSupport());
  return 0;
}

// -- Cross-process trace stitching ------------------------------------
// Both sides of a traced RPC are rendered by obs::Tracer::WriteChromeTrace
// (the server ships its rendering verbatim in QueryResult::trace_json),
// so the stitcher can rely on that exact shape — one event object per
// line, numeric "pid"/"ts"/"dur" fields — instead of a general JSON
// parser. Anything it cannot recognize fails the stitch, never produces
// a half-rewritten file.

/// One trace envelope reduced to what the stitcher needs.
struct ParsedTrace {
  uint64_t dropped = 0;
  std::vector<std::string> events;  ///< JSON objects, one per event.
};

/// Locates the numeric value following `"key": ` in `object`; reports
/// its offset and length so callers can read or splice it.
bool FindJsonNumber(const std::string& object, const char* key,
                    size_t* value_pos, size_t* value_len) {
  const std::string needle = std::string("\"") + key + "\": ";
  const size_t at = object.find(needle);
  if (at == std::string::npos) {
    return false;
  }
  const size_t start = at + needle.size();
  size_t end = start;
  while (end < object.size() &&
         (std::isdigit(static_cast<unsigned char>(object[end])) != 0 ||
          object[end] == '.' || object[end] == '-' || object[end] == '+' ||
          object[end] == 'e' || object[end] == 'E')) {
    ++end;
  }
  if (end == start) {
    return false;
  }
  *value_pos = start;
  *value_len = end - start;
  return true;
}

bool ReadJsonNumber(const std::string& object, const char* key,
                    double* value) {
  size_t pos = 0;
  size_t len = 0;
  if (!FindJsonNumber(object, key, &pos, &len)) {
    return false;
  }
  *value = std::strtod(object.c_str() + pos, nullptr);
  return true;
}

bool ReplaceJsonNumber(std::string* object, const char* key,
                       const std::string& replacement) {
  size_t pos = 0;
  size_t len = 0;
  if (!FindJsonNumber(*object, key, &pos, &len)) {
    return false;
  }
  object->replace(pos, len, replacement);
  return true;
}

/// Splits a WriteChromeTrace envelope into its dropped count and event
/// objects. False on anything that does not look like our own output.
bool ParseTracerEnvelope(const std::string& json, ParsedTrace* out) {
  double dropped = 0.0;
  if (!ReadJsonNumber(json, "dropped", &dropped) || dropped < 0.0) {
    return false;
  }
  out->dropped = static_cast<uint64_t>(dropped);
  const std::string open = "\"traceEvents\": [";
  const size_t array_at = json.find(open);
  const size_t close = json.rfind(']');
  if (array_at == std::string::npos || close == std::string::npos ||
      close < array_at + open.size()) {
    return false;
  }
  std::string body =
      json.substr(array_at + open.size(), close - array_at - open.size());
  size_t start = 0;
  while (start < body.size()) {
    size_t end = body.find(",\n", start);
    if (end == std::string::npos) {
      end = body.size();
    }
    std::string event = Trim(body.substr(start, end - start));
    if (!event.empty()) {
      if (event.front() != '{' || event.back() != '}') {
        return false;
      }
      out->events.push_back(std::move(event));
    }
    start = end + 2;
  }
  return true;
}

/// Merges the client-side tracer with the server's trace JSON into ONE
/// Chrome trace: client events keep pid 1, server events are re-labelled
/// pid 2, and server timestamps are re-based so the server's earliest
/// event lands at the start of the client's RPC span — each process
/// stamps ns from its own steady epoch, so raw timestamps from the two
/// sides are not comparable. Dropped counts add; `trace_id` is stamped
/// into the merged envelope. False (nothing written) if either side
/// cannot be parsed.
bool WriteStitchedTrace(const obs::Tracer& client_tracer,
                        const std::string& server_json,
                        const std::string& trace_id, uint64_t rpc_start_ns,
                        std::ostream& out) {
  std::ostringstream client_json;
  client_tracer.WriteChromeTrace(client_json, /*pid=*/1, trace_id);
  ParsedTrace client;
  ParsedTrace server;
  if (!ParseTracerEnvelope(client_json.str(), &client) ||
      !ParseTracerEnvelope(server_json, &server)) {
    return false;
  }
  double server_min_ts = 0.0;
  for (size_t i = 0; i < server.events.size(); ++i) {
    double ts = 0.0;
    if (!ReadJsonNumber(server.events[i], "ts", &ts)) {
      return false;
    }
    if (i == 0 || ts < server_min_ts) {
      server_min_ts = ts;
    }
  }
  // Chrome ts are microseconds; shift the server timeline so its first
  // event coincides with the client's send (the earliest instant the
  // server work can truly have started after).
  const double delta_us =
      static_cast<double>(rpc_start_ns) / 1000.0 - server_min_ts;
  struct Ordered {
    double ts = 0.0;
    double dur = 0.0;
    std::string json;
  };
  std::vector<Ordered> merged;
  merged.reserve(client.events.size() + server.events.size());
  for (std::string& event : client.events) {
    Ordered entry;
    if (!ReadJsonNumber(event, "ts", &entry.ts)) {
      return false;
    }
    ReadJsonNumber(event, "dur", &entry.dur);  // Instants carry none.
    entry.json = std::move(event);
    merged.push_back(std::move(entry));
  }
  for (std::string& event : server.events) {
    Ordered entry;
    if (!ReadJsonNumber(event, "ts", &entry.ts)) {
      return false;
    }
    entry.ts += delta_us;
    char rebased[32];
    std::snprintf(rebased, sizeof(rebased), "%.3f", entry.ts);
    if (!ReplaceJsonNumber(&event, "ts", rebased) ||
        !ReplaceJsonNumber(&event, "pid", "2")) {
      return false;
    }
    ReadJsonNumber(event, "dur", &entry.dur);
    entry.json = std::move(event);
    merged.push_back(std::move(entry));
  }
  // The validator's ordering contract: ts ascending, parents (longer
  // durations) before children at equal starts.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Ordered& a, const Ordered& b) {
                     if (a.ts != b.ts) {
                       return a.ts < b.ts;
                     }
                     return a.dur > b.dur;
                   });
  out << "{\"displayTimeUnit\": \"ns\", \"dropped\": "
      << (client.dropped + server.dropped);
  if (!trace_id.empty()) {
    out << ", \"trace_id\": \"" << trace_id << "\"";
  }
  out << ", \"traceEvents\": [";
  for (size_t i = 0; i < merged.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << merged[i].json;
  }
  out << "\n]}\n";
  return out.good();
}

/// `hierarq_cli client <host:port> <command> ...` — the same solvers,
/// answered by a running hierarq_server. Result lines are rendered
/// exactly as direct mode renders them, so `diff` between the two modes
/// is the bit-identical-results check.
int RunClient(int argc, char** argv, const ClientOptions& options) {
  if (argc < 4) {
    return Usage();
  }
  auto host_port = net::ParseHostPort(argv[2]);
  if (!host_port.ok()) {
    return Fail(host_port.status());
  }
  net::HierarqClient::Options client_opts;
  client_opts.max_retries = options.max_retries;
  net::HierarqClient client(client_opts);
  if (const Status connected =
          client.Connect(host_port->first, host_port->second);
      !connected.ok()) {
    return Fail(connected);
  }
  const std::string command = argv[3];

  if (command == "ping") {
    if (const Status status = client.Ping(); !status.ok()) {
      return Fail(status);
    }
    std::printf("pong\n");
    return 0;
  }
  if (command == "shutdown") {
    if (const Status status = client.Shutdown(); !status.ok()) {
      return Fail(status);
    }
    std::printf("server shutting down\n");
    return 0;
  }
  if (command == "status") {
    auto status = client.ServerStatus();
    if (!status.ok()) {
      return Fail(status.status());
    }
    std::printf("uptime_s           %.1f\n",
                static_cast<double>(status->uptime_ns) / 1e9);
    std::printf("queue_depth        %llu\n",
                static_cast<unsigned long long>(status->queue_depth));
    std::printf("oldest_job_age_ms  %.3f\n",
                static_cast<double>(status->oldest_job_age_ns) / 1e6);
    std::printf("active_connections %llu\n",
                static_cast<unsigned long long>(status->active_connections));
    std::printf("requests_total     %llu\n",
                static_cast<unsigned long long>(status->requests_total));
    std::printf("errors_total       %llu\n",
                static_cast<unsigned long long>(status->errors_total));
    for (const std::string& error : status->recent_errors) {
      std::printf("recent_error       %s\n", error.c_str());
    }
    return 0;
  }
  if (command == "metrics") {
    net::WireFormat rendering = net::WireFormat::kNative;
    if (argc == 5 && std::string_view(argv[4]) == "json") {
      rendering = net::WireFormat::kJson;
    } else if (argc == 5 && std::string_view(argv[4]) != "text") {
      return Usage();
    } else if (argc > 5) {
      return Usage();
    }
    auto rendered = client.Metrics(rendering);
    if (!rendered.ok()) {
      return Fail(rendered.status());
    }
    std::fputs(rendered->c_str(), stdout);
    return 0;
  }
  if (command == "update") {
    // Same stream grammar as direct update mode; each line is one atomic
    // batch, a parse error server-side applies NOTHING and ends the
    // stream nonzero with the server's op-precise message.
    std::string line;
    size_t line_number = 0;
    while (std::getline(std::cin, line)) {
      ++line_number;
      const size_t hash = line.find('#');
      if (hash != std::string::npos) {
        line.erase(hash);
      }
      if (Trim(line).empty()) {
        continue;
      }
      auto ack = client.ApplyDelta(line);
      if (!ack.ok()) {
        std::fprintf(stderr, "error: stdin:%zu: %s\n", line_number,
                     ack.status().ToString().c_str());
        return 1;
      }
      std::printf("gen=%llu |D|=%llu\n",
                  static_cast<unsigned long long>(ack->generation),
                  static_cast<unsigned long long>(ack->num_facts));
      std::fflush(stdout);
    }
    return 0;
  }

  auto solver = net::ParseSolverKind(command);
  if (!solver.ok() || argc != 5) {
    return Usage();
  }
  // A traced request is traced on BOTH sides: the client records its own
  // spans (pid 1) around the RPC, the server tags its work with the
  // minted trace id, and the two are stitched into one file below.
  const bool capture_trace = !options.trace_path.empty();
  std::string trace_id;
  std::optional<obs::Tracer> client_tracer;
  if (capture_trace) {
    trace_id = net::HierarqClient::MintTraceId();
    client_tracer.emplace();
    client_tracer->Install();
  }
  const uint64_t rpc_start_ns = obs::Tracer::NowNs();
  auto result = client.Query(*solver, argv[4], options.deadline_ms,
                             capture_trace, options.stats, trace_id);
  const uint64_t rpc_end_ns = obs::Tracer::NowNs();
  if (client_tracer.has_value()) {
    client_tracer->EmitSpan("client_rpc", "net", rpc_start_ns, rpc_end_ns);
    client_tracer->Uninstall();
  }
  if (!result.ok()) {
    return Fail(result.status());
  }
  switch (*solver) {
    case net::SolverKind::kCount:
      std::printf("Q(D) = %llu  (Algorithm 1, counting semiring)\n",
                  static_cast<unsigned long long>(result->count));
      break;
    case net::SolverKind::kPqe:
      std::printf("Pr[Q] = %.12g\n", result->number);
      break;
    case net::SolverKind::kExpect:
      std::printf("E[Q(D)] = %.12g\n", result->number);
      break;
    case net::SolverKind::kResilience:
      if (result->count == ResilienceMonoid::kInfinity) {
        std::printf("resilience = infinity (query cannot be falsified)\n");
      } else {
        std::printf("resilience = %llu\n",
                    static_cast<unsigned long long>(result->count));
      }
      break;
    case net::SolverKind::kShapley:
      for (const net::ShapleyEntry& entry : result->shapley) {
        std::printf("%-30s %s  (%.6f)\n", entry.fact.c_str(),
                    entry.fraction.c_str(), entry.value);
      }
      break;
  }
  if (options.stats) {
    if (client.last_response_had_stats()) {
      std::printf("stats: %s\n", result->stats.Render().c_str());
      std::printf(
          "timing: queue_wait=%.3fms exec=%.3fms\n",
          static_cast<double>(result->stats.queue_wait_ns) / 1e6,
          static_cast<double>(result->stats.exec_ns) / 1e6);
    } else {
      std::fprintf(stderr,
                   "warning: server answered without a stats section "
                   "(pre-accounting server?)\n");
    }
  }
  if (capture_trace) {
    std::ofstream out(options.trace_path, std::ios::binary);
    if (!out ||
        !WriteStitchedTrace(*client_tracer, result->trace_json, trace_id,
                            rpc_start_ns, out)) {
      std::fprintf(stderr, "error: cannot write stitched trace to %s\n",
                   options.trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace %s written to %s\n", trace_id.c_str(),
                 options.trace_path.c_str());
  }
  return 0;
}

/// `hierarq_cli update <solver> <query> <db>`.
int RunUpdate(int argc, char** argv, const ObsOptions& obs) {
  if (argc != 5) {
    return Usage();
  }
  const std::string solver = argv[2];
  if (solver != "count" && solver != "pqe" && solver != "expect") {
    std::fprintf(stderr,
                 "error: unknown update solver '%s' (expected count, pqe "
                 "or expect)\n",
                 solver.c_str());
    return 2;
  }
  auto parsed = ParseQuery(argv[3]);
  if (!parsed.ok()) {
    return Fail(parsed.status());
  }
  const ConjunctiveQuery query = std::move(parsed).ValueOrDie();
  Dictionary dict;

  if (solver == "count") {
    auto db = LoadDatabaseFromFile(argv[4], &dict);
    if (!db.ok()) {
      return Fail(db.status());
    }
    return RunUpdateLoop(
        query, VersionedDatabase(*std::move(db)), CountMonoid{},
        [](const Fact&, double) -> uint64_t { return 1; }, obs, &dict,
        [](uint64_t value) {
          return "Q(D) = " + std::to_string(value);
        });
  }
  auto db = LoadTidDatabaseFromFile(argv[4], &dict);
  if (!db.ok()) {
    return Fail(db.status());
  }
  // Weights are probabilities for both TID solvers; clamp to [0,1]
  // exactly as TidDatabase::AddFact clamps file-loaded facts, so a fact
  // is annotated the same whether it arrived by file or by stream.
  const auto weight_annotator = [](const Fact&, double weight) {
    return std::clamp(weight, 0.0, 1.0);
  };
  const auto render_double = [&solver](double value) {
    char out[64];
    std::snprintf(out, sizeof(out),
                  solver == "pqe" ? "Pr[Q] = %.12g" : "E[Q(D)] = %.12g",
                  value);
    return std::string(out);
  };
  if (solver == "pqe") {
    return RunUpdateLoop(query, VersionedDatabase(*db), ProbMonoid{},
                         weight_annotator, obs, &dict, render_double);
  }
  return RunUpdateLoop(query, VersionedDatabase(*db), ExpectationMonoid{},
                       weight_annotator, obs, &dict, render_double);
}

/// `snapshot <db> <dir>`: load a database file and commit it as a
/// durable snapshot (generation 0) — the offline way to seed a server
/// data directory before the first `--data-dir` boot.
int RunSnapshot(int argc, char** argv) {
  if (argc != 4) {
    return Usage();
  }
  Dictionary dict;
  auto db = LoadDatabaseFromFile(argv[2], &dict);
  if (!db.ok()) {
    return Fail(db.status());
  }
  const VersionedDatabase versioned(std::move(db).ValueOrDie());
  persist::RealFileIo io;
  auto stats = persist::WriteSnapshot(io, argv[3], versioned, dict);
  if (!stats.ok()) {
    return Fail(stats.status());
  }
  std::printf("snapshot generation %llu: %zu relation(s), %zu fact(s), "
              "%llu bytes -> %s\n",
              static_cast<unsigned long long>(stats->generation),
              stats->relations, stats->facts,
              static_cast<unsigned long long>(stats->bytes), argv[3]);
  return 0;
}

/// `recover <dir>`: run crash recovery (newest valid snapshot + WAL
/// replay) and report what survived — the offline check that a data
/// directory is loadable and how far it reaches.
int RunRecover(int argc, char** argv) {
  if (argc != 3) {
    return Usage();
  }
  Dictionary dict;
  persist::RealFileIo io;
  persist::RecoverResult detail;
  auto db = persist::RecoverDatabase(io, argv[2], &dict, &detail);
  if (!db.ok()) {
    return Fail(db.status());
  }
  std::printf("recovered generation %llu (snapshot %llu + %zu wal "
              "record(s))\n",
              static_cast<unsigned long long>(detail.recovered_generation),
              static_cast<unsigned long long>(detail.snapshot_generation),
              detail.wal_records);
  std::printf("%zu relation(s), %zu fact(s)\n",
              db->facts().relations().size(), db->NumFacts());
  if (detail.used_fallback_manifest) {
    std::printf("note: MANIFEST was invalid; recovered via MANIFEST.1\n");
  }
  if (detail.wal_truncated_bytes > 0) {
    std::printf("note: %zu torn/corrupt wal byte(s) truncated\n",
                detail.wal_truncated_bytes);
  }
  return 0;
}

int Run(int argc, char** argv) {
  // Peel the global flags off wherever they appear, leaving the
  // positional arguments in place. Bad values and unknown --flags are
  // errors, not silent fallbacks to defaults.
  ObsOptions obs;
  ClientOptions client_options;
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--explain") {
      obs.explain = true;
      continue;
    }
    if (arg.rfind("--trace=", 0) == 0) {
      obs.trace_path = std::string(arg.substr(8));
      if (obs.trace_path.empty()) {
        std::fprintf(stderr, "error: --trace needs a file path\n");
        return Usage();
      }
      continue;
    }
    if (arg == "--metrics") {
      obs.metrics = true;
      continue;
    }
    if (arg.rfind("--deadline-ms=", 0) == 0) {
      const auto parsed_deadline = ParseInt64(arg.substr(14));
      if (!parsed_deadline.ok() || *parsed_deadline < 0) {
        std::fprintf(stderr,
                     "error: bad deadline in '%s' (expected an integer "
                     ">= 0)\n",
                     argv[i]);
        return Usage();
      }
      client_options.deadline_ms = static_cast<uint64_t>(*parsed_deadline);
      continue;
    }
    if (arg.rfind("--request-trace=", 0) == 0) {
      client_options.trace_path = std::string(arg.substr(16));
      if (client_options.trace_path.empty()) {
        std::fprintf(stderr, "error: --request-trace needs a file path\n");
        return Usage();
      }
      continue;
    }
    if (arg == "--stats") {
      client_options.stats = true;
      continue;
    }
    if (arg.rfind("--retries=", 0) == 0) {
      auto parsed_retries = ParseInt64(arg.substr(10));
      if (!parsed_retries.ok() || *parsed_retries < 0) {
        std::fprintf(stderr, "error: bad retry count in '%s'\n", argv[i]);
        return Usage();
      }
      client_options.max_retries = static_cast<uint32_t>(*parsed_retries);
      continue;
    }
    if (i > 0 && arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[i]);
      return Usage();
    }
    args.push_back(argv[i]);
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  if (argc < 3) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "batch" && obs.explain) {
    std::fprintf(stderr,
                 "error: --explain needs a single query (batch mode "
                 "answers many); use --trace=FILE instead\n");
    return 2;
  }

  // The flight recorder spans every mode; the trace file and the metrics
  // dump are written in the shared epilogue below.
  std::optional<obs::Tracer> tracer;
  if (obs.explain || !obs.trace_path.empty()) {
    tracer.emplace();
    tracer->Install();
  }
  const auto finish = [&](int rc) {
    if (tracer.has_value() && !obs.trace_path.empty()) {
      tracer->WriteChromeTraceFile(obs.trace_path);
    }
    if (obs.metrics) {
      std::fputs(obs::MetricsRegistry::Global().RenderText().c_str(),
                 stderr);
    }
    if (tracer.has_value()) {
      tracer->Uninstall();
    }
    return rc;
  };

  if (command == "batch") {
    return finish(RunBatch(argc, argv, obs));
  }
  if (command == "update") {
    return finish(RunUpdate(argc, argv, obs));
  }
  if (command == "client") {
    return finish(RunClient(argc, argv, client_options));
  }
  if (command == "snapshot") {
    return finish(RunSnapshot(argc, argv));
  }
  if (command == "recover") {
    return finish(RunRecover(argc, argv));
  }
  auto parsed = ParseQuery(argv[2]);
  if (!parsed.ok()) {
    return finish(Fail(parsed.status()));
  }
  const ConjunctiveQuery query = std::move(parsed).ValueOrDie();
  Dictionary dict;
  // The command dispatch runs inside a lambda so the explain/trace
  // epilogue below sees its return code.
  const int rc = [&]() -> int {
  // One evaluator for the whole invocation: any command that runs
  // Algorithm 1 more than once (shapley above all) shares its cached plan
  // and relation buffers.
  Evaluator evaluator;

  auto load = [&dict](const char* path) {
    return LoadDatabaseFromFile(path, &dict);
  };
  auto load_tid = [&dict](const char* path) {
    return LoadTidDatabaseFromFile(path, &dict);
  };

  if (command == "classify") {
    std::printf("query: %s\n", query.ToString().c_str());
    std::printf("class: %s\n", QueryClassName(Classify(query)));
    if (auto violation = FindHierarchyViolation(query)) {
      std::printf("violation: %s\n", violation->ToString(query).c_str());
    } else {
      auto forest = BuildHierarchyForest(query);
      std::printf("hierarchy tree: %s\n",
                  forest->ToString(query.variables()).c_str());
    }
    return 0;
  }

  if (command == "plan") {
    auto plan = EliminationPlan::Build(query);
    if (!plan.ok()) {
      return Fail(plan.status());
    }
    std::printf("%s\n", plan->ToString(query.variables()).c_str());
    return 0;
  }

  if (command == "count") {
    if (argc != 4) {
      return Usage();
    }
    auto db = load(argv[3]);
    if (!db.ok()) {
      return Fail(db.status());
    }
    std::printf("Q(D) = %llu  (join engine)\n",
                static_cast<unsigned long long>(BagSetCount(query, *db)));
    // The shared evaluator (not BagSetCountHierarchical) so the fast
    // path shows up under --explain;
    // both are Algorithm 1 in the counting semiring with annotation 1.
    auto fast = evaluator.Evaluate<CountMonoid>(
        query, CountMonoid{}, *db, [](const Fact&) -> uint64_t { return 1; });
    if (fast.ok()) {
      std::printf("Q(D) = %llu  (Algorithm 1, counting semiring)\n",
                  static_cast<unsigned long long>(*fast));
    }
    return 0;
  }

  if (command == "pqe" || command == "pqe-any" || command == "expect") {
    if (argc != 4) {
      return Usage();
    }
    auto db = load_tid(argv[3]);
    if (!db.ok()) {
      return Fail(db.status());
    }
    auto value = command == "pqe" ? EvaluateProbability(evaluator, query, *db)
                : command == "pqe-any"
                    ? EvaluateProbabilityExhaustive(query, *db)
                    : ExpectedMultiplicity(evaluator, query, *db);
    if (!value.ok()) {
      return Fail(value.status());
    }
    std::printf(command == "expect" ? "E[Q(D)] = %.12g\n"
                                    : "Pr[Q] = %.12g\n",
                *value);
    return 0;
  }

  if (command == "bagset" || command == "repair") {
    if (argc != 6) {
      return Usage();
    }
    auto d = load(argv[3]);
    if (!d.ok()) {
      return Fail(d.status());
    }
    auto dr = load(argv[4]);
    if (!dr.ok()) {
      return Fail(dr.status());
    }
    auto budget = ParseInt64(argv[5]);
    if (!budget.ok() || *budget < 0) {
      return Usage();
    }
    auto result = MaximizeBagSet(query, *d, *dr,
                                 static_cast<size_t>(*budget));
    if (!result.ok()) {
      return Fail(result.status());
    }
    std::printf("optimum at budget %lld: %llu\n",
                static_cast<long long>(*budget),
                static_cast<unsigned long long>(result->max_multiplicity));
    std::printf("profile:");
    for (uint64_t v : result->profile) {
      std::printf(" %llu", static_cast<unsigned long long>(v));
    }
    std::printf("\n");
    if (command == "repair") {
      auto witness = ExtractOptimalRepair(query, *d, *dr,
                                          static_cast<size_t>(*budget));
      if (!witness.ok()) {
        return Fail(witness.status());
      }
      std::printf("optimal repair:\n");
      for (const Fact& f : *witness) {
        std::printf("  + %s\n", RenderFact(f, dict).c_str());
      }
    }
    return 0;
  }

  if (command == "shapley") {
    if (argc != 5) {
      return Usage();
    }
    auto exo = load(argv[3]);
    if (!exo.ok()) {
      return Fail(exo.status());
    }
    auto endo = load(argv[4]);
    if (!endo.ok()) {
      return Fail(endo.status());
    }
    auto values = AllShapleyValues(evaluator, query, *exo, *endo);
    if (!values.ok()) {
      return Fail(values.status());
    }
    for (const auto& [fact, value] : *values) {
      std::printf("%-30s %s  (%.6f)\n", RenderFact(fact, dict).c_str(),
                  value.ToString().c_str(), value.ToDouble());
    }
    return 0;
  }

  if (command == "resilience") {
    if (argc != 5) {
      return Usage();
    }
    auto exo = load(argv[3]);
    if (!exo.ok()) {
      return Fail(exo.status());
    }
    auto endo = load(argv[4]);
    if (!endo.ok()) {
      return Fail(endo.status());
    }
    auto value = ComputeResilience(evaluator, query, *exo, *endo);
    if (!value.ok()) {
      return Fail(value.status());
    }
    if (*value == ResilienceMonoid::kInfinity) {
      std::printf("resilience = infinity (query cannot be falsified)\n");
    } else {
      std::printf("resilience = %llu\n",
                  static_cast<unsigned long long>(*value));
    }
    return 0;
  }

  if (command == "provenance") {
    if (argc != 4) {
      return Usage();
    }
    auto db = load(argv[3]);
    if (!db.ok()) {
      return Fail(db.status());
    }
    auto prov = ComputeProvenance(evaluator, query, *db);
    if (!prov.ok()) {
      return Fail(prov.status());
    }
    std::printf("%s\n", prov->tree->ToString().c_str());
    for (size_t i = 0; i < prov->facts.size(); ++i) {
      std::printf("  f%zu = %s\n", i,
                  RenderFact(prov->facts[i], dict).c_str());
    }
    return 0;
  }

  return Usage();
  }();

  // Explain/trace epilogue for the commands that replay `query`'s
  // elimination plan. The "plan" instant tells tools/check_trace.py how
  // many steps a complete trace must cover.
  const bool evaluates_plan = command == "count" || command == "pqe" ||
                              command == "expect" || command == "shapley" ||
                              command == "resilience" ||
                              command == "provenance";
  if (rc == 0 && tracer.has_value() && evaluates_plan) {
    auto plan = EliminationPlan::Build(query);
    if (plan.ok()) {
      tracer->EmitInstant("plan", "steps",
                          static_cast<double>(plan->steps().size()));
      if (obs.explain) {
        std::printf("%s", obs::RenderExplainAnalyze(*plan,
                                                    query.variables(),
                                                    tracer->Snapshot())
                              .c_str());
      }
    } else if (obs.explain) {
      std::fprintf(stderr, "note: --explain skipped: %s\n",
                   plan.status().ToString().c_str());
    }
  } else if (obs.explain && !evaluates_plan) {
    std::fprintf(stderr,
                 "note: --explain has no effect for '%s' (nothing ran "
                 "Algorithm 1 over the query's plan)\n",
                 command.c_str());
  }
  return finish(rc);
}

}  // namespace
}  // namespace hierarq

int main(int argc, char** argv) {
  return hierarq::Run(argc, argv);
}
