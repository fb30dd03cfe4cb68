// hierarq server daemon.
//
// Serves one database over the wire protocol of src/hierarq/net/wire.h:
// query frames for the five solvers (count, pqe, expect, resilience,
// shapley), atomic delta-batch updates in the textual grammar shared
// with `hierarq_cli update`, and a /metrics-style scrape frame. Talk to
// it with `hierarq_cli client <host:port> ...` or `HierarqClient`.
//
//   hierarq_server --db=FILE [options]
//   hierarq_server --data-dir=DIR [--db=FILE] [options]
//
//   --db=FILE          primary database (count/pqe/expect, deltas)
//   --data-dir=DIR     durable persistence (persist/persistor.h): on
//                      start, recover the database from DIR if it holds
//                      a snapshot (--db is then only the first-boot
//                      seed); while serving, WAL-append + fsync every
//                      delta BEFORE acking — an acked update survives
//                      SIGKILL — and snapshot periodically
//   --snapshot-every=N with --data-dir: write a snapshot every N acked
//                      deltas (default 256; 0 = only at boot)
//   --max-connections=N reject connections past N with a clean
//                      resource-exhausted error frame (default 0 = off)
//   --tid              load --db as a TID database (weights = probs)
//   --endo=FILE        endogenous database for resilience/shapley
//                      (--db then acts as the exogenous side)
//   --port=N           TCP port on 127.0.0.1 (default 0 = ephemeral;
//                      the chosen port is printed either way)
//   --workers=N        evaluation worker pool size (0 = all cores)
//   --submitters=N     async submitter threads (default 2)
//   --queue-limit=N    admission queue depth (default 64; full = reject)
//   --deadline-ms=N    default per-request deadline (0 = unbounded)
//   --slow-query-ms=N  log any query at or over N ms of evaluation wall
//                      time (query text, QueryStats, EXPLAIN ANALYZE);
//                      0 logs every query, unset disables the log
//   --log-json         structured logs as JSON lines (default key=value)
//
// On startup prints exactly one line `listening on 127.0.0.1:PORT` to
// stdout (flushed — CI scrapes it to find an ephemeral port), then
// serves until SIGINT/SIGTERM or a kShutdown frame. Lifecycle and
// slow-query events go to stderr through the structured logger
// (obs/log.h).

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "hierarq/data/loader.h"
#include "hierarq/incremental/versioned_database.h"
#include "hierarq/net/server.h"
#include "hierarq/obs/log.h"
#include "hierarq/persist/persistor.h"
#include "hierarq/util/strings.h"

namespace hierarq {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: hierarq_server --db=FILE [--tid] [--endo=FILE] [--port=N]\n"
      "                      [--data-dir=DIR] [--snapshot-every=N]\n"
      "                      [--max-connections=N]\n"
      "                      [--workers=N] [--submitters=N] "
      "[--queue-limit=N]\n"
      "                      [--deadline-ms=N]\n"
      "                      [--slow-query-ms=N] [--log-json]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// SIGINT/SIGTERM land here. A handler may only do async-signal-safe
/// work, so it writes one byte into a pipe; a watcher thread turns that
/// into the server's (mutex-guarded) shutdown request.
int g_shutdown_pipe[2] = {-1, -1};

extern "C" void HandleSignal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
}

int Run(int argc, char** argv) {
  std::string db_path;
  std::string endo_path;
  std::string data_dir;
  uint64_t snapshot_every = 256;
  bool tid = false;
  net::HierarqServer::Options options;
  bool log_json = false;

  const auto parse_count = [](std::string_view text, int64_t min,
                              int64_t* out) {
    auto parsed = ParseInt64(text);
    if (!parsed.ok() || *parsed < min) {
      return false;
    }
    *out = *parsed;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    int64_t n = 0;
    if (arg.rfind("--db=", 0) == 0) {
      db_path = std::string(arg.substr(5));
    } else if (arg.rfind("--endo=", 0) == 0) {
      endo_path = std::string(arg.substr(7));
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      data_dir = std::string(arg.substr(11));
    } else if (arg.rfind("--snapshot-every=", 0) == 0) {
      if (!parse_count(arg.substr(17), 0, &n)) {
        std::fprintf(stderr, "error: bad snapshot interval in '%s'\n",
                     argv[i]);
        return Usage();
      }
      snapshot_every = static_cast<uint64_t>(n);
    } else if (arg.rfind("--max-connections=", 0) == 0) {
      if (!parse_count(arg.substr(18), 0, &n)) {
        std::fprintf(stderr, "error: bad connection limit in '%s'\n",
                     argv[i]);
        return Usage();
      }
      options.max_connections = static_cast<size_t>(n);
    } else if (arg == "--tid") {
      tid = true;
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!parse_count(arg.substr(7), 0, &n) || n > 65535) {
        std::fprintf(stderr, "error: bad port in '%s'\n", argv[i]);
        return Usage();
      }
      options.port = static_cast<uint16_t>(n);
    } else if (arg.rfind("--workers=", 0) == 0) {
      if (!parse_count(arg.substr(10), 0, &n)) {
        std::fprintf(stderr, "error: bad worker count in '%s'\n", argv[i]);
        return Usage();
      }
      options.async.service.num_workers = static_cast<size_t>(n);
    } else if (arg.rfind("--submitters=", 0) == 0) {
      if (!parse_count(arg.substr(13), 1, &n)) {
        std::fprintf(stderr, "error: bad submitter count in '%s'\n",
                     argv[i]);
        return Usage();
      }
      options.async.submit_threads = static_cast<size_t>(n);
    } else if (arg.rfind("--queue-limit=", 0) == 0) {
      if (!parse_count(arg.substr(14), 0, &n)) {
        std::fprintf(stderr, "error: bad queue limit in '%s'\n", argv[i]);
        return Usage();
      }
      options.async.max_queue_depth = static_cast<size_t>(n);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      if (!parse_count(arg.substr(14), 0, &n)) {
        std::fprintf(stderr, "error: bad deadline in '%s'\n", argv[i]);
        return Usage();
      }
      options.async.default_deadline_ms = static_cast<uint64_t>(n);
    } else if (arg.rfind("--slow-query-ms=", 0) == 0) {
      if (!parse_count(arg.substr(16), 0, &n)) {
        std::fprintf(stderr, "error: bad slow-query threshold in '%s'\n",
                     argv[i]);
        return Usage();
      }
      options.slow_query_ms = n;
    } else if (arg == "--log-json") {
      log_json = true;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[i]);
      return Usage();
    }
  }
  if (db_path.empty() && data_dir.empty()) {
    std::fprintf(stderr, "error: --db=FILE (or --data-dir=DIR) is required\n");
    return Usage();
  }

  // Startup-only: the global logger carries every structured event from
  // here on (lifecycle, slow queries, protocol errors), all on stderr so
  // the scraped `listening on` stdout line stays alone.
  obs::Logger::Options log_options;
  log_options.json = log_json;
  obs::Logger& log = obs::Logger::Global();
  log.Configure(log_options);

  // The dictionary outlives the server: databases load through it, delta
  // frames intern into it, shapley results render from it.
  static Dictionary dict;
  VersionedDatabase db = [&]() -> VersionedDatabase {
    if (db_path.empty()) {
      return VersionedDatabase();  // --data-dir only: recover or start empty.
    }
    if (tid) {
      auto loaded = LoadTidDatabaseFromFile(db_path, &dict);
      if (!loaded.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     loaded.status().ToString().c_str());
        std::exit(1);
      }
      return VersionedDatabase(*std::move(loaded));
    }
    auto loaded = LoadDatabaseFromFile(db_path, &dict);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      std::exit(1);
    }
    return VersionedDatabase(std::move(loaded).ValueOrDie());
  }();
  Database endogenous;
  if (!endo_path.empty()) {
    auto loaded = LoadDatabaseFromFile(endo_path, &dict);
    if (!loaded.ok()) {
      return Fail(loaded.status());
    }
    endogenous = std::move(loaded).ValueOrDie();
  }

  // Durability: recover-or-seed the database from the data dir BEFORE
  // the server sees it, and hand the server the persistor so every
  // acked delta is WAL-durable. The persistor outlives the server (the
  // server holds a raw pointer and appends until Stop()).
  std::unique_ptr<persist::Persistor> persistor;
  if (!data_dir.empty()) {
    persist::Persistor::Options persist_options;
    persist_options.snapshot_every = snapshot_every;
    auto opened = persist::Persistor::Open(data_dir, persist_options);
    if (!opened.ok()) {
      return Fail(opened.status());
    }
    persistor = std::move(*opened);
    auto booted = persistor->Boot(std::move(db), &dict);
    if (!booted.ok()) {
      return Fail(booted.status());
    }
    db = std::move(*booted);
    options.persist = persistor.get();
  }

  net::HierarqServer server(options, std::move(db), std::move(endogenous),
                            &dict);
  // Read before Start(): once the server listens, a connection may be
  // applying a delta to the database.
  const size_t num_facts = server.database().NumFacts();
  if (const Status started = server.Start(); !started.ok()) {
    return Fail(started);
  }

  if (::pipe(g_shutdown_pipe) != 0) {
    return Fail(Status::Internal(std::string("pipe: ") +
                                 std::strerror(errno)));
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::jthread signal_watcher([&server, &log] {
    char byte = 0;
    while (::read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    log.Info("signal", {{"action", "shutdown"}});
    server.Stop();
  });

  std::printf("listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  log.Info("listening",
           {{"addr", "127.0.0.1:" + std::to_string(server.port())},
            {"db", db_path},
            {"facts", std::to_string(num_facts)},
            {"slow_query_ms", std::to_string(options.slow_query_ms)}});

  server.Wait();
  server.Stop();
  log.Info("stopped", {});
  // Unblock the watcher (self-signal through the pipe) so its jthread
  // joins; Stop above is idempotent.
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
  return 0;
}

}  // namespace
}  // namespace hierarq

int main(int argc, char** argv) { return hierarq::Run(argc, argv); }
