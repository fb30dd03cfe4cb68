#ifndef HIERARQ_BENCH_E2E_SERVER_PROCESS_H_
#define HIERARQ_BENCH_E2E_SERVER_PROCESS_H_

/// \file server_process.h
/// \brief `ServerProcess` — one `hierarq_server` child process.
///
/// The benchmark measures the server as a client sees it, so the server
/// runs as its own process: spawned with the workload's flags, found
/// through the `listening on 127.0.0.1:PORT` line it prints, observed
/// through /proc (CPU, peak RSS, bytes written to storage), and ended
/// by SIGTERM or SIGKILL. The destructor kills and reaps a child that is
/// still running, so no exit path leaves a server behind.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hierarq/util/result.h"
#include "hierarq/util/status.h"

namespace hierarq::bench {

/// What /proc reports about a live process.
struct ProcSample {
  uint64_t cpu_ticks = 0;    ///< utime + stime, in clock ticks.
  uint64_t vm_rss_kb = 0;    ///< Resident set now (VmRSS).
  uint64_t write_bytes = 0;  ///< Bytes sent to the storage layer.
};

/// Clock ticks per second for ProcSample::cpu_ticks.
double ClockTicksPerSecond();

class ServerProcess {
 public:
  /// Spawns `server_path` with `args`, its stderr appended to
  /// `log_path`, and waits up to `timeout_s` for the listening line.
  /// `startup_s` receives spawn → listening in seconds.
  static Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& server_path, const std::vector<std::string>& args,
      const std::string& log_path, double timeout_s, double* startup_s);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

  Result<ProcSample> Sample() const;

  /// SIGKILL and reap: the crash a durability check needs.
  void Kill();

  /// SIGTERM, then SIGKILL if the server has not exited within
  /// `timeout_s`; reaps either way. Fails if the server had to be killed
  /// or exited non-zero.
  Status Stop(double timeout_s = 10.0);

 private:
  ServerProcess(pid_t pid, uint16_t port) : pid_(pid), port_(port) {}

  /// Waits up to `timeout_s` for the child; true once reaped.
  bool Reap(double timeout_s, int* exit_status);

  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// The filesystem type under `path` ("ext4/ext3/ext2", "tmpfs", ...).
std::string FilesystemType(const std::string& path);

}  // namespace hierarq::bench

#endif  // HIERARQ_BENCH_E2E_SERVER_PROCESS_H_
