#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/vfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace hierarq::bench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Reads `fd` until a newline or `deadline`; false on EOF or timeout.
bool ReadLine(int fd, Clock::time_point deadline, std::string* line) {
  char c = 0;
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      return false;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready <= 0) {
      return false;
    }
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    if (c == '\n') {
      return true;
    }
    *line += c;
  }
}

std::string Tail(const std::string& path) {
  std::ifstream in(path);
  std::stringstream all;
  all << in.rdbuf();
  const std::string text = all.str();
  return text.size() > 600 ? text.substr(text.size() - 600) : text;
}

}  // namespace

double ClockTicksPerSecond() {
  return static_cast<double>(::sysconf(_SC_CLK_TCK));
}

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& server_path, const std::vector<std::string>& args,
    const std::string& log_path, double timeout_s, double* startup_s) {
  int out[2] = {-1, -1};
  if (::pipe2(out, O_CLOEXEC) != 0) {
    return Errno("pipe2");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(server_path.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const Clock::time_point start = Clock::now();
  pid_t pid = -1;
  const int spawned = ::posix_spawn(&pid, server_path.c_str(), &actions,
                                    nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  if (spawned != 0) {
    ::close(out[0]);
    errno = spawned;
    return Errno("posix_spawn " + server_path);
  }
  // From here the child exists: the owner reaps it on every path.
  std::unique_ptr<ServerProcess> process(new ServerProcess(pid, 0));

  std::string line;
  const bool got_line = ReadLine(
      out[0],
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(timeout_s)),
      &line);
  const double elapsed = SecondsSince(start);
  ::close(out[0]);
  constexpr std::string_view kPrefix = "listening on 127.0.0.1:";
  if (!got_line || line.rfind(kPrefix, 0) != 0) {
    return Status::Internal("server did not report a port (got '" + line +
                            "'); log tail: " + Tail(log_path));
  }
  const int port = std::atoi(line.c_str() + kPrefix.size());
  if (port <= 0 || port > 65535) {
    return Status::Internal("bad listening line '" + line + "'");
  }
  process->port_ = static_cast<uint16_t>(port);
  *startup_s = elapsed;
  return process;
}

ServerProcess::~ServerProcess() { Kill(); }

bool ServerProcess::Reap(double timeout_s, int* exit_status) {
  const Clock::time_point start = Clock::now();
  while (true) {
    const pid_t done = ::waitpid(pid_, exit_status, WNOHANG);
    if (done == pid_ || (done < 0 && errno == ECHILD)) {
      pid_ = -1;
      return true;
    }
    if (SecondsSince(start) >= timeout_s) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void ServerProcess::Kill() {
  if (pid_ <= 0) {
    return;
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

Status ServerProcess::Stop(double timeout_s) {
  if (pid_ <= 0) {
    return Status::OK();
  }
  ::kill(pid_, SIGTERM);
  int status = 0;
  if (!Reap(timeout_s, &status)) {
    Kill();
    return Status::Internal("server ignored SIGTERM; killed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("server exited abnormally (wait status " +
                            std::to_string(status) + ")");
  }
  return Status::OK();
}

Result<ProcSample> ServerProcess::Sample() const {
  if (pid_ <= 0) {
    return Status::Internal("no live server process");
  }
  const std::string proc = "/proc/" + std::to_string(pid_);
  ProcSample sample;
  {
    std::ifstream in(proc + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // The command name may hold spaces; fields resume after its ')'.
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) {
      return Status::Internal("cannot read " + proc + "/stat");
    }
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    // Fields 3..13 precede utime (14) and stime (15).
    for (int i = 3; i <= 13; ++i) {
      fields >> field;
    }
    uint64_t utime = 0;
    uint64_t stime = 0;
    fields >> utime >> stime;
    sample.cpu_ticks = utime + stime;
  }
  {
    std::ifstream in(proc + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmRSS:") {
        in >> sample.vm_rss_kb;
        break;
      }
      in.ignore(1 << 12, '\n');
    }
  }
  {
    std::ifstream in(proc + "/io");
    std::string key;
    while (in >> key) {
      if (key == "write_bytes:") {
        in >> sample.write_bytes;
        break;
      }
      in.ignore(1 << 12, '\n');
    }
  }
  return sample;
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) {
    return "unknown";
  }
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53:
      return "ext2/ext3/ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return hex;
    }
  }
}

}  // namespace hierarq::bench
