#pragma once
// Lifecycle of the serve_daemon processes the benchmark drives.
//
// A Daemon is fork+exec'd with its stdout on a pipe and PR_SET_PDEATHSIG
// = SIGKILL, so it cannot outlive the benchmark even when the benchmark is
// SIGKILLed. stop() (also run by the destructor, on exception paths too)
// sends SIGTERM, waits a bounded time for the graceful drain, then
// SIGKILLs. install_cleanup_handlers() covers a SIGTERM/SIGINT/SIGHUP sent
// to the benchmark itself: the handler stops every live daemon the same
// way and exits.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Daemon {
public:
    /// Spawns `binary args...`, bound to `cpus` when it is not empty.
    /// Throws std::runtime_error if fork fails.
    Daemon(const std::string& binary, const std::vector<std::string>& args,
           const std::vector<int>& cpus = {});
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;
    Daemon(Daemon&&) = delete;
    Daemon& operator=(Daemon&&) = delete;

    /// Reads the daemon's stdout until it prints the "on <host>:<port>,"
    /// listening line; returns the port. Throws (with the output so far)
    /// when the daemon exits or stays silent past `timeout`.
    std::uint16_t wait_port(const std::string& host, std::chrono::milliseconds timeout);

    /// Waits for a daemon run that ends by itself (e.g. --save-bundle).
    /// True when it exited 0 within `timeout` (SIGKILLed otherwise).
    bool wait_exit(std::chrono::milliseconds timeout);

    /// SIGTERM, bounded wait for the graceful drain, SIGKILL if still
    /// running. True only when the daemon exited with status 0. Idempotent.
    bool stop(std::chrono::milliseconds grace = std::chrono::seconds(10));

    pid_t pid() const { return pid_; }

    /// utime + stime of the running daemon, in seconds (/proc/<pid>/stat).
    double cpu_seconds() const;

    /// Peak resident set (VmHWM) of the running daemon, in kB.
    double peak_rss_kb() const;

    /// Everything read from the daemon's stdout so far (after stop() or
    /// wait_exit(), the whole output).
    const std::string& output() const { return output_; }

private:
    /// Appends available stdout to output_; false on EOF.
    bool read_some(int timeout_ms);
    bool reap(std::chrono::milliseconds timeout);

    pid_t pid_ = -1;
    int stdout_fd_ = -1;
    int status_ = -1;
    bool exited_ = false;
    std::string output_;
};

/// Binds the calling process (every thread it starts later) to `cpus`.
void bind_to_cpus(const std::vector<int>& cpus);

/// Routes SIGTERM, SIGINT and SIGHUP to a handler that stops every live
/// Daemon (SIGTERM, bounded wait, SIGKILL, reap) and exits 128 + signo.
void install_cleanup_handlers();

}  // namespace perfbench
