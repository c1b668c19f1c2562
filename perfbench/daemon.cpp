#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

// Live daemon pids, readable from a signal handler (lock-free atomics only).
constexpr std::size_t kMaxLive = 32;
std::atomic<pid_t> g_live[kMaxLive];

void register_pid(pid_t pid) {
    for (auto& slot : g_live) {
        pid_t empty = 0;
        if (slot.compare_exchange_strong(empty, pid)) {
            return;
        }
    }
}

void unregister_pid(pid_t pid) {
    for (auto& slot : g_live) {
        pid_t expected = pid;
        slot.compare_exchange_strong(expected, 0);
    }
}

cpu_set_t cpu_set(const std::vector<int>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) {
        CPU_SET(cpu, &set);
    }
    return set;
}

void sleep_ms(long ms) {
    timespec ts{ms / 1000, (ms % 1000) * 1000000L};
    nanosleep(&ts, nullptr);
}

// Async-signal-safe: kill, waitpid, nanosleep and _exit only.
void cleanup_handler(int signo) {
    for (auto& slot : g_live) {
        const pid_t pid = slot.load();
        if (pid > 0) {
            kill(pid, SIGTERM);
        }
    }
    for (int waited_ms = 0; waited_ms < 5000; waited_ms += 10) {
        bool any = false;
        for (auto& slot : g_live) {
            const pid_t pid = slot.load();
            if (pid <= 0) {
                continue;
            }
            int status = 0;
            const pid_t reaped = waitpid(pid, &status, WNOHANG);
            if (reaped == pid || (reaped == -1 && errno == ECHILD)) {
                slot.store(0);
            } else {
                any = true;
            }
        }
        if (!any) {
            _exit(128 + signo);
        }
        sleep_ms(10);
    }
    for (auto& slot : g_live) {
        const pid_t pid = slot.load();
        if (pid > 0) {
            kill(pid, SIGKILL);
            int status = 0;
            waitpid(pid, &status, 0);
        }
    }
    _exit(128 + signo);
}

}  // namespace

void install_cleanup_handlers() {
    struct sigaction action {};
    action.sa_handler = cleanup_handler;
    sigemptyset(&action.sa_mask);
    for (const int signo : {SIGTERM, SIGINT, SIGHUP}) {
        sigaddset(&action.sa_mask, signo);
    }
    for (const int signo : {SIGTERM, SIGINT, SIGHUP}) {
        sigaction(signo, &action, nullptr);
    }
}

void bind_to_cpus(const std::vector<int>& cpus) {
    const cpu_set_t set = cpu_set(cpus);
    if (sched_setaffinity(0, sizeof set, &set) != 0) {
        throw std::runtime_error(std::string("sched_setaffinity: ") + std::strerror(errno));
    }
}

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args,
               const std::vector<int>& cpus) {
    int fds[2] = {-1, -1};
    if (pipe2(fds, O_CLOEXEC) != 0) {
        throw std::runtime_error(std::string("pipe2: ") + std::strerror(errno));
    }
    // Everything the child touches is prepared before fork(): between
    // fork and exec only async-signal-safe calls are allowed.
    std::vector<std::string> argv_storage;
    argv_storage.push_back(binary);
    argv_storage.insert(argv_storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& arg : argv_storage) {
        argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    const cpu_set_t cpu_mask = cpu_set(cpus);
    const pid_t parent = getpid();

    const pid_t pid = fork();
    if (pid == -1) {
        const int err = errno;
        close(fds[0]);
        close(fds[1]);
        throw std::runtime_error(std::string("fork: ") + std::strerror(err));
    }
    if (pid == 0) {
        // Die with the benchmark, however it ends.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent) {
            _exit(127);
        }
        sigset_t none;
        sigemptyset(&none);
        sigprocmask(SIG_SETMASK, &none, nullptr);
        if (!cpus.empty() && sched_setaffinity(0, sizeof cpu_mask, &cpu_mask) != 0) {
            _exit(126);
        }
        dup2(fds[1], STDOUT_FILENO);
        // No benchmark socket or pipe may leak into the daemon: a leaked
        // client socket would hide the client's close from the host.
        close_range(3, ~0U, 0);
        execv(argv[0], argv.data());
        _exit(127);
    }
    close(fds[1]);
    pid_ = pid;
    stdout_fd_ = fds[0];
    register_pid(pid);
}

Daemon::~Daemon() {
    try {
        stop(std::chrono::seconds(5));
    } catch (...) {
        // stop() only throws on allocation failure; the pid is reaped or
        // left to PDEATHSIG either way.
    }
}

bool Daemon::read_some(int timeout_ms) {
    if (stdout_fd_ < 0) {
        return false;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, timeout_ms);
    if (ready <= 0) {
        return true;  // timeout (or EINTR): nothing yet, not EOF
    }
    char buffer[4096];
    const ssize_t got = read(stdout_fd_, buffer, sizeof buffer);
    if (got > 0) {
        output_.append(buffer, static_cast<std::size_t>(got));
        return true;
    }
    if (got == -1 && errno == EINTR) {
        return true;
    }
    close(stdout_fd_);
    stdout_fd_ = -1;
    return false;
}

std::uint16_t Daemon::wait_port(const std::string& host, std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    const std::string marker = " on " + host + ":";
    for (;;) {
        const std::size_t at = output_.find(marker);
        if (at != std::string::npos) {
            const std::size_t digits = at + marker.size();
            const std::size_t stop = output_.find_first_not_of("0123456789", digits);
            if (stop != std::string::npos && stop > digits && output_[stop] == ',') {
                const long port = std::strtol(output_.c_str() + digits, nullptr, 10);
                if (port > 0 && port <= 65535) {
                    return static_cast<std::uint16_t>(port);
                }
            }
        }
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0) {
            throw std::runtime_error("serve_daemon (pid " + std::to_string(pid_) +
                                     ") printed no port within " +
                                     std::to_string(timeout.count()) + " ms: " + output_);
        }
        if (!read_some(static_cast<int>(left.count()))) {
            throw std::runtime_error("serve_daemon (pid " + std::to_string(pid_) +
                                     ") exited before listening: " + output_);
        }
    }
}

bool Daemon::reap(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!exited_) {
        int status = 0;
        const pid_t got = waitpid(pid_, &status, WNOHANG);
        if (got == pid_) {
            status_ = status;
            exited_ = true;
            break;
        }
        if (got == -1 && errno != EINTR) {
            // Reaped elsewhere (the signal handler): treat as a failure.
            status_ = -1;
            exited_ = true;
            break;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
            return false;
        }
        if (stdout_fd_ >= 0) {
            read_some(2);  // keep the pipe drained while waiting
        } else {
            sleep_ms(2);
        }
    }
    unregister_pid(pid_);
    // The write end closed with the process: read to EOF (bounded).
    const auto drain_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (stdout_fd_ >= 0 && std::chrono::steady_clock::now() < drain_deadline) {
        read_some(10);
    }
    if (stdout_fd_ >= 0) {
        close(stdout_fd_);
        stdout_fd_ = -1;
    }
    return true;
}

bool Daemon::wait_exit(std::chrono::milliseconds timeout) {
    if (!reap(timeout)) {
        stop(std::chrono::milliseconds(0));
        return false;
    }
    return WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
}

bool Daemon::stop(std::chrono::milliseconds grace) {
    if (pid_ > 0 && !exited_) {
        kill(pid_, SIGTERM);
        if (!reap(grace)) {
            kill(pid_, SIGKILL);
            reap(std::chrono::hours(1));
            status_ = -1;  // needed SIGKILL: not a graceful exit
        }
    }
    return exited_ && status_ != -1 && WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
}

double Daemon::cpu_seconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const std::size_t paren = text.rfind(')');
    if (paren == std::string::npos) {
        throw std::runtime_error("cannot read /proc/" + std::to_string(pid_) + "/stat");
    }
    // Fields after "(comm)": state is field 3, utime 14, stime 15.
    std::istringstream fields(text.substr(paren + 1));
    std::string field;
    unsigned long long utime = 0;
    unsigned long long stime = 0;
    for (int index = 3; index <= 15 && fields >> field; ++index) {
        if (index == 14) {
            utime = std::stoull(field);
        } else if (index == 15) {
            stime = std::stoull(field);
        }
    }
    return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_kb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr);
        }
    }
    throw std::runtime_error("no VmHWM in /proc/" + std::to_string(pid_) + "/status");
}

}  // namespace perfbench
