#pragma once
// The benchmark's own statistics: nearest-rank percentiles, the tail rule
// ("the highest percentile with at least ten samples beyond it"), request
// accounting per phase, and per-request CPU deltas of a timed phase.
// Header-only so perfbench_selftest checks exactly what perfbench runs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank ceil(q/100 * n), clamped to [1, n]. q in (0, 100]. Empty -> 0.
inline double nearest_rank(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) {
        return 0.0;
    }
    const double n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank position of percentile q.
inline std::size_t samples_beyond(std::size_t n, double q) {
    if (n == 0) {
        return 0;
    }
    auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return n - rank;
}

/// The reported tail of a latency sample.
struct Tail {
    double percentile = 0.0;  ///< 0 when even the median lacks the samples beyond
    double value = 0.0;
    std::size_t beyond = 0;
};

/// Highest whole percentile in [50, target] that keeps at least
/// `min_beyond` samples beyond its nearest-rank position.
inline Tail tail_percentile(const std::vector<double>& sorted, double target = 99.0,
                            std::size_t min_beyond = 10) {
    for (double q = target; q >= 50.0; q -= 1.0) {
        const std::size_t beyond = samples_beyond(sorted.size(), q);
        if (beyond >= min_beyond) {
            return Tail{q, nearest_rank(sorted, q), beyond};
        }
    }
    return Tail{};
}

inline double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return nearest_rank(values, 50.0);
}

inline double mean(const std::vector<double>& values) {
    if (values.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (const double v : values) {
        sum += v;
    }
    return sum / static_cast<double>(values.size());
}

/// Request accounting of one phase. Every request submitted is attempted;
/// a faulted future, a parity mismatch and a failover each make one
/// attempted request failed (a failed request is never dropped from the
/// attempted count).
struct Tally {
    std::uint64_t sent = 0;
    std::uint64_t faulted = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t failovers = 0;

    std::uint64_t failed() const { return std::min(sent, faulted + mismatched + failovers); }
    std::uint64_t succeeded() const { return sent - failed(); }
    double error_rate() const {
        return sent == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(sent);
    }
    Tally& operator+=(const Tally& other) {
        sent += other.sent;
        faulted += other.faulted;
        mismatched += other.mismatched;
        failovers += other.failovers;
        return *this;
    }
};

/// Latencies and CPU of one timed phase. begin() discards whatever was
/// recorded before it (the warm-up), so per-request deltas cover the timed
/// phase only. Every metric pools the whole phase: a slow stretch of the
/// machine, or of the code, moves it as much as it moves the run.
/// pause() and resume() leave out the stretches between, where another
/// meter counts (the traced run alternates two meters).
class PhaseMeter {
public:
    /// Starts the phase at `wall_s` with the CPU clocks (seconds) of the
    /// client process and the servers as read at that instant.
    void begin(double wall_s, double client_cpu_s, double server_cpu_s) {
        latencies_ms_.clear();
        queue_ms_.clear();
        wall_s_ = client_cpu_s_ = server_cpu_s_ = 0.0;
        resume(wall_s, client_cpu_s, server_cpu_s);
    }

    void resume(double wall_s, double client_cpu_s, double server_cpu_s) {
        open_ = Mark{wall_s, client_cpu_s, server_cpu_s};
        running_ = true;
    }

    void complete(double latency_ms, double queue_ms) {
        if (running_) {
            latencies_ms_.push_back(latency_ms);
            queue_ms_.push_back(queue_ms);
        }
    }

    /// Adds the stretch since begin()/resume(); nothing counts until resume().
    void pause(double wall_s, double client_cpu_s, double server_cpu_s) {
        if (running_) {
            wall_s_ += wall_s - open_.wall_s;
            client_cpu_s_ += client_cpu_s - open_.client_cpu_s;
            server_cpu_s_ += server_cpu_s - open_.server_cpu_s;
            running_ = false;
        }
    }

    void end(double wall_s, double client_cpu_s, double server_cpu_s) {
        pause(wall_s, client_cpu_s, server_cpu_s);
    }

    std::size_t completed() const { return latencies_ms_.size(); }
    double wall_s() const { return wall_s_; }
    /// Every latency of the phase, ascending.
    std::vector<double> sorted_latencies() const {
        std::vector<double> sorted = latencies_ms_;
        std::sort(sorted.begin(), sorted.end());
        return sorted;
    }
    double p50_ms() const { return nearest_rank(sorted_latencies(), 50.0); }
    Tail tail() const { return tail_percentile(sorted_latencies()); }
    double mean_queue_ms() const { return mean(queue_ms_); }
    double requests_per_s() const { return wall_s_ > 0.0 ? count() / wall_s_ : 0.0; }
    double client_cpu_ms_per_request() const { return per_request_ms(client_cpu_s_); }
    double server_cpu_ms_per_request() const { return per_request_ms(server_cpu_s_); }

private:
    struct Mark {
        double wall_s = 0.0;
        double client_cpu_s = 0.0;
        double server_cpu_s = 0.0;
    };

    double count() const { return static_cast<double>(latencies_ms_.size()); }
    double per_request_ms(double cpu_s) const {
        return latencies_ms_.empty() ? 0.0 : cpu_s * 1e3 / count();
    }

    std::vector<double> latencies_ms_;
    std::vector<double> queue_ms_;
    double wall_s_ = 0.0;
    double client_cpu_s_ = 0.0;
    double server_cpu_s_ = 0.0;
    Mark open_;
    bool running_ = false;
};

}  // namespace perfbench
