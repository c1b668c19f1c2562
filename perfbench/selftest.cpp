// perfbench_selftest: checks the benchmark's own statistics (stats.hpp).
// run.py runs it before every benchmark run; a failure stops the run
// before any number is reported. Exit 0 = all checks passed.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
    if (!ok) {
        std::fprintf(stderr, "perfbench_selftest: FAILED: %s\n", what);
        ++failures;
    }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> one_to(int n) {
    std::vector<double> values;
    for (int i = 1; i <= n; ++i) {
        values.push_back(i);
    }
    return values;
}

void nearest_rank_percentiles() {
    using perfbench::nearest_rank;
    const std::vector<double> ten = one_to(10);
    check(near(nearest_rank(ten, 50), 5), "p50 of 1..10 is rank 5");
    check(near(nearest_rank(ten, 90), 9), "p90 of 1..10 is rank 9");
    check(near(nearest_rank(ten, 91), 10), "p91 of 1..10 rounds the rank up");
    check(near(nearest_rank(ten, 100), 10), "p100 is the maximum");
    check(near(nearest_rank(ten, 1), 1), "p1 of 1..10 is the minimum");
    check(near(nearest_rank({7.0}, 99), 7), "a single sample is every percentile");
    check(near(nearest_rank({}, 50), 0), "an empty sample reads 0");
    const std::vector<double> thousand = one_to(1000);
    check(near(nearest_rank(thousand, 99), 990), "p99 of 1..1000 is rank 990");
    check(near(nearest_rank(thousand, 50), 500), "p50 of 1..1000 is rank 500");
    check(near(perfbench::median({3, 1, 2}), 2), "median sorts its input");
}

void tail_rule() {
    using perfbench::tail_percentile;
    // 1000 samples: rank 990 leaves exactly 10 beyond, so p99 qualifies.
    perfbench::Tail tail = tail_percentile(one_to(1000));
    check(near(tail.percentile, 99) && near(tail.value, 990) && tail.beyond == 10,
          "1000 samples report p99 with 10 beyond");
    // 999 samples: p99 is rank 990 with only 9 beyond -> falls back to p98.
    tail = tail_percentile(one_to(999));
    check(near(tail.percentile, 98) && tail.beyond >= 10, "999 samples fall back to p98");
    // 500 samples: p98 = rank 490 leaves 10 beyond.
    tail = tail_percentile(one_to(500));
    check(near(tail.percentile, 98) && tail.beyond == 10, "500 samples report p98");
    // 100 samples: p90 = rank 90 leaves 10 beyond.
    tail = tail_percentile(one_to(100));
    check(near(tail.percentile, 90) && near(tail.value, 90), "100 samples report p90");
    // 19 samples: even p50 (rank 10) leaves only 9 beyond -> no tail.
    tail = tail_percentile(one_to(19));
    check(near(tail.percentile, 0), "19 samples support no tail");
}

void error_accounting() {
    perfbench::Tally tally;
    check(near(tally.error_rate(), 0), "nothing sent is error rate 0");
    tally.sent = 8;
    tally.faulted = 1;
    tally.mismatched = 1;
    check(tally.failed() == 2 && tally.succeeded() == 6, "faults and mismatches fail requests");
    check(near(tally.error_rate(), 0.25), "error rate is failed / attempted");
    tally.failovers = 2;
    check(tally.failed() == 4 && near(tally.error_rate(), 0.5), "failovers count as failures");
    tally.faulted = 20;
    check(tally.failed() == 8 && tally.succeeded() == 0, "failed never exceeds attempted");
    perfbench::Tally sum;
    sum += perfbench::Tally{8, 1, 1, 0};
    sum += perfbench::Tally{2, 0, 0, 1};
    check(sum.sent == 10 && sum.failed() == 3, "phase tallies add up");
}

void cpu_deltas_exclude_warmup() {
    perfbench::PhaseMeter meter;
    // Warm-up: completions and CPU before begin() must not count.
    meter.complete(100.0, 5.0);
    meter.complete(100.0, 5.0);
    meter.begin(/*wall_s=*/10.0, /*client_cpu_s=*/3.0, /*server_cpu_s=*/7.0);
    for (int i = 0; i < 4; ++i) {
        meter.complete(2.0 + i, i == 0 ? 1.0 : 0.0);
    }
    meter.end(/*wall_s=*/12.0, /*client_cpu_s=*/3.2, /*server_cpu_s=*/7.8);
    meter.complete(500.0, 0.0);  // after end(): ignored
    check(meter.completed() == 4, "only timed-phase completions are counted");
    check(near(meter.client_cpu_ms_per_request(), 50.0), "client CPU is the phase delta / 4");
    check(near(meter.server_cpu_ms_per_request(), 200.0), "server CPU is the phase delta / 4");
    check(near(meter.requests_per_s(), 2.0), "throughput is completed / phase wall time");
    check(near(meter.mean_queue_ms(), 0.25), "window wait is the phase mean");
    check(near(meter.sorted_latencies().back(), 5.0), "latencies exclude warm-up and late ones");
    meter.begin(20.0, 0.0, 0.0);
    check(meter.completed() == 0, "begin() resets the phase");
}

void pooled_phase() {
    perfbench::PhaseMeter meter;
    meter.begin(0.0, 0.0, 0.0);
    // 1000 requests in 10 s; the last 10 are a stall. The pooled tail must
    // see it: a median over stretches of the phase would not.
    for (int i = 1; i <= 1000; ++i) {
        meter.complete(i <= 990 ? 5.0 : 2000.0, 0.0);
    }
    meter.end(10.0, 2.0, 6.0);
    check(near(meter.p50_ms(), 5.0), "p50 pools the phase");
    const perfbench::Tail tail = meter.tail();
    check(near(tail.percentile, 99) && near(tail.value, 5.0), "p99 of 1000 is rank 990");
    meter.complete(0.0, 0.0);  // after end(): ignored
    check(meter.completed() == 1000, "nothing counts after end()");
    perfbench::PhaseMeter stalled;
    stalled.begin(0.0, 0.0, 0.0);
    for (int i = 1; i <= 1000; ++i) {
        stalled.complete(i <= 980 ? 5.0 : 2000.0, 0.0);
    }
    stalled.end(10.0, 0.0, 0.0);
    check(near(stalled.tail().value, 2000.0), "a stall of 20 requests is the p99");
    check(near(meter.requests_per_s(), 100.0), "rate is completed / phase wall time");

    // Paused stretches (another meter's share of the run) count for nothing.
    perfbench::PhaseMeter paused;
    paused.resume(0.0, 0.0, 0.0);
    paused.complete(4.0, 0.0);
    paused.pause(1.0, 0.1, 0.0);
    paused.complete(99.0, 0.0);  // while paused: ignored
    paused.resume(5.0, 2.0, 0.0);
    paused.complete(4.0, 0.0);
    paused.pause(6.0, 2.1, 0.4);
    check(paused.completed() == 2 && near(paused.wall_s(), 2.0), "pauses are not timed");
    check(near(paused.client_cpu_ms_per_request(), 100.0), "CPU while paused is not counted");
    check(near(paused.server_cpu_ms_per_request(), 200.0), "server CPU of the running stretches");
    check(near(paused.requests_per_s(), 1.0), "rate over the running stretches");
}

}  // namespace

int main() {
    nearest_rank_percentiles();
    tail_rule();
    error_accounting();
    cpu_deltas_exclude_warmup();
    pooled_phase();
    if (failures != 0) {
        std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
        return 1;
    }
    std::fprintf(stderr, "perfbench_selftest: all statistics checks passed\n");
    return 0;
}
