// perfbench — the benchmark of record of the serving stack.
//
// One run = one workload. It writes a deployment bundle of untrained
// split-ResNet-18 bodies, boots the shipped `serve_daemon --reactor
// --bundle` from it (fork+exec, --port 0, default worker count), and
// drives it from one thread with RemoteSession (one per connection) or a
// ShardRouter, in a closed loop of single [1,3,H,H] images. Every reply is
// compared bit for bit against an in-proc oracle built from the same
// bundle and wire format. See README.md for the workloads, metrics and the
// per-layer -> end-to-end mapping.
//
//   perfbench --workload saturated|sharded_q8 --seed N --seconds S
//             --trace 0|1 --daemon <serve_daemon> --workdir <dir>
//             [--revision <id>]
//
// stdout: a report (meta, per-phase request counts, every metric with its
// unit), then one JSON line {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exit 0 only when every check passed.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/args.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "core/selector.hpp"
#include "daemon.hpp"
#include "latency/flops.hpp"
#include "nn/sequential.hpp"
#include "serve/bundle.hpp"
#include "serve/protocol.hpp"
#include "serve/remote.hpp"
#include "serve/shard_router.hpp"
#include "split/channel.hpp"
#include "split/codec.hpp"
#include "split/tcp_channel.hpp"
#include "stats.hpp"
#include "tensor/gemm_kernel.hpp"
#include "trace.hpp"

namespace {

using namespace ens;
using perfbench::Clock;
using perfbench::Daemon;
using perfbench::PhaseMeter;
using perfbench::Tally;
using perfbench::Tracer;

constexpr std::size_t kInputs = 64;
constexpr std::size_t kBodies = 10;
constexpr std::size_t kSelected = 4;
constexpr std::uint64_t kBundleSeed = 2000;
constexpr std::uint64_t kSelectorSeed = 7;
constexpr int kSetupReps = 7;
constexpr int kTracedWindows = 12;  ///< the traced run alternates untraced and traced windows
/// While no request is ready, the closed loop waits on the oldest for 1/32 of
/// its age (at least 100 us) before it sweeps the others again. That is the
/// most a request completing out of order is overbilled, and it keeps the
/// loop's own wake-ups, which the client CPU includes, to a few per
/// request at any latency.
constexpr int kPollFraction = 32;
constexpr auto kMinPoll = std::chrono::microseconds(100);
const char* const kHost = "127.0.0.1";

struct ShardSlice {
    std::size_t begin = 0;
    std::size_t end = 0;
};

struct Workload {
    const char* name;
    std::int64_t width;
    std::int64_t image;
    std::vector<ShardSlice> shards;  ///< one entry: a single whole-deployment daemon
    std::size_t connections;         ///< RemoteSessions, or 1 ShardRouter when sharded
    std::size_t window;              ///< in-flight requests per connection
    split::WireFormat wire;
};

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = {
        {"saturated", 16, 32, {{0, kBodies}}, 2, 4, split::WireFormat::f32},
        {"sharded_q8", 4, 16, {{0, 5}, {5, kBodies}}, 1, 8, split::WireFormat::q8},
    };
    return all;
}

double since_ms(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double wall_seconds() {
    return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

/// CPUs of the client (this process) and of each daemon, disjoint, so
/// that the daemons' workers and the client's threads never take turns on
/// one CPU. The client gets the first allowed CPU, and the rest are split
/// evenly between the daemons, in order. A remainder stays idle: on a
/// shared 4-vCPU VM with 2 daemons, five seeds each, the quartile spread of
/// p99_ms was 0.04 so, 0.18 with the spare CPU given to the client, and
/// 0.38 with the daemons sharing CPUs 1-3.
/// With fewer CPUs than processes nothing is bound (empty sets).
struct CpuLayout {
    std::vector<int> client;
    std::vector<std::vector<int>> daemons;
};

CpuLayout cpu_layout(std::size_t daemons) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof allowed, &allowed);
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
            cpus.push_back(cpu);
        }
    }
    CpuLayout layout;
    layout.daemons.resize(daemons);
    if (cpus.size() < daemons + 1) {
        return layout;
    }
    const std::size_t each = (cpus.size() - 1) / daemons;
    std::size_t next = 1;
    for (std::vector<int>& set : layout.daemons) {
        set.assign(cpus.begin() + static_cast<std::ptrdiff_t>(next),
                   cpus.begin() + static_cast<std::ptrdiff_t>(next + each));
        next += each;
    }
    layout.client.push_back(cpus.front());
    return layout;
}

std::string cpu_list(const std::vector<int>& cpus) {
    if (cpus.empty()) {
        return "any";
    }
    std::string out;
    for (const int cpu : cpus) {
        if (!out.empty()) {
            out += ',';
        }
        out += std::to_string(cpu);
    }
    return out;
}

double process_cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

bool bit_equal(const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
               0;
}

// ---------------------------------------------------------------- oracle

/// An in-proc copy of the whole bundle: the oracle and the traced replay
/// run through these layers, never through the ones the sessions use.
struct Model {
    serve::BundleManifest manifest;
    std::vector<nn::LayerPtr> bodies;
    serve::ClientArtifacts client;
};

Model load_model(const std::string& bundle) {
    Model model;
    model.manifest = serve::load_bundle_manifest(bundle);
    model.bodies = serve::load_bundle_bodies(bundle, model.manifest);
    model.client = serve::load_bundle_client(bundle, kBodies);
    return model;
}

Tensor client_features(Model& model, const Tensor& image) {
    Tensor features = model.client.head->forward(image);
    if (model.client.noise) {
        features = model.client.noise->forward(features);
    }
    return features;
}

/// Oracle logits: the deployed path in-proc, encode -> decode on both legs.
std::vector<Tensor> oracle_logits(Model& model, const std::vector<Tensor>& inputs,
                                  split::WireFormat wire) {
    std::vector<Tensor> logits;
    for (const Tensor& image : inputs) {
        const Tensor uplink =
            split::decode_tensor(split::encode_tensor(client_features(model, image), wire));
        std::vector<Tensor> maps;
        for (nn::LayerPtr& body : model.bodies) {
            maps.push_back(split::decode_tensor(split::encode_tensor(body->forward(uplink), wire)));
        }
        logits.push_back(model.client.tail->forward(model.client.selector.apply(maps)));
    }
    return logits;
}

std::vector<Tensor> make_inputs(std::uint64_t seed, std::int64_t image) {
    Rng rng(seed);
    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < kInputs; ++i) {
        inputs.push_back(Tensor::uniform(Shape{1, 3, image, image}, rng));
    }
    return inputs;
}

// ------------------------------------------------------------ deployment

/// One client connection: its own client half (layers are not shared
/// between sessions: each session's demux thread runs its tail) and either
/// a RemoteSession or a ShardRouter.
struct Connection {
    serve::ClientArtifacts client;
    std::unique_ptr<serve::RemoteSession> session;
    std::unique_ptr<serve::ShardRouter> router;

    std::future<serve::InferenceResult> submit(const Tensor& image) {
        return session ? session->submit(image) : router->submit(image);
    }
    std::size_t window() const { return session ? session->window() : router->window(); }
    const serve::SessionStats& stats() const { return session ? session->stats() : router->stats(); }
    std::uint64_t failovers() const {
        return session ? stats().failovers() : router->failovers_total();
    }
    split::TrafficStats traffic() const {
        if (session) {
            return session->traffic_stats();
        }
        split::TrafficStats sum;
        for (std::size_t s = 0; s < router->shard_count(); ++s) {
            const split::TrafficStats shard = router->shard_traffic(s);
            sum.messages += shard.messages;
            sum.bytes += shard.bytes;
        }
        return sum;
    }
};

std::unique_ptr<split::Channel> connect_ready(std::uint16_t port) {
    // The daemon prints its port after listen(), so the first attempt
    // normally succeeds; retry refusals briefly instead of sleeping.
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    for (;;) {
        try {
            return split::tcp_connect(kHost, port, std::chrono::seconds(5));
        } catch (const std::exception&) {
            if (Clock::now() >= deadline) {
                throw;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
}

/// Daemons + connections of one set-up. Connections are declared after
/// the daemons, so they close first on every exit path.
struct Deployment {
    std::vector<std::unique_ptr<Daemon>> daemons;
    std::vector<std::unique_ptr<Connection>> connections;
    std::uint64_t requests = 0;  ///< sent through this deployment
    double setup_s = 0.0;
    double boot_ms = 0.0;
    double load_client_ms = 0.0;

    double server_cpu_seconds() const {
        double sum = 0.0;
        for (const auto& daemon : daemons) {
            sum += daemon->cpu_seconds();
        }
        return sum;
    }
    std::uint64_t failovers() const {
        std::uint64_t sum = 0;
        for (const auto& c : connections) {
            sum += c->failovers();
        }
        return sum;
    }
    std::uint64_t retries() const {
        std::uint64_t sum = 0;
        for (const auto& c : connections) {
            sum += c->stats().retries();
        }
        return sum;
    }
    split::TrafficStats traffic() const {
        split::TrafficStats sum;
        for (const auto& c : connections) {
            const split::TrafficStats t = c->traffic();
            sum.messages += t.messages;
            sum.bytes += t.bytes;
        }
        return sum;
    }
};

struct Options {
    const Workload* workload = nullptr;
    CpuLayout cpus;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string daemon;
    std::string workdir;
    std::string revision;
};

/// Boots the workload's daemons from `bundle` and connects; ends with one
/// checked request per connection. setup_s spans spawn -> that reply.
std::unique_ptr<Deployment> deploy(const Options& options, const std::string& bundle,
                                   const std::vector<Tensor>& inputs,
                                   const std::vector<Tensor>& oracle, Tally& tally) {
    const Workload& w = *options.workload;
    auto d = std::make_unique<Deployment>();
    const Clock::time_point start = Clock::now();
    for (std::size_t s = 0; s < w.shards.size(); ++s) {
        std::vector<std::string> args = {"--reactor", "--bundle", bundle, "--port", "0",
                                         "--host", kHost};
        if (w.shards.size() > 1) {
            args.push_back("--bodies");
            args.push_back(std::to_string(w.shards[s].begin) + ".." +
                           std::to_string(w.shards[s].end));
        }
        d->daemons.push_back(std::make_unique<Daemon>(options.daemon, args, options.cpus.daemons[s]));
    }
    std::vector<std::uint16_t> ports;
    for (auto& daemon : d->daemons) {
        ports.push_back(daemon->wait_port(kHost, std::chrono::seconds(60)));
    }
    d->boot_ms = since_ms(start);

    for (std::size_t c = 0; c < w.connections; ++c) {
        auto connection = std::make_unique<Connection>();
        const Clock::time_point load_start = Clock::now();
        connection->client = serve::load_bundle_client(bundle, kBodies);
        d->load_client_ms += since_ms(load_start) / static_cast<double>(w.connections);
        serve::ClientArtifacts& client = connection->client;
        if (w.shards.size() == 1) {
            connection->session = std::make_unique<serve::RemoteSession>(
                connect_ready(ports.front()), *client.head, client.noise.get(), *client.tail,
                client.selector, w.wire, std::chrono::seconds(30), w.window);
        } else {
            std::vector<std::unique_ptr<split::Channel>> channels;
            for (const std::uint16_t port : ports) {
                channels.push_back(connect_ready(port));
            }
            connection->router = std::make_unique<serve::ShardRouter>(
                std::move(channels), *client.head, client.noise.get(), *client.tail,
                client.selector, w.wire, std::chrono::seconds(30), w.window);
        }
        d->connections.push_back(std::move(connection));
    }
    for (auto& connection : d->connections) {
        ++tally.sent;
        ++d->requests;
        try {
            if (!bit_equal(connection->submit(inputs.front()).get().logits, oracle.front())) {
                ++tally.mismatched;
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: set-up request failed: %s\n", e.what());
            ++tally.faulted;
        }
    }
    d->setup_s = since_ms(start) / 1e3;
    return d;
}

/// Closes the connections, then SIGTERMs the daemons. A daemon that does
/// not exit 0 after its drain, or whose served count differs from the
/// requests sent, fails the run.
bool teardown(std::unique_ptr<Deployment> d) {
    d->connections.clear();
    bool ok = true;
    for (auto& daemon : d->daemons) {
        if (!daemon->stop()) {
            std::fprintf(stderr, "perfbench: serve_daemon pid %d did not exit 0 after its drain\n",
                         static_cast<int>(daemon->pid()));
            ok = false;
            continue;
        }
        const std::string& out = daemon->output();
        const std::size_t at = out.find("drained; served ");
        const unsigned long long served =
            at == std::string::npos ? 0 : std::strtoull(out.c_str() + at + 16, nullptr, 10);
        if (served != d->requests) {
            std::fprintf(stderr, "perfbench: serve_daemon pid %d served %llu requests, sent %llu\n",
                         static_cast<int>(daemon->pid()), served,
                         static_cast<unsigned long long>(d->requests));
            ok = false;
        }
    }
    return ok;
}

// ----------------------------------------------------------- closed loop

struct Pending {
    std::future<serve::InferenceResult> future;
    Clock::time_point submitted;
    Clock::time_point submit_returned;
    std::size_t input = 0;
    std::uint64_t request = 0;  ///< trace id: 1, 2, ... across the run's phases
};

/// Runs the closed loop over the deployment's connections from this one
/// thread. Requests are submitted only into a free window slot, so submit()
/// never parks. Each is timed from submit() until this thread first sees its
/// result ready, and its slot is refilled right then.
class ClosedLoop {
public:
    ClosedLoop(Deployment& d, const std::vector<Tensor>& inputs, const std::vector<Tensor>& oracle)
        : d_(d), inputs_(inputs), oracle_(oracle), inflight_(d.connections.size()) {}

    /// Requests submitted so far, over every phase.
    std::uint64_t submitted() const { return submitted_; }

    /// Timed latency minus InferenceResult::total_ms of each metered
    /// request: how late this thread saw the result, by its own clock.
    const std::vector<double>& stamp_lag_ms() const { return stamp_lag_ms_; }

    /// Runs until `max_requests` are sent or `deadline` passes, then drains.
    void run(std::uint64_t max_requests, Clock::time_point deadline, Tally& tally,
             PhaseMeter* meter, Tracer* tracer) {
        const std::uint64_t failovers_before = d_.failovers();
        std::uint64_t sent = 0;
        bool stopping = false;
        for (;;) {
            for (std::size_t c = 0; c < inflight_.size() && !stopping; ++c) {
                while (inflight_[c].size() < d_.connections[c]->window()) {
                    if (sent >= max_requests || Clock::now() >= deadline) {
                        stopping = true;
                        break;
                    }
                    Pending pending;
                    pending.request = ++submitted_;
                    pending.input = pending.request % inputs_.size();
                    ++sent;
                    ++tally.sent;
                    ++d_.requests;
                    pending.submitted = Clock::now();
                    try {
                        pending.future = d_.connections[c]->submit(inputs_[pending.input]);
                    } catch (const std::exception& e) {
                        std::fprintf(stderr, "perfbench: submit failed: %s\n", e.what());
                        ++tally.faulted;
                        stopping = true;
                        break;
                    }
                    pending.submit_returned = Clock::now();
                    inflight_[c].push_back(std::move(pending));
                }
            }
            // Harvest every ready request. If none is, wait on the oldest
            // (in a closed loop usually the next to complete), but only
            // briefly, so one completing out of order is seen soon.
            bool harvested = false;
            Pending* oldest = nullptr;
            for (auto& queue : inflight_) {
                for (auto it = queue.begin(); it != queue.end();) {
                    if (it->future.wait_for(std::chrono::seconds(0)) ==
                        std::future_status::ready) {
                        harvest(*it, Clock::now(), tally, meter, tracer);
                        it = queue.erase(it);
                        harvested = true;
                    } else {
                        ++it;
                    }
                }
                if (!queue.empty() &&
                    (oldest == nullptr || queue.front().submitted < oldest->submitted)) {
                    oldest = &queue.front();
                }
            }
            if (oldest == nullptr && stopping) {
                break;
            }
            if (!harvested && oldest != nullptr) {
                const Clock::duration age = Clock::now() - oldest->submitted;
                oldest->future.wait_for(std::max<Clock::duration>(kMinPoll, age / kPollFraction));
            }
        }
        tally.failovers += d_.failovers() - failovers_before;
    }

private:
    void harvest(Pending& pending, Clock::time_point ready, Tally& tally, PhaseMeter* meter,
                 Tracer* tracer) {
        try {
            const serve::InferenceResult result = pending.future.get();
            if (!bit_equal(result.logits, oracle_[pending.input])) {
                ++tally.mismatched;
            }
            if (meter != nullptr) {
                const double latency_ms =
                    std::chrono::duration<double, std::milli>(ready - pending.submitted).count();
                meter->complete(latency_ms, result.queue_ms);
                stamp_lag_ms_.push_back(latency_ms - result.total_ms);
            }
            if (tracer != nullptr) {
                const std::uint32_t root = tracer->add("remote.request", pending.request, 0,
                                                       pending.submitted, ready);
                tracer->add("remote.submit", pending.request, root, pending.submitted,
                            pending.submit_returned);
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: request faulted: %s\n", e.what());
            ++tally.faulted;
        }
    }

    Deployment& d_;
    const std::vector<Tensor>& inputs_;
    const std::vector<Tensor>& oracle_;
    std::vector<std::deque<Pending>> inflight_;
    std::vector<double> stamp_lag_ms_;
    std::uint64_t submitted_ = 0;
};

// ------------------------------------------------------ traced in-proc replay

const char* const kChildSpans[] = {"nn.body.block0", "nn.body.block1", "nn.body.block2",
                                   "nn.body.block3", "nn.body.block4", "nn.body.block5",
                                   "nn.body.block6", "nn.body.block7", "nn.body.pool"};
constexpr std::size_t kBodyChildren = sizeof(kChildSpans) / sizeof(kChildSpans[0]);

struct ReplayFacts {
    double uplink_bytes = 0.0;
    double downlink_bytes = 0.0;
    double reply_bytes = 0.0;   ///< billed by the in-proc hosts over the whole replay
    double reply_frames = 0.0;
    Shape uplink_shape;
};

/// Replays each input through the public calls of every layer, in-proc,
/// one span per call: head -> encode -> decode -> N body forwards (whole,
/// then child by child) -> reply encode/decode -> Selector::apply -> tail,
/// then BodyHost::process_request per shard over an in-proc duplex. Every
/// output is checked against the oracle and the whole-body forwards.
ReplayFacts replay(const Options& options, Model& model, const std::string& bundle,
                   const std::vector<Tensor>& inputs, const std::vector<Tensor>& oracle,
                   std::uint64_t first_request, Tracer& tracer, Tally& tally) {
    const Workload& w = *options.workload;
    std::vector<std::unique_ptr<serve::BodyHost>> hosts;
    for (const ShardSlice& shard : w.shards) {
        hosts.push_back(serve::BodyHost::from_bundle(bundle, shard.begin, shard.end - shard.begin));
    }
    auto [client_end, host_end] = split::make_inproc_duplex();
    split::WireBufferPool reply_pool;
    split::WireBuffer uplink;
    std::vector<split::WireBuffer> replies(kBodies);
    ReplayFacts facts;

    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const std::uint64_t request = first_request + i;
        ++tally.sent;
        const Tracer::Scope root(tracer, "replay.request", request);
        Tensor features;
        {
            const Tracer::Scope span(tracer, "nn.head", request, root.id());
            features = client_features(model, inputs[i]);
        }
        {
            const Tracer::Scope span(tracer, "split.encode_uplink", request, root.id());
            split::encode_into(features, w.wire, uplink);
        }
        Tensor decoded;
        {
            const Tracer::Scope span(tracer, "split.decode_uplink", request, root.id());
            decoded = split::decode_tensor(uplink.view());
        }
        std::vector<Tensor> outputs(kBodies);
        {
            const Tracer::Scope bodies(tracer, "nn.bodies", request, root.id());
            for (std::size_t n = 0; n < kBodies; ++n) {
                const Tracer::Scope span(tracer, "nn.body", request, bodies.id(),
                                         static_cast<std::uint32_t>(n));
                outputs[n] = model.bodies[n]->forward(decoded);
            }
        }
        bool ok = true;
        {
            const Tracer::Scope by_child(tracer, "nn.body.by_child", request, root.id());
            for (std::size_t n = 0; n < kBodies; ++n) {
                auto& body = dynamic_cast<nn::Sequential&>(*model.bodies[n]);
                if (body.size() != kBodyChildren) {
                    throw std::runtime_error("body is not the split ResNet-18 body");
                }
                Tensor x = decoded;
                for (std::size_t j = 0; j < kBodyChildren; ++j) {
                    const Tracer::Scope span(tracer, kChildSpans[j], request, by_child.id(),
                                             static_cast<std::uint32_t>(n));
                    x = body.layer(j).forward(x);
                }
                ok = ok && bit_equal(x, outputs[n]);
            }
        }
        {
            const Tracer::Scope span(tracer, "split.encode_replies", request, root.id());
            for (std::size_t n = 0; n < kBodies; ++n) {
                const Tracer::Scope one(tracer, "split.encode_reply", request, span.id(),
                                        static_cast<std::uint32_t>(n));
                split::encode_into(outputs[n], w.wire, replies[n]);
            }
        }
        std::vector<Tensor> maps(kBodies);
        {
            const Tracer::Scope span(tracer, "split.decode_replies", request, root.id());
            for (std::size_t n = 0; n < kBodies; ++n) {
                maps[n] = split::decode_tensor(replies[n].view());
            }
        }
        Tensor combined;
        {
            const Tracer::Scope span(tracer, "core.selector_apply", request, root.id());
            combined = model.client.selector.apply(maps);
        }
        Tensor logits;
        {
            const Tracer::Scope span(tracer, "nn.tail", request, root.id());
            logits = model.client.tail->forward(combined);
        }
        ok = ok && bit_equal(logits, oracle[i]);

        for (std::size_t s = 0; s < hosts.size(); ++s) {
            {
                const Tracer::Scope span(tracer, "serve.process_request", request, root.id(),
                                         static_cast<std::uint32_t>(s));
                hosts[s]->process_request(request, uplink.view(), reply_pool, *host_end);
            }
            for (std::size_t k = 0; k < hosts[s]->body_count(); ++k) {
                const std::string frame = client_end->recv();
                std::string_view payload;
                const serve::ReplyTag tag = serve::parse_reply_frame(frame, payload);
                const std::size_t n = w.shards[s].begin + tag.body_seq;
                ok = ok && tag.request_id == request && n < kBodies &&
                     payload == replies[n].view();
            }
        }
        if (!ok) {
            ++tally.mismatched;
        }
        facts.uplink_bytes = static_cast<double>(uplink.size());
        facts.downlink_bytes = 0.0;
        for (const split::WireBuffer& reply : replies) {
            facts.downlink_bytes += static_cast<double>(reply.size());
        }
        facts.uplink_shape = decoded.shape();
    }
    const split::TrafficStats replies_sent = host_end->stats();
    facts.reply_bytes = static_cast<double>(replies_sent.bytes);
    facts.reply_frames = static_cast<double>(replies_sent.messages);
    return facts;
}

// ---------------------------------------------------------------- output

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string json_metrics(const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.9g", metrics[i].value);
        out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return out + "}";
}

double median_of(const std::map<std::uint64_t, double>& by_request) {
    std::vector<double> values;
    for (const auto& [request, value] : by_request) {
        values.push_back(value);
    }
    return perfbench::median(values);
}


/// Per-layer metrics of the traced run, plus the per-layer share of the
/// untraced p50 (printed).
std::vector<Metric> layer_metrics(const Options& options, Model& model, const Tracer& tracer,
                                  const ReplayFacts& facts, const PhaseMeter& untraced,
                                  const PhaseMeter& traced, const Deployment& d,
                                  const std::vector<double>& load_bodies_ms,
                                  const std::vector<double>& load_client_ms,
                                  const std::vector<double>& boot_ms, const Tally& total,
                                  double frames_per_request) {
    using perfbench::median;
    const Workload& w = *options.workload;
    const double us = 1e3;
    const double head = median(tracer.durations_ms("nn.head"));
    const double tail = median(tracer.durations_ms("nn.tail"));
    const double selector = median(tracer.durations_ms("core.selector_apply"));
    const double encode_up = median(tracer.durations_ms("split.encode_uplink"));
    const double decode_up = median(tracer.durations_ms("split.decode_uplink"));
    const double encode_replies = median(tracer.durations_ms("split.encode_replies"));
    const double decode_replies = median(tracer.durations_ms("split.decode_replies"));
    const double body = median(tracer.durations_ms("nn.body"));
    const double bodies = median(tracer.durations_ms("nn.bodies"));

    // Per request, the slowest shard sets the critical path.
    std::map<std::uint64_t, double> crit_bodies;
    std::map<std::uint64_t, double> crit_encode;
    std::map<std::uint64_t, double> crit_process;
    std::map<std::uint64_t, double> sum_process = tracer.sum_by_request("serve.process_request");
    for (std::size_t s = 0; s < w.shards.size(); ++s) {
        const auto b = static_cast<std::uint32_t>(w.shards[s].begin);
        const auto e = static_cast<std::uint32_t>(w.shards[s].end);
        const auto shard_s = static_cast<std::uint32_t>(s);
        for (const auto& [r, v] : tracer.sum_by_request("nn.body", b, e)) {
            crit_bodies[r] = std::max(crit_bodies[r], v);
        }
        for (const auto& [r, v] : tracer.sum_by_request("split.encode_reply", b, e)) {
            crit_encode[r] = std::max(crit_encode[r], v);
        }
        for (const auto& [r, v] :
             tracer.sum_by_request("serve.process_request", shard_s, shard_s + 1)) {
            crit_process[r] = std::max(crit_process[r], v);
        }
    }
    const double process = median_of(sum_process);
    const double critical =
        head + encode_up + median_of(crit_process) + decode_replies + selector + tail;
    const double p50_untraced = untraced.p50_ms();

    std::vector<Metric> m;
    m.push_back({"bundle.load_bodies_ms", median(load_bodies_ms), "ms"});
    m.push_back({"bundle.load_client_ms", median(load_client_ms), "ms"});
    m.push_back({"daemon.boot_ms", median(boot_ms), "ms"});
    m.push_back({"nn.head_ms", head, "ms"});
    m.push_back({"nn.tail_us", tail * us, "us"});
    m.push_back({"core.selector_apply_us", selector * us, "us"});
    m.push_back({"nn.body_ms", body, "ms"});
    m.push_back({"nn.bodies_ms", bodies, "ms"});
    double child_total = 0.0;
    for (const char* child : kChildSpans) {
        const std::vector<double> spans = tracer.durations_ms(child);
        for (const double v : spans) {
            child_total += v;
        }
        m.push_back({std::string(child) + "_ms", median(spans), "ms"});
    }
    double body_total = 0.0;
    for (const double v : tracer.durations_ms("nn.body")) {
        body_total += v;
    }
    m.push_back({"nn.body.span_closure", child_total / body_total, "ratio"});
    Shape input_shape = facts.uplink_shape;
    const double mflop = latency::count_cost(*model.bodies.front(), input_shape).total_flops / 1e6;
    m.push_back({"nn.body_mflop", mflop, "MFLOP"});
    m.push_back({"nn.body_gflops", mflop / body, "GFLOP/s"});  // MFLOP/ms = GFLOP/s
    m.push_back({"split.encode_uplink_us", encode_up * us, "us"});
    m.push_back({"split.decode_uplink_us", decode_up * us, "us"});
    m.push_back({"split.encode_replies_us", encode_replies * us, "us"});
    m.push_back({"split.decode_replies_us", decode_replies * us, "us"});
    m.push_back({"split.uplink_bytes", facts.uplink_bytes, "B"});
    m.push_back({"split.downlink_bytes", facts.downlink_bytes, "B"});
    m.push_back({"serve.frames_per_request", frames_per_request, "count"});
    m.push_back({"serve.process_request_ms", process, "ms"});
    const double shards = static_cast<double>(w.shards.size());
    m.push_back({"serve.host_overhead_ms",
                 process - (median_of(tracer.sum_by_request("nn.body")) + shards * decode_up +
                            median_of(tracer.sum_by_request("split.encode_reply"))),
                 "ms"});
    m.push_back({"serve.wire_wait_ms", p50_untraced - critical, "ms"});
    m.push_back({"serve.window_wait_ms", untraced.mean_queue_ms(), "ms"});
    double spread = 0.0;
    if (d.connections.front()->router) {
        const serve::ShardRouter& router = *d.connections.front()->router;
        double lo = 1e300;
        double hi = 0.0;
        for (std::size_t s = 0; s < router.shard_count(); ++s) {
            const double shard_p50 = router.shard_stats(s).latency().p50_ms;
            lo = std::min(lo, shard_p50);
            hi = std::max(hi, shard_p50);
        }
        spread = hi - lo;
    }
    m.push_back({"serve.shard_p50_spread_ms", spread, "ms"});
    m.push_back({"serve.failovers", static_cast<double>(d.failovers()), "count"});
    m.push_back({"serve.retries", static_cast<double>(d.retries()), "count"});
    m.push_back({"error_rate", total.error_rate(), "ratio"});
    m.push_back({"trace.overhead_ms", traced.p50_ms() - p50_untraced, "ms"});

    // Share of the untraced p50 per traced layer, along the critical path.
    const double nn_ms = head + tail + median_of(crit_bodies);
    const double split_ms = encode_up + decode_up + median_of(crit_encode) + decode_replies;
    std::printf("share of untraced p50_ms %.4f: nn %.3f  split %.3f  core %.3f  "
                "serve (host + wire + pipeline) %.3f\n",
                p50_untraced, nn_ms / p50_untraced, split_ms / p50_untraced,
                selector / p50_untraced, (p50_untraced - nn_ms - split_ms - selector) / p50_untraced);
    std::printf("in-proc critical path %.4f ms; uplink %.0f B, downlink %.0f B per request\n",
                critical, facts.uplink_bytes, facts.downlink_bytes);
    return m;
}

void print_phase(const char* phase, const Tally& t) {
    std::printf("phase %-8s sent %llu succeeded %llu failed %llu (faulted %llu, mismatched %llu, "
                "failovers %llu)\n",
                phase, static_cast<unsigned long long>(t.sent),
                static_cast<unsigned long long>(t.succeeded()),
                static_cast<unsigned long long>(t.failed()),
                static_cast<unsigned long long>(t.faulted),
                static_cast<unsigned long long>(t.mismatched),
                static_cast<unsigned long long>(t.failovers));
}

std::string compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/// Removes a directory on every exit path out of its scope.
struct RemoveOnExit {
    std::filesystem::path path;
    ~RemoveOnExit() {
        std::error_code ignored;
        std::filesystem::remove_all(path, ignored);
    }
};

int run(const Options& options) {
    const Workload& w = *options.workload;
    const char* threads = std::getenv("ENS_THREADS");
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", w.name,
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0);
    std::printf("meta: isa=%s nproc=%ld compiler=\"%s\" ENS_THREADS=%s pool=%zu revision=%s\n",
                kernel::kernel_isa(), sysconf(_SC_NPROCESSORS_ONLN), compiler().c_str(),
                threads != nullptr ? threads : "unset", global_pool().size(),
                options.revision.c_str());
    std::printf("deployment: N=%zu P=%zu width %lld, %lldpx, %zu daemon(s), %zu connection(s) x "
                "window %zu, wire %s, closed loop, one image per request\n",
                kBodies, kSelected, static_cast<long long>(w.width),
                static_cast<long long>(w.image), w.shards.size(), w.connections, w.window,
                split::wire_format_name(w.wire));
    std::printf("cpus: client %s", cpu_list(options.cpus.client).c_str());
    for (std::size_t s = 0; s < w.shards.size(); ++s) {
        std::printf(", daemon %zu %s", s, cpu_list(options.cpus.daemons[s]).c_str());
    }
    std::printf("\n");
    std::fflush(stdout);

    namespace fs = std::filesystem;
    const fs::path results_dir = fs::path(options.workdir) / "results";
    const fs::path bundle_dir = fs::path(options.workdir) / "bundles" / w.name;
    fs::create_directories(results_dir);
    fs::remove_all(bundle_dir);  // left behind by a killed run
    fs::create_directories(bundle_dir.parent_path());
    const std::string bundle = bundle_dir.string();
    const RemoveOnExit bundle_guard{bundle_dir};

    {
        Daemon writer(options.daemon,
                      {"--save-bundle", bundle, "--bodies", std::to_string(kBodies), "--width",
                       std::to_string(w.width), "--image", std::to_string(w.image), "--seed",
                       std::to_string(kBundleSeed), "--select", std::to_string(kSelected),
                       "--selector-seed", std::to_string(kSelectorSeed)});
        if (!writer.wait_exit(std::chrono::seconds(120))) {
            throw std::runtime_error("serve_daemon --save-bundle failed: " + writer.output());
        }
    }

    const std::vector<Tensor> inputs = make_inputs(options.seed, w.image);
    Model model = load_model(bundle);
    const std::vector<Tensor> oracle = oracle_logits(model, inputs, w.wire);

    bool ok = true;
    Tally setup_tally;
    std::vector<double> setup_s;
    std::vector<double> boot_ms;
    std::vector<double> load_client_ms;
    std::unique_ptr<Deployment> d;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (d) {
            ok = teardown(std::move(d)) && ok;
        }
        d = deploy(options, bundle, inputs, oracle, setup_tally);
        setup_s.push_back(d->setup_s);
        boot_ms.push_back(d->boot_ms);
        load_client_ms.push_back(d->load_client_ms);
    }

    ClosedLoop loop(*d, inputs, oracle);
    Tally warmup_tally;
    loop.run(kInputs, Clock::time_point::max(), warmup_tally, nullptr, nullptr);

    Tally timed_tally;
    PhaseMeter meter;
    Tally traced_tally;
    PhaseMeter traced_meter;
    Tally replay_tally;
    Tracer tracer;
    ReplayFacts facts;
    std::vector<double> load_bodies_ms;
    double frames_per_request = 0.0;
    bool traffic_ok = true;
    if (!options.trace) {
        meter.begin(wall_seconds(), process_cpu_seconds(), d->server_cpu_seconds());
        loop.run(UINT64_MAX, Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double>(options.seconds)),
                 timed_tally, &meter, nullptr);
        meter.end(wall_seconds(), process_cpu_seconds(), d->server_cpu_seconds());
    } else {
        // Untraced and traced windows alternate, so a drift of the
        // machine's speed hits both alike. Their p50 difference is the
        // tracing overhead, and the untraced p50 anchors every share. Each
        // window drains before the next starts, so no request straddles
        // two meters.
        const auto window = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(options.seconds / kTracedWindows));
        split::TrafficStats traced_traffic;
        for (int k = 0; k < kTracedWindows; ++k) {
            const bool traced = k % 2 == 1;
            PhaseMeter& m = traced ? traced_meter : meter;
            const split::TrafficStats before = d->traffic();
            m.resume(wall_seconds(), process_cpu_seconds(), d->server_cpu_seconds());
            loop.run(UINT64_MAX, Clock::now() + window, traced ? traced_tally : timed_tally, &m,
                     traced ? &tracer : nullptr);
            m.pause(wall_seconds(), process_cpu_seconds(), d->server_cpu_seconds());
            if (traced) {
                const split::TrafficStats after = d->traffic();
                traced_traffic.bytes += after.bytes - before.bytes;
                traced_traffic.messages += after.messages - before.messages;
            }
        }
        facts = replay(options, model, bundle, inputs, oracle, loop.submitted() + 1, tracer,
                       replay_tally);
        for (int rep = 0; rep < kSetupReps; ++rep) {
            const Clock::time_point start = Clock::now();
            const serve::BundleManifest manifest = serve::load_bundle_manifest(bundle);
            const std::vector<nn::LayerPtr> bodies = serve::load_bundle_bodies(bundle, manifest);
            load_bodies_ms.push_back(since_ms(start));
        }
        // Cross-check the replayed message sizes against the traffic
        // counters (which bill sent payloads): the sessions' uplink over
        // the traced phase, the in-proc hosts' replies over the replay.
        const double requests = static_cast<double>(traced_tally.sent);
        const double shards = static_cast<double>(w.shards.size());
        const double up_bytes = static_cast<double>(traced_traffic.bytes);
        const double up_frames = static_cast<double>(traced_traffic.messages);
        const double replayed = static_cast<double>(inputs.size());
        frames_per_request = up_frames / requests + facts.reply_frames / replayed;
        if (up_bytes != requests * shards * facts.uplink_bytes || up_frames != requests * shards ||
            facts.reply_bytes != replayed * facts.downlink_bytes ||
            facts.reply_frames != replayed * kBodies) {
            std::fprintf(stderr,
                         "perfbench: traffic counters disagree with the replay: uplink %.0f B in "
                         "%.0f frames over %.0f requests (replay: %.0f B each to %.0f shards); "
                         "replies %.0f B in %.0f frames over %.0f requests (replay: %.0f B)\n",
                         up_bytes, up_frames, requests, facts.uplink_bytes, shards,
                         facts.reply_bytes, facts.reply_frames, replayed, facts.downlink_bytes);
            traffic_ok = false;
        }
        tracer.write_json((results_dir / (std::string(w.name) + "-seed" +
                                          std::to_string(options.seed) + "-spans.json"))
                              .string());
    }

    double rss_kb = 0.0;
    for (const auto& daemon : d->daemons) {
        rss_kb += daemon->peak_rss_kb();
    }
    const std::uint64_t failovers = d->failovers();
    const std::uint64_t retries = d->retries();
    Tally total;
    total += setup_tally;
    total += warmup_tally;
    total += timed_tally;
    total += traced_tally;
    total += replay_tally;

    std::vector<Metric> metrics;
    if (!options.trace) {
        const perfbench::Tail tail = meter.tail();
        std::vector<double> lag = loop.stamp_lag_ms();
        std::sort(lag.begin(), lag.end());
        std::printf("timed phase: %zu requests in %.3f s; tail is p%.0f with %zu samples beyond; "
                    "timed latency minus InferenceResult::total_ms: p50 %.4f ms, p99 %.4f ms, "
                    "min %.4f ms\n",
                    meter.completed(), meter.wall_s(), tail.percentile, tail.beyond,
                    perfbench::nearest_rank(lag, 50), perfbench::nearest_rank(lag, 99),
                    lag.empty() ? 0.0 : lag.front());
        if (tail.percentile != 99.0) {
            std::fprintf(stderr, "perfbench: WARNING: %zu samples support only p%.0f; p99_ms "
                                 "reports that percentile (raise --seconds)\n",
                         meter.completed(), tail.percentile);
        }
        metrics = {
            {"setup_s", perfbench::median(setup_s), "s"},
            {"p50_ms", meter.p50_ms(), "ms"},
            {"p99_ms", tail.value, "ms"},
            {"requests_per_s", meter.requests_per_s(), "1/s"},
            {"client_cpu_ms", meter.client_cpu_ms_per_request(), "ms/req"},
            {"server_cpu_ms", meter.server_cpu_ms_per_request(), "ms/req"},
            {"server_rss_mb", rss_kb / 1024.0, "MB"},
        };
    } else {
        metrics = layer_metrics(options, model, tracer, facts, meter, traced_meter, *d,
                                load_bodies_ms, load_client_ms, boot_ms, total,
                                frames_per_request);
    }
    ok = teardown(std::move(d)) && ok;

    print_phase("setup", setup_tally);
    print_phase("warmup", warmup_tally);
    print_phase("timed", timed_tally);
    if (options.trace) {
        print_phase("traced", traced_tally);
        print_phase("replay", replay_tally);
    }
    std::printf("error_rate %.6f ratio; failovers %llu; retries %llu\n", total.error_rate(),
                static_cast<unsigned long long>(failovers),
                static_cast<unsigned long long>(retries));
    for (const Metric& metric : metrics) {
        std::printf("metric %-28s %14.6f %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    }
    ok = ok && traffic_ok && total.failed() == 0 && failovers == 0 && retries == 0;
    const std::string json = "{\"correct\": " + std::string(ok ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(total.sent) +
                             ", \"failed\": " + std::to_string(total.failed()) +
                             ", \"metrics\": " + json_metrics(metrics) + "}";
    const std::string result_path =
        (results_dir / (std::string(w.name) + "-seed" + std::to_string(options.seed) + "-trace" +
                        (options.trace ? "1" : "0") + ".json"))
            .string();
    if (std::FILE* file = std::fopen(result_path.c_str(), "w")) {
        std::fprintf(file,
                     "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
                     "\"meta\": {\"isa\": \"%s\", \"nproc\": %ld, \"compiler\": \"%s\", "
                     "\"ENS_THREADS\": \"%s\", \"revision\": \"%s\"}, \"result\": %s}\n",
                     w.name, static_cast<unsigned long long>(options.seed), options.seconds,
                     options.trace ? 1 : 0, kernel::kernel_isa(),
                     sysconf(_SC_NPROCESSORS_ONLN), compiler().c_str(),
                     threads != nullptr ? threads : "unset", options.revision.c_str(),
                     json.c_str());
        std::fclose(file);
    }
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::install_cleanup_handlers();
    try {
        ArgParser args(argc, argv);
        Options options;
        const std::string name = args.get_string("workload", "");
        for (const Workload& w : workloads()) {
            if (name == w.name) {
                options.workload = &w;
            }
        }
        options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
        options.seconds = args.get_double("seconds", 10);
        options.trace = args.get_int("trace", 0) != 0;
        options.daemon = args.get_string("daemon", "");
        options.workdir = args.get_string("workdir", "");
        options.revision = args.get_string("revision", "unknown");
        if (!args.unconsumed().empty() || options.workload == nullptr ||
            options.daemon.empty() || options.workdir.empty() || options.seconds <= 0) {
            std::fprintf(stderr,
                         "usage: perfbench --workload saturated|sharded_q8 --seed N "
                         "--seconds S --trace 0|1 --daemon <serve_daemon> --workdir <dir> "
                         "[--revision <id>]\n");
            return 2;
        }
        options.cpus = cpu_layout(options.workload->shards.size());
        if (!options.cpus.client.empty()) {
            perfbench::bind_to_cpus(options.cpus.client);
        }
        return run(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
