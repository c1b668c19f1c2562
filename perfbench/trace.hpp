#pragma once
// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into each layer (nothing inside the
// library is instrumented), kept in memory, and written out at the end.
// Every span has a name, a start, an end, its parent span and the id of
// the request it belongs to; `index` carries a body or shard number where
// one applies.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
    const char* name = "";  ///< string literal; lives for the program
    std::uint64_t request = 0;
    std::uint32_t parent = 0;  ///< id of the parent span, 0 for a root
    std::uint32_t index = 0;
    Clock::time_point start;
    Clock::time_point end;

    double ms() const { return std::chrono::duration<double, std::milli>(end - start).count(); }
};

class Tracer {
public:
    /// Records a finished span; returns its id (>= 1).
    std::uint32_t add(const char* name, std::uint64_t request, std::uint32_t parent,
                      Clock::time_point start, Clock::time_point end, std::uint32_t index = 0) {
        spans_.push_back(Span{name, request, parent, index, start, end});
        return static_cast<std::uint32_t>(spans_.size());
    }

    /// Opens a span that ends when the Scope is destroyed.
    class Scope {
    public:
        Scope(Tracer& tracer, const char* name, std::uint64_t request, std::uint32_t parent = 0,
              std::uint32_t index = 0)
            : tracer_(tracer),
              id_(tracer.add(name, request, parent, Clock::now(), Clock::now(), index)) {}
        ~Scope() { tracer_.spans_[id_ - 1].end = Clock::now(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        std::uint32_t id() const { return id_; }

    private:
        Tracer& tracer_;
        std::uint32_t id_;
    };

    /// Durations (ms) of every span called `name`, in recording order.
    std::vector<double> durations_ms(const char* name) const {
        std::vector<double> out;
        for (const Span& span : spans_) {
            if (std::strcmp(span.name, name) == 0) {
                out.push_back(span.ms());
            }
        }
        return out;
    }

    /// Per request: summed duration (ms) of the spans called `name` whose
    /// index lies in [index_begin, index_end).
    std::map<std::uint64_t, double> sum_by_request(const char* name,
                                                   std::uint32_t index_begin = 0,
                                                   std::uint32_t index_end = UINT32_MAX) const {
        std::map<std::uint64_t, double> out;
        for (const Span& span : spans_) {
            if (std::strcmp(span.name, name) == 0 && span.index >= index_begin &&
                span.index < index_end) {
                out[span.request] += span.ms();
            }
        }
        return out;
    }

    /// Writes every span as a JSON array (times in ns from the first span).
    void write_json(const std::string& path) const {
        std::FILE* file = std::fopen(path.c_str(), "w");
        if (file == nullptr) {
            throw std::runtime_error("cannot write " + path);
        }
        const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
        auto ns = [&](Clock::time_point t) {
            return static_cast<long long>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count());
        };
        std::fputs("[\n", file);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& span = spans_[i];
            std::fprintf(file,
                         "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,\"parent\":%u,"
                         "\"index\":%u,\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                         i + 1, span.name, static_cast<unsigned long long>(span.request),
                         span.parent, span.index, ns(span.start), ns(span.end),
                         i + 1 == spans_.size() ? "" : ",");
        }
        std::fputs("]\n", file);
        if (std::fclose(file) != 0) {
            throw std::runtime_error("cannot finish " + path);
        }
    }

private:
    std::vector<Span> spans_;
};

}  // namespace perfbench
