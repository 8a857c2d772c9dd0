// In-memory span log for the benchmark's traced runs.
//
// The benchmark wraps each public library call it times in a Scope; a span is
// (name, start, end, parent, request id). Spans stay in memory while the run
// measures and are written out once at the end, so writing costs nothing
// inside the timed region. Self time of a span is its duration minus the
// durations of its direct children.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::uint32_t parent = 0;  ///< 0 = top level; otherwise the parent's id
    const char* name = "";     ///< a string literal naming the timed call
    std::uint64_t req = 0;     ///< request (or trial) index the span belongs to
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
  };

  /// Times one call: the span opens at construction and closes at
  /// destruction. id() is the parent handle for nested scopes.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t req, std::uint32_t parent = 0)
        : log_(log), id_(log.open(name, req, parent)) {}
    ~Scope() { log_.spans_[id_ - 1].t1_ns = realm::util::now_ns(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

   private:
    SpanLog& log_;
    std::uint32_t id_;
  };

  SpanLog() { spans_.reserve(std::size_t{1} << 16); }

  /// Durations in milliseconds of every span called `name`, in record order.
  [[nodiscard]] std::vector<double> ms(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(static_cast<double>(s.t1_ns - s.t0_ns) / 1e6);
    }
    return out;
  }

  /// Self time in milliseconds of every span called `name`: its duration
  /// minus the durations of its direct children.
  [[nodiscard]] std::vector<double> self_ms(std::string_view name) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ns[s.parent - 1] += s.t1_ns - s.t0_ns;
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (name == s.name) out.push_back(static_cast<double>(s.t1_ns - s.t0_ns - child_ns[i]) / 1e6);
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Write every span as one JSON document; false if the file cannot be
  /// written.
  bool write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed << ", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\": " << i + 1 << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
         << "\", \"req\": " << s.req << ", \"t0_ns\": " << s.t0_ns << ", \"t1_ns\": " << s.t1_ns
         << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
  }

 private:
  std::uint32_t open(const char* name, std::uint64_t req, std::uint32_t parent) {
    Span s;
    s.parent = parent;
    s.name = name;
    s.req = req;
    spans_.push_back(s);
    spans_.back().t0_ns = realm::util::now_ns();
    return static_cast<std::uint32_t>(spans_.size());
  }

  std::vector<Span> spans_;
};

}  // namespace perfbench
