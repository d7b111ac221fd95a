#pragma once

/// \file trace.hpp
/// In-memory span recorder around the library's public calls, written out
/// once at the end as Chrome trace-event JSON (opens in Perfetto or
/// about://tracing). Each span carries its own id and its parent's id in
/// `args`, so self time per layer can be computed from the file alone.
/// A disabled recorder costs one branch per span and reads no clock.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace bench {

class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  /// Open span, closed by end() or the destructor, whichever comes first.
  class Scope {
   public:
    Scope(Trace* trace, const char* name) : trace_(trace) {
      if (trace_ != nullptr) index_ = trace_->open(name);
    }
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

    /// Attaches a number to the span, also after end() (at most kMaxArgs;
    /// extras are dropped).
    void arg(const char* key, double value) {
      if (trace_ != nullptr) trace_->add_arg(index_, key, value);
    }
    void end() {
      if (trace_ != nullptr && open_) trace_->close(index_);
      open_ = false;
    }

   private:
    Trace* trace_;
    std::size_t index_ = 0;
    bool open_ = true;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}

  /// Turns recording on or off for spans opened from now on.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  [[nodiscard]] Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

  /// Writes every recorded span; false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f"
                   ",\"args\":{\"id\":%zu,\"parent\":%lld",
                   i == 0 ? "" : ",\n", e.name, e.ts_us, e.dur_us, i, e.parent);
      for (std::size_t a = 0; a < e.nargs; ++a) {
        std::fprintf(f, ",\"%s\":%.17g", e.args[a].key, e.args[a].value);
      }
      std::fputs("}}", f);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  static constexpr std::size_t kMaxArgs = 4;

  struct Arg {
    const char* key = nullptr;
    double value = 0.0;
  };

  struct Event {
    const char* name = nullptr;
    double ts_us = 0.0;
    double dur_us = 0.0;
    long long parent = -1;  ///< index of the enclosing span, -1 at top level
    std::array<Arg, kMaxArgs> args{};
    std::size_t nargs = 0;
  };

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  std::size_t open(const char* name) {
    Event e;
    e.name = name;
    e.parent = open_.empty() ? -1 : static_cast<long long>(open_.back());
    e.ts_us = now_us();
    events_.push_back(e);
    open_.push_back(events_.size() - 1);
    return events_.size() - 1;
  }

  void close(std::size_t index) {
    events_[index].dur_us = now_us() - events_[index].ts_us;
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  void add_arg(std::size_t index, const char* key, double value) {
    Event& e = events_[index];
    if (e.nargs < e.args.size()) e.args[e.nargs++] = Arg{key, value};
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Event> events_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

}  // namespace bench
