/// \file main.cpp
/// relmore_bench: one workload in one process, printed as one JSON line of
/// raw samples. benchmark/run.py runs several processes and pools them.
///
///   relmore_bench --workload W [--seed S] [--ops N] [--seconds T] [--trace-out PATH]
///
/// Set-up (load, plus one untimed warm-up op) is timed as a whole. The
/// closed loop then stops after N ops or T seconds of loop time,
/// whichever comes first, and always runs at least one op. Each op's
/// result is checked after its timer stops. The loop's ops fall into
/// windows of kWindowS op time; a calibration pass (calibrate.hpp) at
/// each window edge gives the window's `window_scale`, the factor that
/// turns its host times into times at the reference speed. Set-up gets
/// `setup_scale` the same way. The loop runs pinned to one CPU and moves
/// to the next when its ops slow down (kSlowShare). With --trace-out, odd
/// ops are traced and even ops are not, so the tracing overhead is
/// measured interleaved against the same drift; the probe phase runs
/// after the loop and the trace is written to PATH.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "generate.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using relmore::util::Result;
using relmore::util::Status;

/// whatif results change with every op, so every 100th op is checked
/// against a from-scratch oracle analysis instead.
constexpr std::size_t kCheckEvery = 100;
/// AnalyzeOptions::threads of every timed op. On a 4-vCPU VM sharing its
/// host, 4 pool threads were no faster than 1 on any workload (interleaved
/// runs: reanalyze_large p50 3.66 vs 3.51 ms) and widened the tail (median
/// per-process p90/p50 1.22 vs 1.10), since an op waits for the slowest
/// vCPU. One thread measures the code rather than the neighbours.
constexpr unsigned kThreads = 1;
/// On a shared host a vCPU runs up to 2x slower while a neighbour loads
/// its core, in spells of seconds to minutes, and a process left to the
/// scheduler can spend its whole run on such a vCPU. So the loop is
/// pinned to one CPU and judged every kWindowS of op time: a window whose
/// mean op time at the reference speed exceeds the best window's by more
/// than kSlowShare moves it to the next CPU it may use.
constexpr double kWindowS = 0.2;
constexpr double kSlowShare = 0.15;
constexpr std::size_t kMaxErrors = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t max_ops = 0;  ///< 0 = no limit
  double seconds = 0.0;     ///< 0 = no limit
  std::string trace_out;    ///< empty = untraced
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "relmore_bench: %s\nusage: relmore_bench --workload W [--seed S] [--ops N] "
               "[--seconds T] [--trace-out PATH]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--ops") {
      args.max_ops = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') usage("not a number");
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.max_ops == 0 && args.seconds <= 0.0) usage("give --ops or --seconds");
  return args;
}

/// Pins the calling thread to the CPU it runs on, then moves it
/// round-robin over the CPUs it was allowed at construction. Without an
/// affinity mask it does nothing.
class CpuPin {
 public:
  CpuPin() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    const int here = sched_getcpu();
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &set)) continue;
      if (cpu == here) index_ = cpus_.size();
      cpus_.push_back(cpu);
    }
    pin();
  }

  void next() {
    if (cpus_.size() < 2) return;
    index_ = (index_ + 1) % cpus_.size();
    pin();
  }

 private:
  void pin() const {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[index_], &set);
    sched_setaffinity(0, sizeof set, &set);
  }

  std::vector<int> cpus_;
  std::size_t index_ = 0;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print_list(const char* key, const std::vector<double>& values) {
  std::printf(",\"%s\":[", key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.6f", i == 0 ? "" : ",", values[i]);
  }
  std::printf("]");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const bench::GeneratedDesign design = bench::generate_for(args.workload, args.seed);

  bench::RunConfig config;
  config.deployed.threads = kThreads;
  config.oracle.threads = 1;
  config.oracle.lane_width = 1;
  config.oracle.min_group = std::numeric_limits<std::size_t>::max();
  const std::unique_ptr<bench::Workload> workload =
      bench::make_workload(args.workload, design, config, args.seed);
  if (workload == nullptr) usage("unknown workload");

  const bool tracing = !args.trace_out.empty();
  bench::Trace trace(tracing);
  std::vector<std::string> errors;
  const auto note = [&errors](const std::string& what) {
    if (errors.size() < kMaxErrors) errors.push_back(what);
  };

  // --- set-up: load, then one untimed warm-up op --------------------------
  const double setup_pass_s = bench::calibration_pass_s();
  const auto setup_start = Clock::now();
  Status status = workload->setup(trace);
  trace.set_enabled(false);
  if (status.is_ok()) status = workload->op(trace);
  const double setup_s = seconds_since(setup_start);
  const double setup_scale =
      2.0 * bench::kReferencePassS / (setup_pass_s + bench::calibration_pass_s());
  if (!status.is_ok()) {
    std::fprintf(stderr, "relmore_bench: set-up failed: %s\n", status.to_string().c_str());
    return 1;
  }

  // --- closed loop ---------------------------------------------------------
  std::vector<double> latency_ms;
  std::vector<double> traced_latency_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t checks = 0;
  std::uint64_t first_digest = 0;
  // A window closes after kWindowS of op time. The calibration passes on
  // both sides of it give its scale to the reference speed.
  std::vector<double> window_ops;  // untraced ops (entries of latency_ms) per window
  std::vector<double> window_scale;
  double window_s = 0.0;
  std::size_t window_count = 0;
  std::size_t window_first = 0;
  double pass_s = bench::calibration_pass_s();
  double best_mean_s = std::numeric_limits<double>::infinity();
  CpuPin cpu;
  const auto close_window = [&] {
    const double next_pass_s = bench::calibration_pass_s();
    const double scale = 2.0 * bench::kReferencePassS / (pass_s + next_pass_s);
    pass_s = next_pass_s;
    const double mean_s = window_s * scale / static_cast<double>(window_count);
    best_mean_s = std::min(best_mean_s, mean_s);
    if (mean_s > best_mean_s * (1.0 + kSlowShare)) cpu.next();
    window_ops.push_back(static_cast<double>(latency_ms.size() - window_first));
    window_scale.push_back(scale);
    window_s = 0.0;
    window_count = 0;
    window_first = latency_ms.size();
  };
  const auto loop_start = Clock::now();
  for (std::size_t i = 0; args.max_ops == 0 || i < args.max_ops; ++i) {
    if (i > 0 && args.seconds > 0.0 && seconds_since(loop_start) >= args.seconds) break;
    if (window_s >= kWindowS) close_window();
    const bool traced = tracing && i % 2 == 1;
    trace.set_enabled(traced);
    const auto op_start = Clock::now();
    {
      auto span = trace.span("op");
      status = workload->op(trace);
    }
    const auto op_end = Clock::now();
    const double op_s = std::chrono::duration<double>(op_end - op_start).count();
    trace.set_enabled(false);
    (traced ? traced_latency_ms : latency_ms).push_back(op_s * 1e3);
    ++attempted;
    window_s += op_s;
    ++window_count;

    // Untimed checks.
    bool ok = status.is_ok();
    if (!ok) {
      note("op " + std::to_string(i) + ": " + status.to_string());
    } else {
      const std::uint64_t digest = workload->digest();
      if (i == 0) first_digest = digest;
      if (workload->result_repeats() && digest != first_digest) {
        ok = false;
        note("op " + std::to_string(i) + ": result differs from op 0");
      }
      if (workload->result_repeats() ? i == 0 : i % kCheckEvery == 0) {
        ++checks;
        const Result<std::uint64_t> oracle = workload->oracle_digest();
        if (!oracle.is_ok() || oracle.value() != digest) {
          ok = false;
          note("op " + std::to_string(i) + ": differs from the scalar oracle" +
               (oracle.is_ok() ? "" : " (" + oracle.status().to_string() + ")"));
        }
      }
    }
    if (!ok) ++failed;
  }
  close_window();

  // --- probe phase (traced runs) -------------------------------------------
  if (tracing) {
    trace.set_enabled(true);
    if (const Status probe = workload->probe(trace); !probe.is_ok()) {
      ++failed;
      note("probe: " + probe.to_string());
    }
    if (!trace.write(args.trace_out)) {
      std::fprintf(stderr, "relmore_bench: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  std::printf("{\"workload\":%s,\"seed\":%llu,\"threads\":%u,\"setup_s\":%.6f"
              ",\"setup_scale\":%.6f",
              json_string(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
              config.deployed.threads, setup_s, setup_scale);
  std::printf(",\"attempted\":%zu,\"failed\":%zu,\"checks\":%zu", attempted, failed, checks);
  std::printf(",\"result_digest\":\"%016llx\",\"peak_rss_mb\":%.3f",
              static_cast<unsigned long long>(first_digest),
              static_cast<double>(usage_now.ru_maxrss) / 1024.0);
  print_list("latency_ms", latency_ms);
  print_list("traced_latency_ms", traced_latency_ms);
  print_list("window_ops", window_ops);
  print_list("window_scale", window_scale);
  std::printf(",\"errors\":[");
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", json_string(errors[i]).c_str());
  }
  std::printf("]}\n");
  return 0;
}
