// Shared pieces of the benchmark driver: options, metric and check
// bookkeeping, timing helpers, and span self-time extraction from the
// library's own trace session.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// Runs `fn` and returns its wall time in seconds.
double timed(const std::function<void()>& fn);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Mapping threads; 0 keeps the workload's own choice.
  std::size_t threads = 0;
  /// Small inputs and a single pass, for the benchmark's own tests.
  bool quick = false;
  /// Where a trace session writes its events when it stops (a scratch
  /// file; the events are read back from memory, not from it).
  std::string trace_file = "perfbench_trace.json";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Named metrics in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, Metric>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
};

/// Operations attempted and failed.  An operation (a mapped case, a
/// replay, a churn event) fails when any of its checks fails.
class Checks {
 public:
  /// Starts an operation named `op`; expect() calls until the next
  /// begin() belong to it.
  void begin(std::string op);
  void expect(bool ok, const std::string& what);
  /// Closes the running operation.
  void end();

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// The first few failure messages.
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::string op_;
  bool open_ = false;
  bool op_failed_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Everything one workload run reports.
struct RunResult {
  Metrics metrics;  // end-to-end (untraced) or per-layer (traced)
  /// Exact simulated values, printed with full precision in both modes
  /// so tests can compare runs bit for bit.
  std::map<std::string, double> exact;
  Checks checks;
  std::map<std::string, std::string> notes;  // run metadata
};

/// Whether the timed phase runs another pass: at least two (one in
/// quick mode), then more while one more average pass still ends within
/// --seconds.
bool another_pass(const Options& options, std::size_t passes_done,
                  double elapsed_s);

/// Whether the timed phase runs operation `op` (0-based) of a cycle of
/// `per_pass` operations: every operation of the first two passes (of
/// one in quick mode), then more while the operation, taking
/// `expected_s` as last time, still ends within --seconds.
bool another_op(const Options& options, std::size_t op, std::size_t per_pass,
                double elapsed_s, double expected_s);

double median_of(std::vector<double> values);
/// Σ over keys of the median of each key's samples.
double sum_of_medians(const std::map<std::string, std::vector<double>>& s);

/// Sets event_p50_ms and event_p95_ms from per-operation latencies and
/// records the sample count and how many samples lie beyond p95.
void set_latency_metrics(RunResult& result, const std::vector<double>& ms);

/// Process peak resident set size in MiB.
double peak_rss_mib();

/// Self time (nanoseconds) of every real-time span, by span name, plus
/// the busy time of the thread pool's worker threads.
struct SpanTotals {
  std::map<std::string, double> self_ns;
  double pool_busy_ns = 0.0;

  double self_s(const std::vector<std::string>& names) const;
  SpanTotals& operator+=(const SpanTotals& other);
};

/// Runs `fn` inside a fresh trace session and returns the span self
/// times it recorded.  The session writes its events to `trace_file`
/// when it stops.
SpanTotals traced(const std::string& trace_file,
                  const std::function<void()>& fn);

/// The span groups behind the core.*_s per-layer metrics.
void add_core_span_metrics(Metrics& out, const SpanTotals& spans);

/// Names of the per-layer metrics, in report order, and their units.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// Fills every listed metric the workload did not set with 0 so each
/// run reports the full list (a layer a workload never calls is 0).
void complete_layer_metrics(Metrics& metrics);

/// The Table 1 machine with the disk controller overhead drawn from the
/// seed within 0.1% of its default: each seed simulates a slightly
/// different machine (so simulated times differ between seeds), while
/// the host work stays the same.
mlsc::sim::MachineConfig seeded_machine(std::uint64_t seed);

RunResult run_paper_map(const Options& options);
RunResult run_fine_map(const Options& options);
RunResult run_replay_mix(const Options& options);
RunResult run_churn(const Options& options);

}  // namespace perfbench
