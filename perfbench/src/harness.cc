#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "obs/trace.h"
#include "support/rng.h"
#include "support/stats.h"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double timed(const std::function<void()>& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& [key, metric] : items_) {
    if (key == name) {
      metric = {value, unit};
      return;
    }
  }
  items_.emplace_back(name, Metric{value, unit});
}

void Checks::begin(std::string op) {
  if (open_) end();
  op_ = std::move(op);
  open_ = true;
  op_failed_ = false;
}

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  op_failed_ = true;
  if (messages_.size() < 20) messages_.push_back(op_ + ": " + what);
}

void Checks::end() {
  if (!open_) return;
  open_ = false;
  ++attempted_;
  if (op_failed_) ++failed_;
}

bool another_pass(const Options& options, std::size_t passes_done,
                  double elapsed_s) {
  if (options.quick) return false;
  if (passes_done < 2) return true;
  const double per_pass = elapsed_s / static_cast<double>(passes_done);
  return elapsed_s + per_pass <= options.seconds;
}

bool another_op(const Options& options, std::size_t op, std::size_t per_pass,
                double elapsed_s, double expected_s) {
  if (op < (options.quick ? 1 : 2) * per_pass) return true;
  return !options.quick && elapsed_s + expected_s <= options.seconds;
}

double median_of(std::vector<double> values) {
  return values.empty() ? 0.0 : mlsc::percentile_of(std::move(values), 50.0);
}

double sum_of_medians(const std::map<std::string, std::vector<double>>& s) {
  double total = 0.0;
  for (const auto& [key, samples] : s) total += median_of(samples);
  return total;
}

void set_latency_metrics(RunResult& result, const std::vector<double>& ms) {
  const double p95 = ms.empty() ? 0.0 : mlsc::percentile_of(ms, 95);
  result.metrics.set("event_p50_ms", median_of(ms), "ms");
  result.metrics.set("event_p95_ms", p95, "ms");
  std::size_t beyond = 0;
  for (const double value : ms) beyond += value > p95 ? 1 : 0;
  result.notes["latency_samples"] = std::to_string(ms.size());
  result.notes["samples_beyond_p95"] = std::to_string(beyond);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SpanTotals::self_s(const std::vector<std::string>& names) const {
  double ns = 0.0;
  for (const auto& name : names) {
    const auto it = self_ns.find(name);
    if (it != self_ns.end()) ns += it->second;
  }
  return ns * 1e-9;
}

SpanTotals& SpanTotals::operator+=(const SpanTotals& other) {
  for (const auto& [name, ns] : other.self_ns) self_ns[name] += ns;
  pool_busy_ns += other.pool_busy_ns;
  return *this;
}

namespace {

struct SpanEvent {
  std::string name;
  double ts = 0.0;   // microseconds
  double dur = 0.0;  // microseconds
};

/// Value text after `"key": ` on an event line ("" when absent).
std::string field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const auto at = line.find(needle);
  if (at == std::string::npos) return "";
  auto start = at + needle.size();
  if (line[start] == '"') {
    const auto close = line.find('"', start + 1);
    return line.substr(start + 1, close - start - 1);
  }
  auto stop = line.find_first_of(",}", start);
  return line.substr(start, stop - start);
}

/// Self times from one trace_event document as write_trace_json emits
/// it (one event per line).  Complete events on the real-time pid are
/// nested per thread by interval containment.
SpanTotals span_totals(const std::string& json) {
  std::map<long, std::vector<SpanEvent>> by_tid;
  SpanTotals totals;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    if (field(line, "pid") != "0") continue;
    const long tid = std::strtol(field(line, "tid").c_str(), nullptr, 10);
    SpanEvent event{field(line, "name"),
                    std::strtod(field(line, "ts").c_str(), nullptr),
                    std::strtod(field(line, "dur").c_str(), nullptr)};
    if (tid >= mlsc::obs::kPoolTidBase) {
      if (event.name == "pool chunk") totals.pool_busy_ns += event.dur * 1e3;
      continue;
    }
    by_tid[tid].push_back(std::move(event));
  }
  for (auto& [tid, events] : by_tid) {
    std::sort(events.begin(), events.end(),
              [](const SpanEvent& a, const SpanEvent& b) {
                return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
              });
    // Stack of open spans: (end time, index); children subtract their
    // duration from the innermost enclosing span.
    std::vector<std::pair<double, std::size_t>> open;
    std::vector<double> self(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      const SpanEvent& e = events[i];
      while (!open.empty() && open.back().first <= e.ts) open.pop_back();
      self[i] = e.dur;
      if (!open.empty()) self[open.back().second] -= e.dur;
      open.emplace_back(e.ts + e.dur, i);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      totals.self_ns[events[i].name] += std::max(self[i], 0.0) * 1e3;
    }
  }
  return totals;
}

}  // namespace

SpanTotals traced(const std::string& trace_file,
                  const std::function<void()>& fn) {
  mlsc::obs::start_trace(trace_file);
  fn();
  std::ostringstream json;
  mlsc::obs::write_trace_json(json);
  mlsc::obs::stop_trace();
  return span_totals(json.str());
}

void add_core_span_metrics(Metrics& out, const SpanTotals& spans) {
  out.set("core.tagging_s", spans.self_s({"pipeline.tagging"}), "s");
  out.set("core.similarity_s",
          spans.self_s({"pipeline.similarity_sweep", "pipeline.candidate_gen",
                        "pipeline.pair_scoring"}),
          "s");
  out.set("core.clustering_s", spans.self_s({"pipeline.clustering"}), "s");
  out.set("core.forest_s", spans.self_s({"pipeline.affinity_forest"}), "s");
  out.set("core.load_balance_s", spans.self_s({"pipeline.load_balance"}),
          "s");
  out.set("core.scheduling_s", spans.self_s({"pipeline.scheduling"}), "s");
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"core.map_s", "s"},
      {"core.tagging_s", "s"},
      {"core.similarity_s", "s"},
      {"core.clustering_s", "s"},
      {"core.forest_s", "s"},
      {"core.load_balance_s", "s"},
      {"core.scheduling_s", "s"},
      {"core.iteration_chunks", "count"},
      {"core.sync_edges", "count"},
      {"core.pool_busy_pct", "%"},
      {"sim.trace_s", "s"},
      {"sim.replay_s", "s"},
      {"sim.accesses", "count"},
      {"sim.replay_ns_per_access", "ns"},
      {"cache.lru.replay_s", "s"},
      {"cache.fifo.replay_s", "s"},
      {"cache.clock.replay_s", "s"},
      {"cache.lfu.replay_s", "s"},
      {"cache.2q.replay_s", "s"},
      {"cache.mq.replay_s", "s"},
      {"cache.arc.replay_s", "s"},
      {"cache.l1_misses", "count"},
      {"cache.l2_misses", "count"},
      {"cache.l3_misses", "count"},
      {"cache.writeback_bytes", "bytes"},
      {"io.disk_s", "s"},
      {"io.disk_queue_s", "s"},
      {"io.shared_cache_s", "s"},
      {"obs.explain_x", "ratio"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.headroom_l2_pct", "%"},
      {"obs.headroom_l3_pct", "%"},
      {"resilience.degraded_replay_s", "s"},
      {"resilience.retries", "count"},
      {"resilience.failovers", "count"},
      {"serve.bootstrap_s", "s"},
      {"serve.patch_ms", "ms"},
      {"serve.partial_ms", "ms"},
      {"serve.full_ms", "ms"},
      {"serve.decisions_patch", "count"},
      {"serve.decisions_partial", "count"},
      {"serve.decisions_full", "count"},
      {"serve.scored_pairs", "count"},
      {"serve.forest_hooks", "count"},
      {"serve.standing_chunks", "count"},
  };
  return units;
}

void complete_layer_metrics(Metrics& metrics) {
  Metrics ordered;
  for (const auto& [name, unit] : layer_metric_units()) {
    double value = 0.0;
    for (const auto& [key, metric] : metrics.items()) {
      if (key == name) value = metric.value;
    }
    ordered.set(name, value, unit);
  }
  metrics = ordered;
}

mlsc::sim::MachineConfig seeded_machine(std::uint64_t seed) {
  mlsc::sim::MachineConfig machine;
  mlsc::Rng rng(seed ^ 0x6d616368696e65ull);
  const mlsc::Nanoseconds base = machine.disk.controller_overhead;
  machine.disk.controller_overhead = base + rng.next_below(base / 1000);
  return machine;
}

}  // namespace perfbench
