// paper-map and fine-map: offline mapping suites, each case the same
// steps sim::run_experiment takes (build inputs, map, expand the trace,
// replay, compare movement with the I/O lower bound), called one by one
// so every step is timed and the mapping itself can be checked.
#include <algorithm>
#include <memory>

#include "core/pipeline.h"
#include "harness.h"
#include "outcome.h"
#include "sim/experiment.h"
#include "support/stats.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

struct OfflineCase {
  std::string app;
  double size_factor = 1.0;
  mlsc::sim::SchemeSpec scheme;
  std::string key() const { return app + "/" + scheme.name(); }
};

/// Inputs of one case, built in set-up (run_experiment builds the same
/// three per call).
struct CaseInputs {
  explicit CaseInputs(const OfflineCase& c, const mlsc::sim::MachineConfig& m)
      : workload(mlsc::workloads::make_workload(c.app, c.size_factor)),
        tree(m.build_tree()),
        space(workload.program, m.chunk_size_bytes) {}
  mlsc::workloads::Workload workload;
  mlsc::topology::HierarchyTree tree;
  mlsc::core::DataSpace space;
};

struct CaseTimes {
  double map_s = 0, trace_s = 0, replay_s = 0, wall_s = 0;
};

mlsc::core::PipelineOptions pipeline_options(
    const mlsc::sim::SchemeSpec& scheme,
    const mlsc::sim::MachineConfig& machine) {
  mlsc::core::PipelineOptions options;
  options.mapper = scheme.mapper;
  options.balance_threshold = scheme.balance_threshold;
  options.schedule = scheme.schedule;
  options.scheduler = scheme.scheduler;
  options.tagging = scheme.tagging;
  options.dependences = scheme.dependences;
  options.clustering = scheme.clustering;
  options.num_threads = scheme.num_threads;
  options.intra.client_cache_bytes = machine.client_cache_bytes;
  return options;
}

/// One case end to end; fills `times` and returns the result.
CaseOutcome run_case(const OfflineCase& c, const CaseInputs& in,
                     const mlsc::sim::MachineConfig& machine,
                     CaseTimes& times) {
  CaseOutcome out;
  const auto start = Clock::now();
  mlsc::core::MappingPipeline pipeline(
      in.tree, pipeline_options(c.scheme, machine));
  out.mapping = pipeline.run_all(in.workload.program, in.space);
  times.map_s = seconds_since(start);
  const auto trace_start = Clock::now();
  const mlsc::sim::Trace trace =
      mlsc::sim::generate_trace(in.workload.program, in.space, out.mapping);
  times.trace_s = seconds_since(trace_start);
  const auto replay_start = Clock::now();
  out.engine = mlsc::sim::run_engine(trace, out.mapping, machine, in.tree);
  times.replay_s = seconds_since(replay_start);
  out.movement =
      mlsc::sim::movement_vs_bound(in.workload, machine, out.engine);
  times.wall_s = seconds_since(start);
  out.clients = in.tree.num_clients();
  return out;
}

struct Suite {
  std::vector<OfflineCase> cases;  // the timed operations
  /// Original-scheme references for exec_vs_original that are not timed
  /// cases themselves; run once after the timed phase.
  std::vector<OfflineCase> baselines;
  mlsc::sim::MachineConfig machine;
  std::size_t threads = 1;
};

Suite paper_suite(const Options& options) {
  Suite suite;
  suite.machine = seeded_machine(options.seed);
  // One app whose inter mapping is dominated by greedy clustering
  // (astro) and one dominated by load balance that also has cross-client
  // dependences (apsi).
  const std::vector<std::string> apps = {"astro", "apsi"};
  const double sf = options.quick ? 0.0625 : 1.0;
  for (const auto& app : apps) {
    for (const auto& scheme :
         {mlsc::sim::SchemeSpec::original(), mlsc::sim::SchemeSpec::inter(),
          mlsc::sim::SchemeSpec::inter_scheduled()}) {
      suite.cases.push_back({app, sf, scheme});
    }
  }
  return suite;
}

Suite fine_suite(const Options& options) {
  Suite suite;
  suite.machine = seeded_machine(options.seed);
  suite.threads = options.threads != 0 ? options.threads : 2;
  const std::vector<std::string> apps = options.quick
                                            ? std::vector<std::string>{"sar"}
                                            : std::vector<std::string>{
                                                  "sar", "apsi"};
  const double sf = options.quick ? 0.0625 : 1.0;
  for (const auto& app : apps) {
    mlsc::sim::SchemeSpec inter = mlsc::sim::SchemeSpec::inter();
    // Above the kAuto forest threshold: the affinity-forest kernel and
    // the thread pool do the clustering.
    inter.tagging.max_iteration_chunks = options.quick ? 9000 : 16384;
    inter.num_threads = suite.threads;
    suite.cases.push_back({app, sf, inter});
    suite.baselines.push_back({app, sf, mlsc::sim::SchemeSpec::original()});
  }
  return suite;
}

RunResult run_suite(const Suite& suite, const Options& options) {
  RunResult result;
  const mlsc::sim::MachineConfig& machine = suite.machine;

  // Set-up: every case's inputs.  One construction of the whole set
  // takes well under a millisecond, so each sample times a batch of
  // constructions sized to about 100 ms; setup_s is the median sample
  // over the batch size.
  std::vector<std::unique_ptr<CaseInputs>> inputs;
  auto construct = [&] {
    inputs.clear();
    for (const auto& c : suite.cases) {
      inputs.push_back(std::make_unique<CaseInputs>(c, machine));
    }
  };
  const double once = timed(construct);
  const auto batch = static_cast<std::size_t>(
      std::clamp(0.1 / std::max(once, 1e-9), 1.0, 100000.0));
  std::vector<double> setup_samples;
  for (int i = 0; i < (options.quick ? 1 : 11); ++i) {
    setup_samples.push_back(timed([&] {
                              for (std::size_t b = 0; b < batch; ++b) {
                                construct();
                              }
                            }) /
                            static_cast<double>(batch));
  }

  // Timed phase: the case list in turn until --seconds elapse, at least
  // two passes.  In a traced run every case also runs once more under a
  // trace session.
  std::map<std::string, std::vector<double>> wall, map_s, trace_s, replay_s,
      traced_wall, traced_map_s;
  std::map<std::string, std::vector<SpanTotals>> span_samples;
  std::vector<double> op_ms;
  std::vector<CaseOutcome> first;
  const std::size_t n = suite.cases.size();
  const auto timed_start = Clock::now();
  std::size_t ops = 0;
  for (;; ++ops) {
    const std::size_t i = ops % n;
    const OfflineCase& c = suite.cases[i];
    const std::string key = c.key();
    const double expected =
        ops < n ? 0.0
                : wall[key].back() +
                      (options.trace ? traced_wall[key].back() : 0.0);
    if (!another_op(options, ops, n, seconds_since(timed_start), expected)) {
      break;
    }
    CaseTimes t;
    result.checks.begin(key);
    CaseOutcome out = run_case(c, *inputs[i], machine, t);
    wall[key].push_back(t.wall_s);
    map_s[key].push_back(t.map_s);
    trace_s[key].push_back(t.trace_s);
    replay_s[key].push_back(t.replay_s);
    op_ms.push_back(t.wall_s * 1e3);
    check_case(result.checks, out, inputs[i]->workload.program);
    if (ops < n) {
      first.push_back(std::move(out));
    } else {
      result.checks.expect(same_simulation(first[i], out),
                           "simulated result differs from pass 1");
    }
    result.checks.end();
    if (options.trace) {
      CaseTimes tt;
      result.checks.begin(key + " traced");
      CaseOutcome traced_out;
      span_samples[key].push_back(traced(options.trace_file, [&] {
        traced_out = run_case(c, *inputs[i], machine, tt);
      }));
      traced_wall[key].push_back(tt.wall_s);
      traced_map_s[key].push_back(tt.map_s);
      check_case(result.checks, traced_out, inputs[i]->workload.program);
      result.checks.expect(same_simulation(first[i], traced_out),
                           "traced simulation differs from untraced");
      result.checks.end();
    }
  }

  // The benchmark's own tests run quick mode: there each case must match
  // sim::run_experiment, whose steps run_case repeats one by one.
  for (std::size_t i = 0; options.quick && i < suite.cases.size(); ++i) {
    const OfflineCase& c = suite.cases[i];
    result.checks.begin(c.key() + " vs run_experiment");
    const mlsc::sim::ExperimentResult reference = mlsc::sim::run_experiment(
        inputs[i]->workload, c.scheme, machine);
    const auto& e = first[i].engine;
    result.checks.expect(
        reference.exec_time == e.exec_time &&
            reference.io_latency == e.io_time_mean(first[i].clients) &&
            reference.engine.l1.misses == e.l1.misses &&
            reference.engine.l2.misses == e.l2.misses &&
            reference.engine.l3.misses == e.l3.misses &&
            reference.sync_edges == first[i].mapping.sync_edges.size(),
        "differs from run_experiment");
    result.checks.end();
  }

  // Simulated aggregates over the locality-aware cases; originals only
  // feed the normalized ratio.
  SimTotals sim;
  std::map<std::string, double> original_exec, mapped_exec;
  for (const auto& c : suite.baselines) {
    result.checks.begin(c.key());
    const CaseInputs in(c, machine);
    CaseTimes t;
    const CaseOutcome out = run_case(c, in, machine, t);
    check_case(result.checks, out, in.workload.program);
    result.checks.end();
    original_exec[c.app] = static_cast<double>(out.engine.exec_time);
  }
  for (std::size_t i = 0; i < suite.cases.size(); ++i) {
    const OfflineCase& c = suite.cases[i];
    const CaseOutcome& out = first[i];
    if (c.scheme.mapper == mlsc::core::MapperKind::kOriginal) {
      original_exec[c.app] = static_cast<double>(out.engine.exec_time);
      continue;
    }
    sim.add(out);
    if (!c.scheme.schedule) {
      mapped_exec[c.app] = static_cast<double>(out.engine.exec_time);
    }
  }
  std::vector<double> ratios;
  for (const auto& [app, exec] : mapped_exec) {
    ratios.push_back(exec / original_exec.at(app));
  }
  sim.exec_vs_original = mlsc::geomean_of(ratios);
  sim.export_exact(result.exact);

  Metrics& m = result.metrics;
  if (!options.trace) {
    m.set("setup_s", median_of(setup_samples), "s");
    m.set("total_s", sum_of_medians(wall), "s");
    m.set("peak_rss_mib", peak_rss_mib(), "MiB");
    // Latencies of whole passes only, so every case weighs the same.
    op_ms.resize(ops / n * n);
    set_latency_metrics(result, op_ms);
    sim.set_e2e(m);
  } else {
    const double map_total = sum_of_medians(map_s);
    m.set("core.map_s", map_total, "s");
    SpanTotals span_median;
    for (const auto& [key, samples] : span_samples) {
      span_median += median_spans(samples);
    }
    add_core_span_metrics(m, span_median);
    std::uint64_t chunks = 0, sync_edges = 0;
    for (const auto& out : first) {
      chunks += out.mapping.chunk_table.size();
      sync_edges += out.mapping.sync_edges.size();
    }
    m.set("core.iteration_chunks", static_cast<double>(chunks), "count");
    m.set("core.sync_edges", static_cast<double>(sync_edges), "count");
    // Busy time of the pool's worker threads over the mapping time of the
    // traced cases times the thread count.
    const double traced_map = sum_of_medians(traced_map_s);
    m.set("core.pool_busy_pct",
          traced_map > 0 ? 100.0 * span_median.pool_busy_ns * 1e-9 /
                               (static_cast<double>(suite.threads) * traced_map)
                         : 0.0,
          "%");
    m.set("sim.trace_s", sum_of_medians(trace_s), "s");
    const double replay_total = sum_of_medians(replay_s);
    std::uint64_t accesses = 0;
    for (const auto& out : first) accesses += out.engine.accesses;
    m.set("sim.replay_s", replay_total, "s");
    m.set("sim.accesses", static_cast<double>(accesses), "count");
    m.set("sim.replay_ns_per_access",
          replay_total * 1e9 / static_cast<double>(accesses), "ns");
    m.set("cache.lru.replay_s", replay_total, "s");
    sim.set_layers(m);
    m.set("obs.trace_overhead_pct",
          100.0 * (sum_of_medians(traced_wall) / sum_of_medians(wall) - 1.0),
          "%");
  }
  result.notes["operations"] = std::to_string(ops);
  result.notes["cases"] = std::to_string(suite.cases.size());
  result.notes["threads"] = std::to_string(suite.threads);
  return result;
}

}  // namespace

void check_case(Checks& checks, const CaseOutcome& out,
                const mlsc::poly::Program& program) {
  try {
    out.mapping.validate_partition(program);
  } catch (const std::exception& e) {
    checks.expect(false, std::string("mapping is not a partition: ") +
                             e.what());
  }
  check_engine(checks, out.engine, out.movement);
}

void check_engine(Checks& checks, const mlsc::sim::EngineResult& e,
                  const std::vector<mlsc::sim::LevelMovement>& movement) {
  checks.expect(e.time_client_cache + e.time_shared_cache +
                        e.time_peer_cache + e.time_disk + e.time_retry +
                        e.time_failover ==
                    e.io_time_total,
                "stall components do not sum to io_time_total");
  checks.expect(movement.size() == 3, "movement rows missing");
  for (const auto& row : movement) {
    checks.expect(row.io_lower_bound <= row.bytes_moved,
                  "io lower bound above bytes moved at " + row.level);
  }
}

bool same_simulation(const CaseOutcome& a, const CaseOutcome& b) {
  return a.engine.exec_time == b.engine.exec_time &&
         a.engine.io_time_total == b.engine.io_time_total &&
         a.engine.l1.misses == b.engine.l1.misses &&
         a.engine.l2.misses == b.engine.l2.misses &&
         a.engine.l3.misses == b.engine.l3.misses &&
         a.engine.accesses == b.engine.accesses &&
         a.engine.bytes.below_l1() == b.engine.bytes.below_l1();
}

SpanTotals median_spans(const std::vector<SpanTotals>& samples) {
  SpanTotals out;
  std::map<std::string, std::vector<double>> by_name;
  std::vector<double> busy;
  for (const auto& s : samples) {
    for (const auto& [name, ns] : s.self_ns) by_name[name].push_back(ns);
    busy.push_back(s.pool_busy_ns);
  }
  for (auto& [name, values] : by_name) {
    values.resize(samples.size(), 0.0);
    out.self_ns[name] = median_of(values);
  }
  out.pool_busy_ns = median_of(busy);
  return out;
}

void SimTotals::add(const CaseOutcome& out) {
  const auto& e = out.engine;
  exec_ns += static_cast<double>(e.exec_time);
  io_ns += static_cast<double>(e.io_time_mean(out.clients));
  pause_ns += static_cast<double>(e.sync_wait_total + e.fault_stall_total);
  for (int l = 0; l < 3; ++l) {
    const auto& stats = l == 0 ? e.l1 : l == 1 ? e.l2 : e.l3;
    accesses[l] += stats.accesses;
    misses[l] += stats.misses;
    bound[l] += out.movement[l].io_lower_bound;
    moved[l] += out.movement[l].bytes_moved;
  }
  writeback_bytes += e.bytes.writeback;
  disk_ns += static_cast<double>(e.time_disk);
  disk_queue_ns += static_cast<double>(e.time_disk_queue);
  shared_cache_ns += static_cast<double>(e.time_shared_cache);
}

double SimTotals::miss_pct(int level) const {
  return accesses[level] == 0 ? 0.0
                              : 100.0 * static_cast<double>(misses[level]) /
                                    static_cast<double>(accesses[level]);
}

double SimTotals::headroom_pct(int level) const {
  return mlsc::sim::LevelMovement::headroom(bound[level], moved[level]);
}

void SimTotals::set_e2e(Metrics& m) const {
  m.set("sim_exec_s", exec_ns * 1e-9, "s");
  m.set("sim_io_s", io_ns * 1e-9, "s");
  m.set("l1_miss_pct", miss_pct(0), "%");
  m.set("l2_miss_pct", miss_pct(1), "%");
  m.set("l3_miss_pct", miss_pct(2), "%");
  m.set("headroom_l1_pct", headroom_pct(0), "%");
  m.set("exec_vs_original", exec_vs_original, "ratio");
  m.set("pause_s", pause_ns * 1e-9, "s");
}

void SimTotals::set_layers(Metrics& m) const {
  m.set("cache.l1_misses", static_cast<double>(misses[0]), "count");
  m.set("cache.l2_misses", static_cast<double>(misses[1]), "count");
  m.set("cache.l3_misses", static_cast<double>(misses[2]), "count");
  m.set("cache.writeback_bytes", static_cast<double>(writeback_bytes),
        "bytes");
  m.set("io.disk_s", disk_ns * 1e-9, "s");
  m.set("io.disk_queue_s", disk_queue_ns * 1e-9, "s");
  m.set("io.shared_cache_s", shared_cache_ns * 1e-9, "s");
  m.set("obs.headroom_l2_pct", headroom_pct(1), "%");
  m.set("obs.headroom_l3_pct", headroom_pct(2), "%");
}

void SimTotals::export_exact(std::map<std::string, double>& exact) const {
  Metrics m;
  set_e2e(m);
  set_layers(m);
  for (const auto& [name, metric] : m.items()) exact[name] = metric.value;
}

RunResult run_paper_map(const Options& options) {
  return run_suite(paper_suite(options), options);
}

RunResult run_fine_map(const Options& options) {
  return run_suite(fine_suite(options), options);
}

}  // namespace perfbench
