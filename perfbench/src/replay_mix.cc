// replay-mix: the simulator and cache layers.  Set-up maps and expands
// the traces (inter and original scheme) of a few apps; the timed phase
// replays each inter trace under every cache policy, write-back,
// exclusive placement, cooperative caching, readahead, a seeded fault
// schedule and the explanation profiler, plus the original trace.
#include <memory>

#include "core/pipeline.h"
#include "harness.h"
#include "outcome.h"
#include "resilience/fault.h"
#include "resilience/retry.h"
#include "sim/trace.h"
#include "support/rng.h"
#include "support/stats.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

namespace sim = mlsc::sim;

struct AppInputs {
  AppInputs(const std::string& app, double size_factor,
            const sim::MachineConfig& machine)
      : workload(mlsc::workloads::make_workload(app, size_factor)),
        tree(machine.build_tree()),
        space(workload.program, machine.chunk_size_bytes) {}
  mlsc::workloads::Workload workload;
  mlsc::topology::HierarchyTree tree;
  mlsc::core::DataSpace space;
  mlsc::core::MappingResult inter_mapping, original_mapping;
  sim::Trace inter_trace, original_trace;
};

struct Variant {
  std::string name;
  sim::MachineConfig machine;
  bool faults = false;
  bool original = false;  // replay the original-scheme trace
};

std::vector<Variant> variants(const sim::MachineConfig& base) {
  std::vector<Variant> out;
  for (const auto kind :
       {mlsc::cache::PolicyKind::kLru, mlsc::cache::PolicyKind::kFifo,
        mlsc::cache::PolicyKind::kClock, mlsc::cache::PolicyKind::kLfu,
        mlsc::cache::PolicyKind::kTwoQ, mlsc::cache::PolicyKind::kMq,
        mlsc::cache::PolicyKind::kArc}) {
    Variant v{mlsc::cache::policy_kind_name(kind), base};
    v.machine.policy = kind;
    out.push_back(v);
  }
  Variant v{"write-back", base};
  v.machine.write_back = true;
  out.push_back(v);
  v = {"exclusive", base};
  v.machine.placement = mlsc::cache::PlacementMode::kExclusive;
  out.push_back(v);
  v = {"cooperative", base};
  v.machine.cooperative_caching = true;
  out.push_back(v);
  v = {"readahead", base};
  v.machine.readahead_chunks = 4;
  out.push_back(v);
  v = {"faults", base};
  v.faults = true;
  out.push_back(v);
  v = {"explain", base};
  v.machine.explain = true;
  out.push_back(v);
  v = {"original", base};
  v.original = true;
  out.push_back(v);
  return out;
}

/// The seeded fault schedule: one I/O-node fail-stop and one global
/// stall of 2 ms (plus up to 1%) early in the run, plus transient disk
/// errors throughout.  The stall is charged to every client, so its
/// length is kept nearly fixed: pause_s then hardly moves between seeds.
std::string fault_spec(std::uint64_t seed) {
  mlsc::Rng rng(seed ^ 0x6661756c74ull);
  const std::uint64_t fail_ms = 1 + rng.next_below(8);
  const std::uint64_t node = rng.next_below(32);
  const std::uint64_t stall_ms = 1 + rng.next_below(8);
  const std::uint64_t stall_us = 2000 + rng.next_below(20);
  const std::uint64_t rate_permille = 2 * (1 + rng.next_below(5));
  return "fail@" + std::to_string(fail_ms) + "ms:l2." + std::to_string(node) +
         "; stall@" + std::to_string(stall_ms) + "ms:" +
         std::to_string(stall_us) + "us; transient@0:disk=0.0" +
         (rate_permille < 10 ? "0" : "") + std::to_string(rate_permille) +
         "; seed=" + std::to_string(seed);
}

void check_explain(Checks& checks, const sim::EngineResult& explained,
                   const sim::EngineResult& lru) {
  const mlsc::cache::CacheStats* plain[3] = {&lru.l1, &lru.l2, &lru.l3};
  checks.expect(explained.insight.levels.size() == 3, "insight levels missing");
  for (const auto& level : explained.insight.levels) {
    const auto what = std::string(level.level_name());
    checks.expect(level.compulsory + level.capacity + level.interference ==
                      level.misses,
                  "miss classes do not partition misses at " + what);
    bool found = false;
    for (const auto& point : level.curve) {
      if (point.capacity_chunks != level.capacity_chunks) continue;
      found = true;
      checks.expect(point.predicted_misses == level.misses &&
                        level.misses == plain[level.level - 1]->misses,
                    "curve at capacity differs from LRU misses at " + what);
    }
    checks.expect(found, "curve lacks the configured capacity at " + what);
  }
}

}  // namespace

RunResult run_replay_mix(const Options& options) {
  RunResult result;
  const sim::MachineConfig base = seeded_machine(options.seed);
  const std::vector<std::string> apps =
      options.quick ? std::vector<std::string>{"sar"}
                    : std::vector<std::string>{"sar", "madbench2"};
  const double size_factor = options.quick ? 0.0625 : 1.0;

  // Set-up, repeated: inputs, both mappings and both traces per app.  In
  // a traced run the last repetition records the mapping spans.
  std::vector<std::unique_ptr<AppInputs>> inputs;
  std::vector<double> setup_samples, map_samples, trace_samples;
  SpanTotals setup_spans;
  const int reps = options.quick ? 1 : 3;
  for (int rep = 0; rep < reps; ++rep) {
    double map_s = 0, trace_s = 0;
    auto setup = [&] {
      inputs.clear();
      for (const auto& app : apps) {
        auto in = std::make_unique<AppInputs>(app, size_factor, base);
        mlsc::core::PipelineOptions inter_options, original_options;
        inter_options.intra.client_cache_bytes = base.client_cache_bytes;
        original_options = inter_options;
        original_options.mapper = mlsc::core::MapperKind::kOriginal;
        map_s += timed([&] {
          in->inter_mapping =
              mlsc::core::MappingPipeline(in->tree, inter_options)
                  .run_all(in->workload.program, in->space);
          in->original_mapping =
              mlsc::core::MappingPipeline(in->tree, original_options)
                  .run_all(in->workload.program, in->space);
        });
        trace_s += timed([&] {
          in->inter_trace = sim::generate_trace(in->workload.program,
                                                in->space, in->inter_mapping);
          in->original_trace = sim::generate_trace(
              in->workload.program, in->space, in->original_mapping);
        });
        inputs.push_back(std::move(in));
      }
    };
    if (options.trace && rep == reps - 1) {
      setup_spans = traced(options.trace_file, setup);
    } else {
      setup_samples.push_back(timed(setup));
    }
    map_samples.push_back(map_s);
    trace_samples.push_back(trace_s);
  }
  for (const auto& in : inputs) {
    result.checks.begin("set-up " + in->workload.name);
    for (const auto* mapping : {&in->inter_mapping, &in->original_mapping}) {
      try {
        mapping->validate_partition(in->workload.program);
      } catch (const std::exception& e) {
        result.checks.expect(false, e.what());
      }
    }
    result.checks.end();
  }

  // Timed phase: the (app, variant) replays in turn until --seconds
  // elapse, at least two passes; a traced run replays each once more
  // under a trace session.
  const std::vector<Variant> mix = variants(base);
  const std::string faults = fault_spec(options.seed);
  const mlsc::resilience::FaultSchedule schedule =
      mlsc::resilience::parse_fault_spec(faults);
  std::map<std::string, std::vector<double>> wall, traced_wall;
  std::map<std::string, std::map<std::string, std::vector<double>>> by_variant;
  std::vector<double> op_ms;
  std::map<std::string, CaseOutcome> first;
  auto replay = [&](const AppInputs& in, const Variant& v) {
    CaseOutcome out;
    const sim::Trace& trace = v.original ? in.original_trace : in.inter_trace;
    const auto& mapping = v.original ? in.original_mapping : in.inter_mapping;
    std::unique_ptr<mlsc::resilience::FaultInjector> injector;
    if (v.faults) {
      injector = std::make_unique<mlsc::resilience::FaultInjector>(
          schedule, mlsc::resilience::RetryPolicy{}, in.tree);
    }
    out.engine =
        sim::run_engine(trace, mapping, v.machine, in.tree, injector.get());
    out.movement = sim::movement_vs_bound(in.workload, v.machine, out.engine);
    out.clients = in.tree.num_clients();
    return out;
  };
  const std::size_t n = inputs.size() * mix.size();
  const auto timed_start = Clock::now();
  std::size_t ops = 0;
  for (;; ++ops) {
    const AppInputs& in = *inputs[(ops % n) / mix.size()];
    const Variant& v = mix[ops % mix.size()];
    const std::string key = in.workload.name + "/" + v.name;
    const double expected =
        ops < n ? 0.0
                : wall[key].back() +
                      (options.trace ? traced_wall[key].back() : 0.0);
    if (!another_op(options, ops, n, seconds_since(timed_start), expected)) {
      break;
    }
    result.checks.begin(key);
    CaseOutcome out;
    const double s = timed([&] { out = replay(in, v); });
    wall[key].push_back(s);
    by_variant[v.name][key].push_back(s);
    op_ms.push_back(s * 1e3);
    check_engine(result.checks, out.engine, out.movement);
    if (v.machine.explain) {
      check_explain(result.checks, out.engine,
                    first.at(in.workload.name + "/lru").engine);
    }
    if (ops < n) {
      first.emplace(key, std::move(out));
    } else {
      result.checks.expect(same_simulation(first.at(key), out),
                           "simulated result differs from pass 1");
    }
    result.checks.end();
    if (options.trace) {
      result.checks.begin(key + " traced");
      CaseOutcome traced_out;
      traced(options.trace_file, [&] {
        traced_wall[key].push_back(timed([&] { traced_out = replay(in, v); }));
      });
      result.checks.expect(same_simulation(first.at(key), traced_out),
                           "traced simulation differs from untraced");
      result.checks.end();
    }
  }

  // Simulated metrics over every replay of the inter traces; the
  // original-trace replays feed the normalized ratio.
  SimTotals sim_totals;
  std::vector<double> ratios;
  std::uint64_t accesses = 0, chunks = 0, sync_edges = 0;
  std::uint64_t retries = 0, failovers = 0;
  for (const auto& in : inputs) {
    for (const auto& v : mix) {
      if (!v.original) {
        sim_totals.add(first.at(in->workload.name + "/" + v.name));
      }
    }
    const CaseOutcome& lru = first.at(in->workload.name + "/lru");
    ratios.push_back(
        static_cast<double>(lru.engine.exec_time) /
        static_cast<double>(
            first.at(in->workload.name + "/original").engine.exec_time));
    chunks += in->inter_mapping.chunk_table.size();
    sync_edges += in->inter_mapping.sync_edges.size();
    const CaseOutcome& faulted = first.at(in->workload.name + "/faults");
    retries += faulted.engine.retries;
    failovers += faulted.engine.failovers;
  }
  for (const auto& [key, out] : first) accesses += out.engine.accesses;
  sim_totals.exec_vs_original = mlsc::geomean_of(ratios);
  sim_totals.export_exact(result.exact);
  result.exact["retries"] = static_cast<double>(retries);
  result.exact["failovers"] = static_cast<double>(failovers);

  Metrics& m = result.metrics;
  if (!options.trace) {
    m.set("setup_s", median_of(setup_samples), "s");
    m.set("total_s", sum_of_medians(wall), "s");
    m.set("peak_rss_mib", peak_rss_mib(), "MiB");
    // Latencies of whole passes only, so every replay weighs the same.
    op_ms.resize(ops / n * n);
    set_latency_metrics(result, op_ms);
    sim_totals.set_e2e(m);
  } else {
    m.set("core.map_s", median_of(map_samples), "s");
    add_core_span_metrics(m, setup_spans);
    m.set("core.iteration_chunks", static_cast<double>(chunks), "count");
    m.set("core.sync_edges", static_cast<double>(sync_edges), "count");
    m.set("sim.trace_s", median_of(trace_samples), "s");
    const double replay_total = sum_of_medians(wall);
    m.set("sim.replay_s", replay_total, "s");
    m.set("sim.accesses", static_cast<double>(accesses), "count");
    m.set("sim.replay_ns_per_access",
          replay_total * 1e9 / static_cast<double>(accesses), "ns");
    for (const auto& v : mix) {
      if (v.name == "lru" || v.name == "fifo" || v.name == "clock" ||
          v.name == "lfu" || v.name == "2q" || v.name == "mq" ||
          v.name == "arc") {
        m.set("cache." + v.name + ".replay_s",
              sum_of_medians(by_variant[v.name]), "s");
      }
    }
    sim_totals.set_layers(m);
    m.set("obs.explain_x",
          sum_of_medians(by_variant["explain"]) /
              sum_of_medians(by_variant["lru"]),
          "ratio");
    m.set("obs.trace_overhead_pct",
          100.0 * (sum_of_medians(traced_wall) / replay_total - 1.0), "%");
    m.set("resilience.degraded_replay_s", sum_of_medians(by_variant["faults"]),
          "s");
    m.set("resilience.retries", static_cast<double>(retries), "count");
    m.set("resilience.failovers", static_cast<double>(failovers), "count");
  }
  result.notes["operations"] = std::to_string(ops);
  result.notes["faults"] = faults;
  return result;
}

}  // namespace perfbench
