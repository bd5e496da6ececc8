// churn: the online service's incremental path.  Set-up generates the
// seeded stream and bootstraps a service with its initial
// registrations; the bootstrapped placement of the resident tenants is
// replayed on the simulator (against the original scheme) for the
// simulated metrics; the timed phase replays the churn events through
// MappingService::process one at a time.
#include <deque>
#include <memory>

#include "churn_gen.h"
#include "core/pipeline.h"
#include "harness.h"
#include "outcome.h"
#include "serve/service.h"
#include "sim/trace.h"
#include "support/stats.h"

namespace perfbench {

namespace {

using mlsc::serve::MappingService;
using mlsc::serve::RemapScope;

struct Prepared {
  std::unique_ptr<MappingService> service;
  ChurnStream stream;
  double generate_s = 0;
  double bootstrap_s = 0;
};

Prepared prepare(const Options& options, const ChurnParams& params,
                 const mlsc::serve::ServiceOptions& service_options) {
  Prepared p;
  p.generate_s = timed(
      [&] { p.stream = generate_churn_stream(options.seed, params); });
  p.bootstrap_s = timed([&] {
    p.service = std::make_unique<MappingService>(service_options);
    for (const auto& event : p.stream.bootstrap) p.service->process(event);
  });
  return p;
}

const char* scope_key(RemapScope scope) {
  return mlsc::serve::remap_scope_name(scope);
}

/// The resident tenants' replays: each under the service's placement
/// and, for the exec ratio, under the original scheme on the same
/// machine.
struct Residents {
  SimTotals sim;
  double map_s = 0, trace_s = 0, replay_s = 0;
  std::uint64_t accesses = 0, chunks = 0;
};

Residents replay_residents(const mlsc::serve::MappingState& state,
                           Checks& checks) {
  Residents r;
  std::vector<double> ratios;
  const mlsc::sim::MachineConfig& machine = state.machine();
  mlsc::core::PipelineOptions original;
  original.mapper = mlsc::core::MapperKind::kOriginal;
  original.intra.client_cache_bytes = machine.client_cache_bytes;
  auto replay = [&](const mlsc::workloads::Workload& workload,
                    const mlsc::core::DataSpace& space,
                    mlsc::core::MappingResult mapping) {
    CaseOutcome out;
    out.mapping = std::move(mapping);
    mlsc::sim::Trace trace;
    r.trace_s += timed([&] {
      trace = mlsc::sim::generate_trace(workload.program, space, out.mapping);
    });
    r.replay_s += timed([&] {
      out.engine =
          mlsc::sim::run_engine(trace, out.mapping, machine, state.tree());
    });
    out.movement = mlsc::sim::movement_vs_bound(workload, machine, out.engine);
    out.clients = state.tree().num_clients();
    r.accesses += out.engine.accesses;
    check_case(checks, out, workload.program);
    return out;
  };
  for (const auto& app : churn_apps()) {
    const std::size_t widx = state.find_live(resident_id(app));
    checks.begin("bootstrap-state replay " + resident_id(app));
    checks.expect(widx != static_cast<std::size_t>(-1),
                  "resident tenant missing");
    if (widx == static_cast<std::size_t>(-1)) {
      checks.end();
      continue;
    }
    const auto& workload = state.entries()[widx].workload;
    const mlsc::core::DataSpace space(workload.program,
                                      machine.chunk_size_bytes);
    mlsc::core::MappingResult baseline;
    r.map_s += timed([&] {
      baseline = mlsc::core::MappingPipeline(state.tree(), original)
                     .run_all(workload.program, space);
    });
    const CaseOutcome orig = replay(workload, space, std::move(baseline));
    const CaseOutcome served =
        replay(workload, space, state.entry_mapping(widx));
    checks.end();
    r.sim.add(served);
    r.chunks += served.mapping.chunk_table.size();
    ratios.push_back(static_cast<double>(served.engine.exec_time) /
                     static_cast<double>(orig.engine.exec_time));
  }
  r.sim.exec_vs_original = mlsc::geomean_of(ratios);
  return r;
}

}  // namespace

RunResult run_churn(const Options& options) {
  RunResult result;
  const ChurnParams params = churn_params(options.quick);
  mlsc::serve::ServiceOptions service_options;
  service_options.machine = seeded_machine(options.seed);
  service_options.machine.clients = params.clients;
  service_options.machine.io_nodes = params.io_nodes;
  service_options.machine.storage_nodes = params.storage_nodes;
  service_options.num_threads = options.threads != 0 ? options.threads : 1;
  service_options.seed = options.seed;
  service_options.state.tagging.max_iteration_chunks = params.max_chunks;

  // Set-up, repeated: each repetition's service serves one timed pass.
  std::deque<Prepared> ready;
  std::vector<double> setup_samples, bootstrap_samples;
  for (int i = 0; i < (options.quick ? 1 : 3); ++i) {
    ready.push_back(prepare(options, params, service_options));
    setup_samples.push_back(ready.back().generate_s +
                            ready.back().bootstrap_s);
    bootstrap_samples.push_back(ready.back().bootstrap_s);
  }

  // The bootstrapped state on the simulator.  The bootstrap is the same
  // for every seed, so these replays do not depend on the churn the seed
  // draws.
  Residents residents =
      replay_residents(ready.front().service->state(), result.checks);

  // Timed phase: whole passes over the stream until --seconds elapse; a
  // traced run alternates untraced and traced passes.
  std::vector<double> event_ms, pass_s, traced_pass_s;
  std::map<std::string, std::vector<double>> scope_ms;
  std::vector<SpanTotals> span_samples;
  std::vector<RemapScope> first_scopes;
  std::string first_fingerprint;
  std::unique_ptr<MappingService> last;
  const auto timed_start = Clock::now();
  std::size_t passes = 0;
  do {
    for (const bool trace_pass : {false, true}) {
      if (trace_pass && !options.trace) continue;
      if (ready.empty()) {
        ready.push_back(prepare(options, params, service_options));
        bootstrap_samples.push_back(ready.back().bootstrap_s);
      }
      Prepared p = std::move(ready.front());
      ready.pop_front();
      std::vector<RemapScope> scopes;
      auto run_pass = [&] {
        for (std::size_t i = 0; i < p.stream.events.size(); ++i) {
          const auto& event = p.stream.events[i];
          result.checks.begin("event " + std::to_string(i));
          const auto start = Clock::now();
          try {
            scopes.push_back(p.service->process(event).scope);
          } catch (const std::exception& e) {
            scopes.push_back(RemapScope::kNone);
            result.checks.expect(false, e.what());
          }
          const double ms = seconds_since(start) * 1e3;
          if (!trace_pass) {
            event_ms.push_back(ms);
            scope_ms[scope_key(scopes.back())].push_back(ms);
          }
          if (!first_scopes.empty()) {
            result.checks.expect(scopes.back() == first_scopes[i],
                                 "decision differs from pass 1");
          }
          result.checks.end();
        }
      };
      if (trace_pass) {
        const auto start = Clock::now();
        span_samples.push_back(traced(options.trace_file, run_pass));
        traced_pass_s.push_back(seconds_since(start));
      } else {
        pass_s.push_back(timed(run_pass));
      }
      result.checks.begin("end state");
      try {
        p.service->state().check_invariants();
      } catch (const std::exception& e) {
        result.checks.expect(false, std::string("invariants: ") + e.what());
      }
      const std::string fingerprint = p.service->state().fingerprint();
      if (first_scopes.empty()) {
        first_scopes = scopes;
        first_fingerprint = fingerprint;
      } else {
        result.checks.expect(fingerprint == first_fingerprint,
                             "end state differs from pass 1");
      }
      result.checks.end();
      last = std::move(p.service);
    }
    ++passes;
  } while (another_pass(options, passes, seconds_since(timed_start)));

  SimTotals& sim = residents.sim;
  sim.pause_ns = static_cast<double>(last->total_pause());
  sim.export_exact(result.exact);

  std::size_t counts[4] = {0, 0, 0, 0};
  for (const RemapScope scope : first_scopes) {
    counts[static_cast<std::size_t>(scope)]++;
  }
  mlsc::serve::DeltaStats delta;
  const auto& decisions = last->decisions();
  for (std::size_t i = params.bootstrap; i < decisions.size(); ++i) {
    delta += decisions[i].delta;
  }
  result.exact["decisions_patch"] = static_cast<double>(counts[1]);
  result.exact["decisions_partial"] = static_cast<double>(counts[2]);
  result.exact["decisions_full"] = static_cast<double>(counts[3]);

  Metrics& m = result.metrics;
  if (!options.trace) {
    m.set("setup_s", median_of(setup_samples), "s");
    m.set("total_s", median_of(pass_s), "s");
    m.set("peak_rss_mib", peak_rss_mib(), "MiB");
    set_latency_metrics(result, event_ms);
    sim.set_e2e(m);
  } else {
    m.set("core.map_s", residents.map_s, "s");
    add_core_span_metrics(m, median_spans(span_samples));
    m.set("core.iteration_chunks", static_cast<double>(residents.chunks),
          "count");
    m.set("sim.trace_s", residents.trace_s, "s");
    m.set("sim.replay_s", residents.replay_s, "s");
    m.set("sim.accesses", static_cast<double>(residents.accesses),
          "count");
    m.set("sim.replay_ns_per_access",
          residents.replay_s * 1e9 /
              static_cast<double>(residents.accesses),
          "ns");
    m.set("cache.lru.replay_s", residents.replay_s, "s");
    sim.set_layers(m);
    m.set("obs.trace_overhead_pct",
          100.0 * (median_of(traced_pass_s) / median_of(pass_s) - 1.0), "%");
    m.set("serve.bootstrap_s", median_of(bootstrap_samples), "s");
    m.set("serve.patch_ms", median_of(scope_ms["patch"]), "ms");
    m.set("serve.partial_ms", median_of(scope_ms["partial"]), "ms");
    m.set("serve.full_ms", median_of(scope_ms["full"]), "ms");
    m.set("serve.decisions_patch", static_cast<double>(counts[1]), "count");
    m.set("serve.decisions_partial", static_cast<double>(counts[2]), "count");
    m.set("serve.decisions_full", static_cast<double>(counts[3]), "count");
    m.set("serve.scored_pairs", static_cast<double>(delta.scored_pairs),
          "count");
    m.set("serve.forest_hooks", static_cast<double>(delta.forest_hooks),
          "count");
    m.set("serve.standing_chunks",
          static_cast<double>(last->state().standing_chunks()), "count");
  }
  result.notes["passes"] = std::to_string(passes);
  result.notes["events"] = std::to_string(params.events);
  result.notes["decisions"] = "patch=" + std::to_string(counts[1]) +
                              " partial=" + std::to_string(counts[2]) +
                              " full=" + std::to_string(counts[3]) +
                              " none=" + std::to_string(counts[0]);
  return result;
}

}  // namespace perfbench
