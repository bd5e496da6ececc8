// One simulated replay's outcome, its correctness checks, and the
// simulated totals a workload reports.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/mapping.h"
#include "harness.h"
#include "poly/loop_nest.h"
#include "sim/engine.h"
#include "sim/experiment.h"

namespace perfbench {

struct CaseOutcome {
  mlsc::core::MappingResult mapping;
  mlsc::sim::EngineResult engine;
  std::vector<mlsc::sim::LevelMovement> movement;
  std::size_t clients = 0;
};

/// The mapping partitions every nest's iterations, plus check_engine.
void check_case(Checks& checks, const CaseOutcome& out,
                const mlsc::poly::Program& program);

/// Stall components sum to io_time_total, and the I/O lower bound never
/// exceeds the bytes moved at any level.
void check_engine(Checks& checks, const mlsc::sim::EngineResult& engine,
                  const std::vector<mlsc::sim::LevelMovement>& movement);

/// Two replays produced the same simulated counts and times.
bool same_simulation(const CaseOutcome& a, const CaseOutcome& b);

/// Per-span median over repeated traced runs of one case.
SpanTotals median_spans(const std::vector<SpanTotals>& samples);

/// Simulated sums over a workload's reported replays.
struct SimTotals {
  double exec_ns = 0, io_ns = 0, pause_ns = 0;
  std::uint64_t accesses[3] = {0, 0, 0};
  std::uint64_t misses[3] = {0, 0, 0};
  std::uint64_t bound[3] = {0, 0, 0};
  std::uint64_t moved[3] = {0, 0, 0};
  std::uint64_t writeback_bytes = 0;
  double disk_ns = 0, disk_queue_ns = 0, shared_cache_ns = 0;
  double exec_vs_original = 0;

  void add(const CaseOutcome& out);
  double miss_pct(int level) const;
  double headroom_pct(int level) const;
  /// sim_exec_s ... pause_s.
  void set_e2e(Metrics& m) const;
  /// cache.l*_misses, writeback, io.*, obs.headroom_l2/l3.
  void set_layers(Metrics& m) const;
  /// Both sets into the exact map.
  void export_exact(std::map<std::string, double>& exact) const;
};

}  // namespace perfbench
