// Figure 12 — sensitivity to the (clients, I/O nodes, storage nodes)
// topology: normalized I/O and execution latencies of the
// inter-processor scheme under different configurations.
//
// Paper's trend: the benefits grow when either clients-per-I/O-node or
// I/O-nodes-per-storage-node grows (more sharing per cache), and the
// (128,32,16) configuration is the most favourable.
#include "bench/common.h"

int main(int argc, char** argv) {
  mlsc::bench::parse_common_flags(argc, argv);
  using namespace mlsc;
  // (w, x, y) node counts as in the paper's bar chart.
  const std::vector<std::array<std::size_t, 3>> topologies = {
      {64, 32, 16}, {64, 16, 16}, {64, 32, 8},
      {64, 16, 8},  {128, 32, 16},
  };
  // Topology sweeps default to the faster half of the suite so the whole
  // figure regenerates in minutes; set MLSC_BENCH_APPS to override.
  const auto apps = mlsc::bench::bench_apps(
      {"hf", "sar", "astro", "madbench2", "wupwise"});

  bench::print_header(
      "Figure 12: normalized I/O and execution latency vs topology "
      "(inter-processor, original = 1.0)",
      sim::MachineConfig::paper_default());

  Table table({"topology (w,x,y)", "I/O latency", "exec time"});
  for (const auto& [w, x, y] : topologies) {
    sim::MachineConfig machine = sim::MachineConfig::paper_default();
    machine.clients = w;
    machine.io_nodes = x;
    machine.storage_nodes = y;
    double io_sum = 0.0;
    double exec_sum = 0.0;
    for (const auto& name : apps) {
      const auto workload = workloads::make_workload(name);
      const auto orig =
          bench::run(workload, sim::SchemeSpec::original(), machine);
      const auto inter =
          bench::run(workload, sim::SchemeSpec::inter(), machine);
      io_sum += static_cast<double>(inter.io_latency) /
                static_cast<double>(orig.io_latency);
      exec_sum += static_cast<double>(inter.exec_time) /
                  static_cast<double>(orig.exec_time);
    }
    const auto n = static_cast<double>(apps.size());
    std::string label = "(";
    label.append(std::to_string(w)).append(",").append(std::to_string(x));
    label.append(",").append(std::to_string(y)).append(")");
    table.add_row_numeric(label, {io_sum / n, exec_sum / n}, 3);
  }
  bench::print_table(table);
  std::cout << "paper trend: improvements grow with w/x and x/y; "
               "(128,32,16) is the best case\n";
  return 0;
}
