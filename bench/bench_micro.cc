// Microbenchmarks (google-benchmark) for the library's hot paths: tag
// operations, cache policy cores, the clustering stage and tagging.
//
// Supports the shared bench flag --json=<path> (written in the same
// format as the table/figure binaries) alongside the usual
// --benchmark_* flags.
#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "cache/policy.h"
#include "core/clustering.h"
#include "core/data_space.h"
#include "core/tagging.h"
#include "support/rng.h"
#include "workloads/registry.h"

namespace {

using namespace mlsc;

core::ChunkTag random_tag(Rng& rng, std::size_t bits, std::size_t width) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < bits; ++i) {
    out.push_back(static_cast<std::uint32_t>(rng.next_below(width)));
  }
  return core::ChunkTag::from_bits(std::move(out));
}

void BM_ChunkTagCommonBits(benchmark::State& state) {
  Rng rng(1);
  const auto a = random_tag(rng, state.range(0), 100000);
  const auto b = random_tag(rng, state.range(0), 100000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.common_bits(b));
  }
}
BENCHMARK(BM_ChunkTagCommonBits)->Arg(16)->Arg(256)->Arg(4096);

void BM_ClusterTagDot(benchmark::State& state) {
  Rng rng(2);
  core::ClusterTag a;
  core::ClusterTag b;
  for (int i = 0; i < 32; ++i) {
    a.add(random_tag(rng, state.range(0), 100000));
    b.add(random_tag(rng, state.range(0), 100000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.dot(b));
  }
}
BENCHMARK(BM_ClusterTagDot)->Arg(16)->Arg(256);

void BM_PolicyAccess(benchmark::State& state) {
  const auto kind = static_cast<cache::PolicyKind>(state.range(0));
  auto policy = cache::make_policy(kind, 512);
  Rng rng(3);
  for (auto _ : state) {
    const auto chunk = static_cast<cache::ChunkId>(rng.next_below(2048));
    if (!policy->touch(chunk)) policy->insert(chunk);
  }
}
BENCHMARK(BM_PolicyAccess)
    ->Arg(static_cast<int>(cache::PolicyKind::kLru))
    ->Arg(static_cast<int>(cache::PolicyKind::kFifo))
    ->Arg(static_cast<int>(cache::PolicyKind::kClock))
    ->Arg(static_cast<int>(cache::PolicyKind::kLfu))
    ->Arg(static_cast<int>(cache::PolicyKind::kTwoQ))
    ->Arg(static_cast<int>(cache::PolicyKind::kMq))
    ->Arg(static_cast<int>(cache::PolicyKind::kArc));

void BM_TaggingMadbench(benchmark::State& state) {
  const auto workload = workloads::make_workload("madbench2");
  const core::DataSpace space(workload.program, 64 * kKiB);
  const std::vector<poly::NestId> nests{0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::compute_iteration_chunks(workload.program, space, nests));
  }
}
BENCHMARK(BM_TaggingMadbench)->Unit(benchmark::kMillisecond);

void BM_ClusteringMerge(benchmark::State& state) {
  Rng rng(4);
  std::vector<core::IterationChunk> chunks;
  std::uint64_t pos = 0;
  for (int i = 0; i < state.range(0); ++i) {
    core::IterationChunk c;
    c.tag = random_tag(rng, 24, 4096);
    c.ranges = {poly::LinearRange{pos, pos + 50}};
    c.iterations = 50;
    pos += 50;
    chunks.push_back(std::move(c));
  }
  std::vector<std::uint32_t> ids(chunks.size());
  for (std::uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  for (auto _ : state) {
    auto working = chunks;
    auto clusters = core::make_singletons(ids, working);
    core::cluster_to_count(clusters, 16, working);
    benchmark::DoNotOptimize(clusters);
  }
}
BENCHMARK(BM_ClusteringMerge)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

// Console reporting plus a Table mirror of every run, so --json emits the
// shared bench JSON format instead of google-benchmark's own.
class TableReporter : public benchmark::ConsoleReporter {
 public:
  TableReporter()
      : table_({"name", "iterations", "real_time", "cpu_time", "time_unit"}) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      table_.add_row({run.benchmark_name(), std::to_string(run.iterations),
                      format_double(run.GetAdjustedRealTime(), 3),
                      format_double(run.GetAdjustedCPUTime(), 3),
                      benchmark::GetTimeUnitString(run.time_unit)});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const Table& table() const { return table_; }

 private:
  Table table_;
};

}  // namespace

int main(int argc, char** argv) {
  mlsc::bench::parse_common_flags(argc, argv);
  // Strip the shared flags before handing argv to google-benchmark, which
  // rejects arguments it does not recognize.
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--json=", 0) == 0 || arg.rfind("--trace=", 0) == 0 ||
        arg.rfind("--metrics=", 0) == 0) {
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  TableReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  mlsc::bench::queue_json_table(reporter.table(), "bench_micro");
  benchmark::Shutdown();
  return 0;
}
