// The paper's worked example, end to end (§4.4, Figures 6-9 and 17):
// the 8-iteration-chunk loop over a 12-chunk disk-resident array, the
// Fig. 7 hierarchy (4 clients, 2 I/O nodes, 1 storage node), the tag
// table and similarity graph of Fig. 8, the hierarchical clustering of
// Fig. 9, the Fig. 17 schedule, and the per-client loops the compiler
// would emit.
//
// Run: ./build/examples/paper_example
#include <algorithm>
#include <iostream>
#include <numeric>

#include "core/client_codegen.h"
#include "core/clustering.h"
#include "core/pipeline.h"
#include "core/tagging.h"
#include "support/table.h"
#include "topology/hierarchy.h"

int main() {
  using namespace mlsc;

  // Figure 6's code fragment, d = 8 elements of 64 B per data chunk.
  // A[x] with x = i % d always lands in data chunk π0, so it is modelled
  // as the constant reference A[0] — the chunk-level footprint is
  // identical.
  constexpr std::int64_t d = 8;
  poly::Program program;
  program.name = "fig6";
  const auto a = program.add_array({"A", {12 * d}, 64});
  poly::LoopNest nest;
  nest.name = "fig6";
  nest.space = poly::IterationSpace({{0, 8 * d - 1}});
  nest.refs = {
      {a, poly::AccessMap::identity(1, {0}), /*is_write=*/true},  // A[i]
      {a, poly::AccessMap::from_matrix({{0}}, {0}), false},       // A[x]
      {a, poly::AccessMap::identity(1, {4 * d}), false},  // A[i+4d]
      {a, poly::AccessMap::identity(1, {2 * d}), false},  // A[i+2d]
  };
  program.add_nest(std::move(nest));
  program.validate();

  // Figure 7's storage cache hierarchy.
  auto tree = topology::make_layered_hierarchy(4, 2, 1, 4 * 64 * d,
                                               4 * 64 * d, 4 * 64 * d);
  std::cout << "Figure 7 hierarchy:\n" << tree.to_string() << "\n";

  // Figure 8: iteration chunks and tags.
  const core::DataSpace space(program, 64 * d);
  const std::vector<poly::NestId> nests{0};
  const auto tagging = core::compute_iteration_chunks(program, space, nests);
  Table tags({"chunk", "iterations", "tag"});
  for (std::size_t i = 0; i < tagging.chunks.size(); ++i) {
    const auto& chunk = tagging.chunks[i];
    tags.add_row({"γ" + std::to_string(i + 1),
                  "i = " + std::to_string(chunk.first_rank()) + " .. " +
                      std::to_string(chunk.first_rank() + chunk.iterations -
                                     1),
                  chunk.tag.to_string(space.num_chunks())});
  }
  std::cout << "Figure 8 tags:\n";
  tags.print(std::cout);

  // The similarity graph's edges, as the clustering stage scores them:
  // weight = common tag bits, zero-weight pairs omitted.
  std::vector<std::uint32_t> all(tagging.chunks.size());
  std::iota(all.begin(), all.end(), 0u);
  auto edges =
      core::score_clusters(core::make_singletons(all, tagging.chunks));
  std::sort(edges.begin(), edges.end(), [](const auto& x, const auto& y) {
    return x.u != y.u ? x.u < y.u : x.v < y.v;
  });
  std::cout << "\nFigure 8 similarity graph (edge weight = common data "
               "chunks):\n";
  for (const core::AffinityEdge& e : edges) {
    std::cout << "  γ" << e.u + 1 << " - γ" << e.v + 1 << ": " << e.score
              << "\n";
  }

  // Figures 9/17: map and schedule.
  core::PipelineOptions options;
  options.schedule = true;
  core::MappingPipeline pipeline(tree, options);
  const auto mapping = pipeline.run_all(program, space);

  std::cout << "\nFigure 9/17 assignment and schedule:\n";
  for (std::size_t c = 0; c < mapping.num_clients(); ++c) {
    std::cout << "  Compute Node " << c << ": ";
    for (std::size_t k = 0; k < mapping.client_work[c].size(); ++k) {
      const auto& item = mapping.client_work[c][k];
      if (k != 0) std::cout << ", ";
      std::cout << "γ" << (item.ranges.front().begin / d + 1);
    }
    std::cout << "\n";
  }

  std::cout << "\nGenerated per-client code (client 0):\n"
            << core::emit_client_source(program, mapping, 0);
  return 0;
}
