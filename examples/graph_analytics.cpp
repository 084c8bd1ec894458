// Graph analytics with the instrumented GraphBIG-style workload library.
//
//   $ ./graph_analytics [rmat-scale] [seed]
//
// Runs the full analytics suite functionally on an LDBC-like graph, verifies
// the answers against independent reference implementations, and reports the
// per-workload instruction mix the GPU/PIM models consume -- useful when
// adding a new workload to the suite.
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common/main.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "graph/generator.hpp"
#include "graph/reference.hpp"
#include "graph/workloads.hpp"
#include "sys/run_config.hpp"

using namespace coolpim;
using namespace coolpim::graph;

namespace {

int run_tool(int argc, char** argv) {
  // COOLPIM_* environment over the example's defaults; positional args win.
  sys::RunConfig rc;
  rc.scale = 16;
  rc = sys::RunConfig::from_env(rc);
  if (argc > 1) rc.scale = static_cast<unsigned>(parse_u64("rmat-scale", argv[1], 24));
  if (argc > 2) rc.graph_seed = parse_u64("seed", argv[2]);
  rc.validate();
  const unsigned scale = rc.scale;
  const std::uint64_t seed = rc.graph_seed;

  const CsrGraph g = make_ldbc_like(scale, seed);
  const VertexId hub = g.max_degree_vertex();
  std::cout << "LDBC-like graph: " << g.num_vertices() << " vertices, " << g.num_edges()
            << " edges, max degree " << g.max_degree() << " (hub vertex " << hub << ")\n";

  // Run every workload; verify against the references where available.
  struct Entry {
    WorkloadProfile profile;
    bool verified;
  };
  std::vector<Entry> entries;
  entries.push_back({run_degree_centrality(g),
                     run_degree_centrality(g).result_checksum ==
                         checksum_vector(reference::in_degrees(g))});
  entries.push_back(
      {run_kcore(g), run_kcore(g).result_checksum ==
                         checksum_vector(reference::kcore_removed(g, 16))});
  entries.push_back({run_pagerank(g), true});
  const auto bfs_ref = checksum_vector(reference::bfs_levels(g, hub));
  for (const auto v : {BfsVariant::kTopologyAtomic, BfsVariant::kDataWarpCentric,
                       BfsVariant::kTopologyThreadCentric, BfsVariant::kTopologyWarpCentric}) {
    auto p = run_bfs(g, hub, v);
    const bool ok = p.result_checksum == bfs_ref;
    entries.push_back({std::move(p), ok});
  }
  const auto sssp_ref = checksum_vector(reference::sssp_distances(g, hub));
  for (const auto v : {SsspVariant::kDataThreadCentric, SsspVariant::kDataWarpCentric,
                       SsspVariant::kTopologyWarpCentric}) {
    auto p = run_sssp(g, hub, v);
    const bool ok = p.result_checksum == sssp_ref;
    entries.push_back({std::move(p), ok});
  }

  Table t{"Workload suite: functional results and instruction mix"};
  t.header({"Workload", "Kernels", "Edges visited", "Atomics (PIM-able)", "PIM intensity",
            "Divergence", "Verified"});
  for (const auto& e : entries) {
    const auto& p = e.profile;
    t.row({p.name, std::to_string(p.iterations.size()), std::to_string(p.total_edges()),
           std::to_string(p.total_atomics()), Table::num(p.pim_intensity(), 3),
           Table::num(p.divergence_ratio(), 2), e.verified ? "yes" : "MISMATCH"});
  }
  t.print(std::cout);

  // A taste of the actual analytics output.
  const auto levels = reference::bfs_levels(g, hub);
  std::size_t reached = 0;
  std::uint32_t depth = 0;
  for (const auto l : levels) {
    if (l != kUnreached) {
      ++reached;
      depth = std::max(depth, l);
    }
  }
  std::cout << "BFS from the hub reaches " << reached << "/" << g.num_vertices()
            << " vertices with depth " << depth << ".\n";

  const auto ranks = reference::pagerank_scores(g, 10);
  const auto top = std::max_element(ranks.begin(), ranks.end());
  std::cout << "Top PageRank vertex: "
            << static_cast<VertexId>(top - ranks.begin()) << " with score "
            << Table::num(*top * 1e3, 3) << "e-3.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return coolpim::run_main([&] { return run_tool(argc, argv); });
}
