#include "inputs.hpp"

#include <stdexcept>
#include <unordered_set>

#include "graph/reference_bfs.hpp"
#include "graph/rmat.hpp"

namespace perfbench {

namespace graph = numabfs::graph;

graph::Csr make_graph(int scale, int edgefactor, graph::EdgePolicy policy,
                      Spans& spans, std::map<std::string, double>& comps,
                      Result* fp) {
  graph::RmatParams rp;
  rp.scale = scale;
  rp.edgefactor = edgefactor;
  rp.seed = kGraphSeed;
  std::vector<graph::Edge> edges;
  {
    Scope s(spans, "graph.rmat", &comps["graph.rmat_s"]);
    edges = graph::rmat_edges(rp);
  }
  graph::Csr csr;
  {
    Scope s(spans, "graph.csr", &comps["graph.csr_s"]);
    csr = graph::Csr::from_edges(rp.num_vertices(), edges, policy);
  }
  if (fp != nullptr) {
    Fingerprint fe;
    fe.add(edges.size());
    for (const graph::Edge& e : edges) fe.add(static_cast<std::uint64_t>(e.u) << 32 | e.v);
    Fingerprint fc;
    for (const std::uint64_t o : csr.offsets()) fc.add(o);
    for (const graph::Vertex v : csr.adj()) fc.add(v);
    fp->fingerprints["graph.edges"] = fe.hex();
    fp->fingerprints["graph.csr"] = fc.hex();
  }
  return csr;
}

std::vector<graph::Vertex> select_roots(const graph::Csr& g, std::uint64_t seed,
                                        int count) {
  const std::uint64_t n = g.num_vertices();
  graph::Vertex hub = 0;
  for (std::uint64_t v = 1; v < n; ++v)
    if (g.degree(static_cast<graph::Vertex>(v)) > g.degree(hub))
      hub = static_cast<graph::Vertex>(v);
  const graph::BfsTree giant = graph::reference_bfs(g, hub);
  std::vector<graph::Vertex> roots;
  std::unordered_set<graph::Vertex> taken;
  Rng rng(seed, /*stream=*/1);
  for (std::uint64_t tries = 0;
       roots.size() < static_cast<std::size_t>(count) && tries < 64 * n; ++tries) {
    const auto v = static_cast<graph::Vertex>(rng.next() % n);
    if (!giant.reached(v) || !taken.insert(v).second) continue;
    roots.push_back(v);
  }
  if (roots.size() != static_cast<std::size_t>(count))
    throw std::runtime_error("select_roots: not enough searchable vertices");
  return roots;
}

std::string digest(const std::vector<graph::Vertex>& vs) {
  Fingerprint f;
  f.add(vs.size());
  for (const graph::Vertex v : vs) f.add(v);
  return f.hex();
}

}  // namespace perfbench
