#pragma once
/// \file inputs.hpp
/// Input construction shared by the workloads: the R-MAT graph (generated
/// by the program's graph layer, because its cost is part of set-up, and
/// fingerprinted so a program change cannot silently swap the input) and
/// the seeded Graph500-style root selection done in the benchmark's own code.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph/csr.hpp"

namespace perfbench {

/// The graph seed is fixed: the --seed of a run selects roots, queries and
/// mutations on one pinned graph per workload.
inline constexpr std::uint64_t kGraphSeed = 20120924;

/// Seed of the fixed arrival traces (open-loop gaps, query kinds). Latency
/// tails are decided by a handful of bursts, so the trace stays the same for
/// every --seed; the seed draws the vertices the program works on.
inline constexpr std::uint64_t kTraceSeed = 20121024;

/// Generate the R-MAT edge list and its CSR, timing each step into
/// `comps` ("graph.rmat_s", "graph.csr_s"). When `fp` is given, the edge
/// list and CSR fingerprints are recorded there ("graph.edges",
/// "graph.csr").
numabfs::graph::Csr make_graph(int scale, int edgefactor,
                               numabfs::graph::EdgePolicy policy,
                               Spans& spans, std::map<std::string, double>& comps,
                               Result* fp);

/// `count` distinct roots, hash-walked from `seed`, in the component of the
/// highest-degree vertex. Graph500 only asks for degree > 0, but a root in
/// one of R-MAT's tiny components scores a TEPS near zero, and one such root
/// decides the harmonic mean of the whole batch.
std::vector<numabfs::graph::Vertex> select_roots(const numabfs::graph::Csr& g,
                                                 std::uint64_t seed, int count);

/// Digest of a vertex list (stream fingerprints).
std::string digest(const std::vector<numabfs::graph::Vertex>& vs);

}  // namespace perfbench
