#pragma once
/// \file probes.hpp
/// Host-time layer probes: timed calls into the runtime's public collectives
/// and the codec's public encode/decode functions, at one workload's shape.
/// Each probe reports its value and the sample count behind it.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "graph/reference_bfs.hpp"
#include "runtime/cluster.hpp"

namespace perfbench {

/// runtime.spawn_ms (empty Cluster::run), runtime.barrier_us (Proc::barrier
/// on world) and runtime.allgather_ms (rt::allgather of `frontier_bits` of
/// frontier over world), measured on `c`. Medians over repeated runs.
void probe_runtime(numabfs::rt::Cluster& c, std::uint64_t frontier_bits,
                   Spans& spans, Result& res);

/// codec.encode_mbps / codec.decode_mbps: both bitmap encoders and the
/// decoder over `levels` (one frontier bitmap per BFS level, each `words`
/// long), cut into exchange chunks of `chunk_words`. Every decode is checked
/// against its input. Median MB/s (raw bitmap bytes per second) over reps.
void probe_codec(const std::vector<std::vector<std::uint64_t>>& levels,
                 std::uint64_t chunk_words, Spans& spans, Result& res);

/// Per-level frontier bitmaps (vertex v at depth d sets bit v of level d)
/// of a BFS. Depths are unique to the graph and root, so the reference BFS
/// gives the levels of every valid tree the program returns.
std::vector<std::vector<std::uint64_t>> level_bitmaps(
    const numabfs::graph::BfsTree& t, std::uint64_t padded_bits);

}  // namespace perfbench
