// Butterfly-like compaction network -- Theorem 6 of the paper (Figure 1).
//
// Tight, order-preserving, *deterministic* compaction of the distinguished
// blocks of an n-block array using O((N/B) log_{M/B}(N/B)) I/Os, plus the
// reverse operation (order-preserving expansion), which the paper uses for
// failure sweeping and which we also use to build padded quantile buckets.
//
// Mechanics (paper §3): the network has ceil(log n) levels; an occupied cell
// at position j labeled with leftward distance d moves by (d mod 2^{i+1})
// in {0, 2^i} at level i.  Lemma 5 guarantees no two blocks ever collide.
// Distances for compaction are "number of empty cells to my left", computed
// by one scan.  Expansion is compaction run backwards: levels from the most
// significant down (also inside each window below), a cell moving right by
// bit i of its displacement at level i, so every intermediate layout is one
// a compaction passes through and stays collision-free.
//
// I/O efficiency: levels are processed in super-levels of g = Theta(log m)
// levels.  After t*g levels every remaining distance is a multiple of
// s = 2^{t*g}, so cells split into s independent strided subarrays; a
// sliding window of 2*2^{g_t} cells (cache-sized) routes g_t levels in one
// linear pass per subarray.  Total: O(n * ceil(log n / log m)) block I/Os --
// the paper's O((N/B) log_{M/B}(N/B)).
//
// Only the n real cells are routed; n is not padded to a power of two.  The
// subarray of residue rho holds the ceil((n - rho) / s) cells below n, and a
// one-cell subarray is skipped.  Compaction only moves cells leftward and
// expansion never past its output size, so a cell at index n or above would
// never be occupied: trimming drops only no-op I/O.  The scratch array holds
// 2n blocks (payload + metadata per cell).
//
// The trace depends only on (n, m): fully data-oblivious, no failure
// probability.
#pragma once

#include <cstdint>
#include <functional>

#include "extmem/client.h"

namespace oem::core {

/// Block-level distinguishing predicate, evaluated privately.
using BlockPredFn = std::function<bool(std::uint64_t block_index, const BlockBuf& content)>;

/// Block is distinguished iff its first record is non-empty (the convention
/// for consolidated arrays, where blocks are full-or-empty).
BlockPredFn block_nonempty_pred();

struct TightCompactResult {
  ExtArray out;               // n blocks: occupied prefix, then empty blocks
  std::uint64_t occupied = 0;  // number of distinguished blocks (private)
};

/// Theorem 6: tight order-preserving compaction of the distinguished blocks
/// of `a` into the prefix of a fresh n-block array.
TightCompactResult tight_compact_blocks(Client& client, const ExtArray& a,
                                        const BlockPredFn& pred);

/// Theorem 6 "in reverse": expansion.  Routes block i of `a` (for
/// i < count) to position target(i) of a fresh array of out_blocks blocks;
/// targets must be strictly increasing with target(i) >= i and
/// target(count-1) < out_blocks.  Other output blocks are empty.
ExtArray expand_blocks(Client& client, const ExtArray& a, std::uint64_t count,
                       std::uint64_t out_blocks,
                       const std::function<std::uint64_t(std::uint64_t)>& target);

/// Reference implementation for differential testing: compaction via the
/// deterministic oblivious sort of Lemma 2 (sort blocks by (empty, index)).
/// Costs a log^2 factor; used only by tests and the E3 baseline bench.
TightCompactResult tight_compact_by_sort(Client& client, const ExtArray& a,
                                         const BlockPredFn& pred);

/// Exact block I/O count of tight_compact_blocks on n blocks with an m-block
/// cache (copy-in, routing windows, copy-out); tests pin measured == this,
/// and sparse_compact_blocks uses it to choose a strategy.
std::uint64_t butterfly_predicted_ios(std::uint64_t n_blocks, std::uint64_t m_blocks);

}  // namespace oem::core
