// Multi-way data consolidation + "shuffle-and-deal" distribution -- the
// distribution machinery of the Theorem 21 sort (paper §5).
//
// * multiway_consolidate: scan groups of (q+1) blocks, bucketing records by
//   color privately; each group emits exactly q+1 output blocks (full
//   monochromatic blocks, padded with empties) so the emission pattern is
//   data-independent; a fixed-size tail flushes the leftovers.  Alice's
//   buffer stays below ~3(q+1) blocks (pigeonhole on the emission quota).
//
// * shuffle_blocks: Knuth/Fisher-Yates shuffle of the blocks.  Bob watches
//   every swap, but the swap indices are coins -- the "shuffle" half of the
//   paper's Valiant-Brebner-style trick, which breaks up color hot spots.
//
// * deal: read the shuffled array in batches of ~(M/B)^{3/4} blocks; per
//   batch write exactly `quota` block slots to every color array (real
//   blocks first, empty padding after).  Lemma 18 / Corollary 19: w.h.p. no
//   batch holds more than the quota of any one color, so nothing is dropped.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "extmem/client.h"
#include "rng/random.h"
#include "util/status.h"

namespace oem::core {

/// Color classifier over records, evaluated privately; must return a value
/// in [0, num_colors) for non-empty records.  May be randomized (the sort
/// uses coin tie-breaking between equal-key records).
using ColorFn = std::function<unsigned(const Record&)>;

struct MultiwayResult {
  ExtArray out;  // groups*(q+1) + 4*(q+1) blocks, monochromatic full/empty
  std::vector<std::uint64_t> color_records;  // per-color record counts (private)
  Status status;
};

/// (q+1)-way consolidation of `a`.  Every non-empty output block is full of
/// same-colored records except the fixed tail region, which holds one
/// partial block per color.
MultiwayResult multiway_consolidate(Client& client, const ExtArray& a,
                                    unsigned num_colors, const ColorFn& color_of);

/// In-place Fisher-Yates shuffle of all blocks of `a` (4 I/Os per step; swap
/// indices are data-independent coins).
void shuffle_blocks(Client& client, const ExtArray& a, rng::Xoshiro& coins);

struct DealOptions {
  /// Batch size in blocks; 0 = auto: clamp((M/B)^{3/4}, colors, M/B / 2).
  std::uint64_t batch_blocks = 0;
  /// Per-batch per-color slot quota; 0 = auto: mean + 4*sqrt(mean) + 4,
  /// the practical form of Lemma 18's c*(M/B)^{1/2}, where mean =
  /// batch * density / colors and density is the public share of input
  /// blocks that can be non-empty (see deal_blocks).
  std::uint64_t quota = 0;
};

struct DealResult {
  std::vector<ExtArray> colors;  // one array per color, batches*quota blocks
  std::uint64_t batch_blocks = 0;
  std::uint64_t quota = 0;
  std::uint64_t overflow_drops = 0;  // blocks dropped by quota overflow (whp 0)
  Status status;
};

/// The "deal": distribute the (shuffled, monochromatic) blocks of `a` to
/// per-color arrays with padded per-batch writes.  `nonempty_blocks` is a
/// PUBLIC upper bound on the non-empty blocks of `a` (0 = all of them); a
/// padded input then gets a proportionally smaller quota.
DealResult deal_blocks(Client& client, const ExtArray& a, unsigned num_colors,
                       const ColorFn& color_of, const DealOptions& opts = {},
                       std::uint64_t nonempty_blocks = 0);

}  // namespace oem::core
