// Randomized data-oblivious external-memory sorting -- Theorem 21, the
// paper's main result: O((N/B) log_{M/B}(N/B)) I/Os, success w.h.p.
//
// Pipeline per recursion node (paper §5):
//   1. splitters: q = (M/B)^{1/4} quantiles (Theorem 17), sized from the
//      node's PUBLIC bound on its real records (the private count steers
//      only rank arithmetic);
//   2. coloring: each record gets a color in [0, q]; records equal to a
//      splitter key are spread uniformly among the eligible colors (coin
//      tie-breaking) so duplicate-heavy inputs still balance -- the output
//      order is therefore nondecreasing by KEY (ties in arbitrary value
//      order);
//   3. multi-way consolidation into monochromatic blocks;
//   4. shuffle-and-deal: Fisher-Yates on blocks, then batched padded
//      distribution to q+1 color arrays (Lemmas 18/19), the per-batch quota
//      scaled by the public share of blocks that can be non-empty;
//   5. loose compaction of each color array (Theorem 8) back to
//      5x its real content;
//   6. recursion on each color; a deterministic leaf keeps only the
//      ceil(bound/B) + 2 leading blocks of its sorted output (the rest is
//      padding) and reports a WhpFailure if its records do not fit;
//   7. failure sweeping: the level always runs a fixed-trace sweep sized for
//      up to two failed children -- conditional copies of the failed
//      children's *inputs* into fixed sweep slots, a deterministic oblivious
//      sort (Lemma 2) of each slot, and conditional copy-back.  Zero
//      failures sweep empty slots with an identical trace.  Levels without
//      a sweep size their slices by their children's outputs only.
//
// Every array size is a function of public parameters -- (n, M, B, the
// top-level N, seed) -- and each node's bound on its real records is derived
// from N alone, so the trace is data-independent at every depth.
//
// Recursion returns a *padded sorting* (the paper's inductive contract: an
// O(N)-size array whose non-empty cells are in nondecreasing key order);
// the public entry point finishes with Lemma 3 consolidation + Theorem 6
// tight compaction to hand back a dense sorted array.
#pragma once

#include <cstdint>

#include "core/loose_compact.h"
#include "core/quantiles.h"
#include "core/shuffle_deal.h"
#include "extmem/client.h"
#include "util/status.h"

namespace oem::core {

struct ObliviousSortOptions {
  QuantilesOptions quantiles;
  LooseCompactOptions loose;
  DealOptions deal;
  /// Multiplier on the sqrt-scale additive slack of the per-color bound
  /// (covers quantile rank error + duplicate-key spreading variance).
  double color_slack = 1.6;
  /// Children a level can repair via failure sweeping (paper: O(n^{1/4});
  /// two is plenty at our whp rates and keeps the sweep linear).
  unsigned sweep_slots = 2;
  /// Depth guard; beyond it the deterministic sort finishes the job.
  unsigned max_depth = 24;
  /// Fall back to the deterministic Lemma 2 sort when n <= base_factor * m
  /// or (M/B)^4 >= N/B (the paper's dense regime).
  std::uint64_t min_recursive_blocks = 0;  // 0 = auto: 4 * m
  /// The paper's dense-regime rule: recursion only engages when
  /// (M/B)^4 < N/B.  At laboratory scale that regime is unreachable, so the
  /// shape benches disable the rule (recursion then engages whenever
  /// n > min_recursive_blocks and q >= 2).
  bool paper_dense_rule = true;
  /// Force the sparse quantile pipeline inside recursion (see
  /// QuantilesOptions::force_sparse).
  bool sparse_quantiles = false;
  /// Failure injection for tests: at sweep-active levels, children whose
  /// index bit is set here are treated as failed sorts even when they
  /// succeeded, forcing the failure-sweeping machinery to repair them.
  unsigned debug_fail_children_mask = 0;
};

/// Block I/Os per phase, from client I/O-counter deltas (observing them
/// issues no I/O).  The phases partition the sort: they sum to its total.
struct SortPhaseIos {
  std::uint64_t quantiles = 0;     // occupancy scan + Theorem 17, every node
  std::uint64_t distribution = 0;  // multiway consolidation, shuffle, deal
  std::uint64_t compaction = 0;    // step 5: Theorem 8, or the Theorem 6 fallback
  std::uint64_t leaf_sorts = 0;    // deterministic leaves (copy + Lemma 2)
  std::uint64_t assembly = 0;      // level assembly + failure sweep
  std::uint64_t finish = 0;        // Lemma 3 + Theorem 6 + copy-back (oblivious_sort)
  std::uint64_t total() const {
    return quantiles + distribution + compaction + leaf_sorts + assembly + finish;
  }
};

struct SortStats {
  unsigned levels = 0;            // deepest recursion level reached
  std::uint64_t nodes = 0;        // recursion nodes executed
  std::uint64_t det_sort_nodes = 0;  // nodes resolved by Lemma 2 / in-cache sort
  std::uint64_t sweep_repairs = 0;   // children repaired by failure sweeping
  std::uint64_t child_failures = 0;  // child statuses that arrived non-ok
  std::uint64_t quantile_tails = 0;  // quantile whp-tail events (harmless unless
                                     // they cause a capacity overflow downstream)
  SortPhaseIos phase_ios;
};

struct ObliviousSortResult {
  Status status;
  SortStats stats;
};

/// Theorem 21.  Sorts `a` in place: afterwards the non-empty records of `a`
/// are in nondecreasing key order, followed by the empty cells.  The trace
/// depends only on (n, M, B, seed).  On WhpFailure the array contents are
/// unspecified; retry with a different seed.
ObliviousSortResult oblivious_sort(Client& client, const ExtArray& a,
                                   std::uint64_t seed,
                                   const ObliviousSortOptions& opts = {});

/// The recursive core: produces a *padded sorting* of `a` into a freshly
/// allocated array (size is a deterministic function of a.num_blocks()).
/// Exposed for tests and the ORAM reshuffle.
ObliviousSortResult oblivious_sort_padded(Client& client, const ExtArray& a,
                                          ExtArray* out, std::uint64_t seed,
                                          const ObliviousSortOptions& opts = {});

}  // namespace oem::core
