// Deterministic data-oblivious external-memory sort -- the library's
// realization of the paper's Lemma 2 black box (Goodrich-Mitzenmacher).
//
// Structure: split the array into cache-sized runs of `m/2` blocks (the last
// run may be shorter), so a merge-split of two runs fits the private
// memory; sort each run privately (one linear pass); then run
// Batcher's odd-even merge network over the runs where each comparator is a
// *merge-split*: read both runs (at most m blocks, the cache budget), merge
// privately, write the lower half back to the first run and the upper half
// to the second.  By the standard 0-1-principle argument, replacing
// compare-exchange with merge-split in any sorting network sorts runs.  The
// network is trimmed to the real run count: comparators that would touch a
// padding run past the end are never emitted, and the sort runs in place.
//
// I/O cost: 2n for run formation plus 2 * (both run lengths) per emitted
// comparator.  For r = 2^p runs the network has (p^2 - p + 4) 2^{p-2} - 1
// comparators, so the sort costs n (p^2 - p + 6) - 4n/r block I/Os --
// O((N/B) log^2 (N/(M/2))), the deterministic polylog-over-linear shape that
// Theorem 21's randomized sort beats by a log factor (benchmark E8).  The
// access sequence depends only on (n, m): fully data-oblivious.
#pragma once

#include <cstdint>
#include <functional>

#include "extmem/client.h"
#include "extmem/record.h"

namespace oem::sortnet {

/// Sorts all records of `a` (all `num_blocks * B` cells; empty cells compare
/// greater than every real key and collect at the end).  Deterministic and
/// data-oblivious; never fails.
void ext_oblivious_sort(Client& client, const ExtArray& a);

/// Sort a contiguous region of blocks [first, first+count) of `a` entirely
/// inside the private cache (count <= m required): one read pass, a private
/// sort, one write pass.  The trace is a scan -- oblivious.  Used for the
/// paper's polylog-sized region sorts (Theorem 8) where the wide-block /
/// tall-cache assumptions guarantee the region fits in memory.
void sort_region_in_cache(Client& client, const ExtArray& a,
                          std::uint64_t first_block, std::uint64_t count_blocks);

/// As above but with an arbitrary comparator over records.
void sort_region_in_cache(Client& client, const ExtArray& a,
                          std::uint64_t first_block, std::uint64_t count_blocks,
                          const std::function<bool(const Record&, const Record&)>& less);

/// Predicted I/O count of ext_oblivious_sort for given (n, m) in blocks;
/// used by tests to pin the cost model and by EXPERIMENTS.md.
std::uint64_t ext_sort_predicted_ios(std::uint64_t n_blocks, std::uint64_t m_blocks);

/// Oblivious sort of fixed-size *units* of `unit_blocks` blocks each.  The
/// sort key of a unit is record 0 of its first block, ordered by RecordLess
/// (so units whose key is the empty sentinel act as padding and collect at
/// the end).  The array must be a whole number of units.  Used by the
/// oblivious IBLT decoder, whose items (cell snapshots, update records,
/// staged outputs) are multi-block values with a routing key in front.
void ext_oblivious_unit_sort(Client& client, const ExtArray& a,
                             std::uint64_t unit_blocks);

}  // namespace oem::sortnet
