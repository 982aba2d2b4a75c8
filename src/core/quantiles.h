// Data-oblivious quantile selection -- Theorem 17.
//
// Select the q quantiles of an N-record array (records at ranks
// round(j*N/(q+1)), j = 1..q) in O(N/B) I/Os for q <= (M/B)^{1/4},
// succeeding w.h.p.  This is the splitter-finding step of the Theorem 21
// sort.
//
// Dense case ((M/B)^4 > N/B): one deterministic oblivious sort of a scratch
// copy + a rank-capturing scan.
//
// Sparse case (the paper's main path):
//   1. Bernoulli(N^{-1/4}) sample, picked by public coins (core/sample.h):
//      one scan copies every picked cell of A into C, which is then
//      obliviously sorted (Lemma 14: C holds about N^{3/4} real records);
//   2. from C pick interval endpoints [x_j, y_j] around each target sample
//      rank (x_1 = -inf, y_q = +inf); each interval w.h.p. contains the j-th
//      quantile (Lemma 16) and covers <= 8 N^{3/4} records of A (Lemma 15);
//   3. one scan of A tags each record with its (first matching) interval and
//      privately counts, per interval, the records below x_j and inside
//      [x_j, y_j]; tagged shadow records (key = interval, value = sort key)
//      are consolidated and Theorem-4 compacted into D;
//   4. D is obliviously sorted by (interval, key); since all per-interval
//      counts are private, the j-th quantile sits at a privately computable
//      global rank of D, and one final scan captures all q of them.
// Step 4 replaces the paper's per-interval padded subarray + per-subarray
// selection with a single sorted-D scan -- same O(|D| polylog) budget,
// identical information flow (all branching on private counters), simpler.
//
// Padded input (the Theorem 21 recursion): N is then two numbers.  The
// PUBLIC bound `real_bound` sets the sampling rate and every array size, so
// the trace is the same for every input of the same shape; the PRIVATE count
// `real_records` sets only the target ranks.  A count above the bound is
// reported as a WhpFailure and never widens an array.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sparse_compact.h"
#include "extmem/client.h"
#include "util/status.h"

namespace oem::core {

struct QuantilesOptions {
  double interval_factor = 8.0;  // per-interval capacity: factor * N^{3/4}
  /// Paper mode uses the N^{1/2} rank slack and 8 N^{3/4} intervals of
  /// Lemmas 14-16, whose constants exceed N at laboratory sizes (the
  /// intervals then cover the whole array).  paper_intervals = false uses
  /// the Chernoff-tight c*sqrt(N p) slack and (2*slack+4)/p interval
  /// capacity instead -- same algorithm and trace structure, sized so the
  /// paper's linear-I/O shape is visible at benchmarkable N.
  bool paper_intervals = true;
  double chernoff_c = 4.0;
  /// Skip the dense-regime shortcut ((M/B)^4 > N/B => Lemma 2 sort) and run
  /// the sampling pipeline regardless.  The shortcut is the paper's own
  /// rule and stays on by default; benches force the sparse path to measure
  /// its shape inside the dense regime.
  bool force_sparse = false;
  SparseCompactOptions sparse;
  std::uint64_t base_case_records = 0;  // 0 = auto (M / 2)
  /// PUBLIC upper bound on the non-empty records of `a` (for padded arrays);
  /// 0 = num_records().  The sampling rate and every array size -- C, the
  /// interval capacity, D -- come from this bound.
  std::uint64_t real_bound = 0;
  /// PRIVATE number of non-empty records of `a`; 0 = real_bound.  It steers
  /// only Alice's rank arithmetic, so the trace is identical for any value.
  /// A count above real_bound is flagged WhpFailure.
  std::uint64_t real_records = 0;
};

struct QuantilesResult {
  std::vector<Record> quantiles;  // size q on success
  Status status;
};

/// Theorem 17.  Requires 1 <= q and q+1 <= N; the paper's regime is
/// q <= (M/B)^{1/4} (larger q still works here but loses the O(N/B) bound
/// because D grows).  `a` may hold empty cells only when opts.real_records
/// says how many records are real.
QuantilesResult oblivious_quantiles(Client& client, const ExtArray& a, std::uint64_t q,
                                    std::uint64_t seed,
                                    const QuantilesOptions& opts = {});

/// The target global ranks round(j*N/(q+1)), j = 1..q (shared with tests).
std::vector<std::uint64_t> quantile_ranks(std::uint64_t N, std::uint64_t q);

}  // namespace oem::core
