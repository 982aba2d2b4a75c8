// Data-oblivious selection -- Theorems 12 and 13.
//
// Find the k-th smallest record of an N-record array in O(N/B) I/Os,
// succeeding w.h.p.  The algorithm demonstrates the paper's headline point
// that copying/summation/random-hash primitives beat the Omega(n log log n)
// lower bound for compare-exchange-only selection networks (Leighton et al.):
//
//   1. mark each record distinguished with probability N^{-1/2} (coins,
//      data-independent); the coins pick the cells, so one scan copies the
//      sample into C of about sqrt(N) records, which is sorted (Lemma 2 on a
//      tiny array; core/sample.h);
//   2. read the sample ranks k/sqrt(N) -+ N^{3/8} to get a bracketing range
//      [x, y] that w.h.p. contains the k-th element and covers at most
//      8 N^{7/8} records of A (Lemmas 10-11);
//   3. one scan counts |{a < x}| and marks the in-band records, which are
//      compacted (Theorem 4 again) into D of 8 N^{7/8} records, sorted, and
//      scanned to emit the record of rank k - |{a < x}|.
//
// Every phase is a scan, a Theorem-4 compaction, or a small oblivious sort;
// the trace depends only on (N, M, B, seed).  Total order for ranks is
// (key, value) -- RecordLess -- so duplicate keys are handled exactly.
#pragma once

#include <cstdint>

#include "core/sparse_compact.h"
#include "extmem/client.h"
#include "util/status.h"

namespace oem::core {

struct SelectOptions {
  /// Band capacity factor: D holds band_factor * N^{7/8} records (paper: 8).
  double band_factor = 8.0;
  /// Sampling probability p = N^{-sample_exponent} (paper: 1/2).
  double sample_exponent = 0.5;
  /// Paper mode uses the N^{3/8} rank slack and 8 N^{7/8} band of Lemmas
  /// 10-11 -- asymptotically linear, but at laboratory N those constants
  /// exceed N itself and the band degenerates to the whole array.  With
  /// paper_band = false the slack is the Chernoff-tight c*sqrt(N p) and the
  /// band is (2*slack+4)/p records, which realizes the paper's *shape*
  /// (linear I/O) at benchmarkable sizes.  Same algorithm, same trace
  /// structure, same failure reporting.
  bool paper_band = true;
  double chernoff_c = 4.0;
  SparseCompactOptions sparse;
  /// Inputs of at most this many records are selected with one private scan.
  std::uint64_t base_case_records = 0;  // 0 = auto (M / 2)
};

/// Practical parameterization used by the shape benchmarks (see paper_band).
inline SelectOptions practical_select_options() {
  SelectOptions o;
  o.paper_band = false;
  o.sample_exponent = 0.25;
  return o;
}

struct SelectResult {
  Record value;
  Status status;
};

/// Theorem 13: k is a 1-based rank in [1, N]; all N records of `a` must be
/// non-empty.  Trace depends only on public parameters and the seed.
SelectResult oblivious_select(Client& client, const ExtArray& a, std::uint64_t k,
                              std::uint64_t seed, const SelectOptions& opts = {});

}  // namespace oem::core
