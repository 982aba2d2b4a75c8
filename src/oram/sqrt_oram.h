// Square-root ORAM demonstrator (Goldreich-Ostrovsky style) with a pluggable
// oblivious-shuffle "inner loop".
//
// The paper's §1 claim: because oblivious sorting is the bottleneck of the
// periodic reshuffle in ORAM simulations, replacing the deterministic
// O((N/B) log^2_{M/B}(N/B)) sort (Lemma 2) with the randomized
// O((N/B) log_{M/B}(N/B)) sort (Theorem 21) improves the amortized I/O
// overhead of oblivious RAM simulation by a logarithmic factor.  This module
// makes that claim measurable: a concrete sqrt-ORAM whose epoch reshuffle is
// either sort, with per-access amortized I/O reported by bench E9.
//
// Protocol (read-oriented demo; values are a keyed function of the index so
// correctness is checkable):
//   * epoch layout: N + sqrt(N) cells, cell for virtual index v stored at
//     position pi_e(v) for a fresh pseudo-random permutation pi_e (Feistel);
//   * access(i): scan the stash (sqrt(N) records, external); if i was
//     already fetched this epoch, probe the next *dummy* position
//     pi_e(N + ctr), else probe pi_e(i); append to the stash;
//   * after sqrt(N) accesses: reshuffle -- retag every cell with pi_{e+1}
//     and obliviously sort by tag (this is the pluggable inner loop).
//
// Obliviousness: every probed position is fresh-uniform to Bob, the stash
// scan is a scan, and the reshuffle is an oblivious sort.
#pragma once

#include <cstdint>

#include "core/oblivious_sort.h"
#include "extmem/client.h"
#include "rng/permutation.h"
#include "util/status.h"

namespace oem::oram {

enum class ShuffleKind {
  kDeterministic,  // Lemma 2: external odd-even merge over runs
  kRandomized,     // Theorem 21: the paper's randomized oblivious sort
};

struct SqrtOramStats {
  std::uint64_t accesses = 0;
  std::uint64_t reshuffles = 0;
  std::uint64_t reshuffle_ios = 0;  // I/Os spent inside reshuffles
  std::uint64_t access_ios = 0;     // I/Os spent in the access protocol
};

class SqrtOram {
 public:
  SqrtOram(Client& client, std::uint64_t n_items, ShuffleKind kind,
           std::uint64_t seed);

  /// Oblivious read of virtual index i (0-based).  Returns the stored value.
  std::uint64_t access(std::uint64_t index);

  /// The value the ORAM stores for index i (for correctness checks).
  std::uint64_t expected_value(std::uint64_t index) const;

  const SqrtOramStats& stats() const { return stats_; }
  Status status() const { return status_; }
  std::uint64_t epoch_length() const { return sqrt_n_; }

 private:
  void reshuffle();

  Client& client_;
  std::uint64_t n_;
  std::uint64_t sqrt_n_;
  ShuffleKind kind_;
  std::uint64_t seed_;
  std::uint64_t epoch_ = 0;
  std::uint64_t used_ = 0;  // accesses in the current epoch
  ExtArray main_;           // n + sqrt_n records, position = PRP tag
  ExtArray stash_;          // sqrt_n records
  rng::FeistelPermutation prp_;
  SqrtOramStats stats_;
  Status status_;
};

}  // namespace oem::oram
