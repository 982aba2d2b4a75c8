// The Bernoulli sample of Theorems 12 and 17, picked by public coins.
//
// Selection and quantile selection both start by marking every record of A
// with probability p and sorting the marked ones.  The coins come from a
// seeded PRG that never sees the data, so the set of picked CELLS is a public
// schedule: one scan of A copies every picked cell -- empty or not -- into C,
// B cells per block, and C is then sorted (Lemma 2; empty cells sort last).
// A picked cell's place in C is fixed by the coins alone, so the paper's
// consolidate + Theorem 4 compaction of the sample has nothing left to do and
// is not run.  The trace depends only on (n, B, p, seed).
#pragma once

#include <cstdint>

#include "extmem/client.h"
#include "rng/random.h"

namespace oem::core {

struct CoinSample {
  ExtArray sorted;         // max(1, ceil(picked cells / B)) blocks, empties last
  std::uint64_t real = 0;  // picked non-empty records (Alice's private count)
};

/// Draws one Bernoulli(p) coin per cell of `a`, in cell order, and returns
/// the picked cells sorted.  Costs n reads + |C| writes + the sort of C.
CoinSample coin_sample(Client& client, const ExtArray& a, double p, rng::Xoshiro& coins);

}  // namespace oem::core
