// Data-oblivious external-memory invertible Bloom lookup table over *blocks*
// (the paper's Theorem 4, applied "to blocks that are viewed as memory words
// for the external-memory model").
//
// Items are (block-index, block-content) pairs.  The table is two parallel
// external arrays:
//   meta:    2 records per cell -- {count, indexSum}, {checkSum, 0}
//   payload: 1 block per cell   -- word-wise sum of inserted block contents
//
// * build(): one pass over the input array.  For EVERY block i (distinguished
//   or not) the k cells h_1(i)..h_k(i) are read and rewritten (re-encrypted),
//   so the access sequence depends only on the indices -- the paper's §2
//   observation that IBLT insertion is oblivious to everything but the key.
//
// * extract(): decodes all entries into an output array of exactly
//   `capacity` blocks, sorted by original index (order-preserving).  Two
//   decode paths, chosen by public parameters only:
//     - in-cache peeling when the table fits in private memory (one scan in,
//       one scan out);
//     - external oblivious peeling otherwise: a fixed number of rounds, each
//       made of scans and deterministic oblivious unit-sorts (candidate
//       extraction -> dedupe -> update generation -> sorted apply with
//       last-of-group selection).  This replaces the paper's "simulate
//       listEntries under ORAM" step with a decoder whose accesses are
//       themselves input-independent, because a fixed-round sort-based
//       peel reaches the same output without paying an ORAM's polylog
//       overhead on every decode access.
#pragma once

#include <cstdint>
#include <functional>

#include "extmem/client.h"
#include "hash/khash.h"
#include "iblt/iblt.h"
#include "util/status.h"

namespace oem::iblt {

/// Predicate deciding whether block i (with the given plaintext content) is
/// distinguished.  Evaluated privately in Alice's cache; may be stateful
/// (e.g., Bernoulli sampling) but must not touch external memory.
using BlockPred = std::function<bool(std::uint64_t block_index, const BlockBuf& content)>;

struct ObliviousIbltOptions {
  IbltParams iblt;                 // k and cells-per-item sizing
  std::uint64_t decode_rounds = 0; // 0 = auto: 2*ceil(log2(capacity)) + 2
  bool force_external_decode = false;  // for tests: exercise path B even when small
};

class ObliviousBlockIblt {
 public:
  /// Table sized for up to `capacity` distinguished blocks.
  ObliviousBlockIblt(Client& client, std::uint64_t capacity,
                     const ObliviousIbltOptions& opts, std::uint64_t seed);
  ~ObliviousBlockIblt();

  ObliviousBlockIblt(const ObliviousBlockIblt&) = delete;
  ObliviousBlockIblt& operator=(const ObliviousBlockIblt&) = delete;

  std::uint64_t num_cells() const { return hashes_.cells(); }
  std::uint64_t capacity() const { return capacity_; }

  /// One oblivious pass over `a`: inserts (i, a[i]) for every distinguished
  /// block, touches (read + rewrite) the same cells for the others.
  void build(const ExtArray& a, const BlockPred& distinguished);

  /// Decode all entries into `out` (exactly `capacity` blocks, pre-allocated
  /// by the caller), in increasing original-index order, empty blocks after.
  /// Fails (WhpFailure) if peeling does not complete or more than `capacity`
  /// items were inserted.  On failure the contents of `out` are unspecified
  /// but the access trace is the same as on success.
  Status extract(const ExtArray& out);

 private:
  Status extract_in_cache(const ExtArray& out);
  Status extract_external(const ExtArray& out);
  bool decode_fits_in_cache() const;

  Client& client_;
  std::uint64_t capacity_;
  ObliviousIbltOptions opts_;
  hash::KHashFamily hashes_;
  ExtArray meta_;     // 2 records per cell
  ExtArray payload_;  // 1 block per cell
};

}  // namespace oem::iblt
