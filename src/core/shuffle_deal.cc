#include "core/shuffle_deal.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>

#include "rng/permutation.h"
#include "util/math.h"

namespace oem::core {

MultiwayResult multiway_consolidate(Client& client, const ExtArray& a,
                                    unsigned num_colors, const ColorFn& color_of) {
  MultiwayResult res;
  const std::size_t B = client.B();
  const std::uint64_t n = a.num_blocks();
  const unsigned C = std::max(1u, num_colors);
  res.color_records.assign(C, 0);

  const std::uint64_t groups = ceil_div(std::max<std::uint64_t>(n, 1), C);
  const std::uint64_t tail_blocks = 4ull * C;
  res.out = client.alloc_blocks(groups * C + tail_blocks, Client::Init::kUninit);

  CacheLease lease(client.cache(), (4ull * C + 2) * B);
  std::vector<std::deque<Record>> buckets(C);
  BlockBuf blk, outblk(B);
  const BlockBuf empty = make_empty_block(B);
  std::uint64_t out_pos = 0;

  auto emit_full_or_empty = [&]() {
    // Emit one output block: a full monochromatic block if any bucket can
    // fill one, else an empty block.  Which case occurred is invisible: both
    // are one write of fresh ciphertext.
    for (unsigned c = 0; c < C; ++c) {
      if (buckets[c].size() >= B) {
        for (std::size_t r = 0; r < B; ++r) {
          outblk[r] = buckets[c].front();
          buckets[c].pop_front();
        }
        client.write_block(res.out, out_pos++, outblk);
        return;
      }
    }
    client.write_block(res.out, out_pos++, empty);
  };

  std::uint64_t in_pos = 0;
  for (std::uint64_t g = 0; g < groups; ++g) {
    for (unsigned gi = 0; gi < C; ++gi) {
      if (in_pos < n) {
        client.read_block(a, in_pos++, blk);
        for (const Record& r : blk) {
          if (r.is_empty()) continue;
          const unsigned c = color_of(r);
          assert(c < C);
          buckets[c].push_back(r);
          ++res.color_records[c];
        }
      }
      // One emission per input slot keeps output position data-independent.
      emit_full_or_empty();
    }
  }

  // Fixed-size tail flush: enough slots for every bucket's leftovers
  // (bounded by the pigeonhole argument in the header).
  for (std::uint64_t t = 0; t < tail_blocks; ++t) {
    // Prefer full blocks, then partials, then empties.
    unsigned pick = C;
    for (unsigned c = 0; c < C; ++c)
      if (buckets[c].size() >= B) { pick = c; break; }
    if (pick == C) {
      for (unsigned c = 0; c < C; ++c)
        if (!buckets[c].empty()) { pick = c; break; }
    }
    if (pick < C) {
      outblk = empty;
      for (std::size_t r = 0; r < B && !buckets[pick].empty(); ++r) {
        outblk[r] = buckets[pick].front();
        buckets[pick].pop_front();
      }
      client.write_block(res.out, out_pos++, outblk);
    } else {
      client.write_block(res.out, out_pos++, empty);
    }
  }
  for (unsigned c = 0; c < C; ++c) {
    if (!buckets[c].empty()) {
      res.status.Update(Status::CapacityExceeded(
          "multiway consolidation tail overflow (buffer bound violated)"));
    }
  }
  return res;
}

void shuffle_blocks(Client& client, const ExtArray& a, rng::Xoshiro& coins) {
  const std::uint64_t n = a.num_blocks();
  CacheLease lease(client.cache(), 2 * client.B());
  BlockBuf x, y;
  rng::fisher_yates(n, coins, [&](std::uint64_t i, std::uint64_t j) {
    // Bob sees 2 reads + 2 writes at coin-chosen positions, whatever i == j.
    client.read_block(a, i, x);
    client.read_block(a, j, y);
    client.write_block(a, i, y);
    client.write_block(a, j, x);
  });
}

DealResult deal_blocks(Client& client, const ExtArray& a, unsigned num_colors,
                       const ColorFn& color_of, const DealOptions& opts,
                       std::uint64_t nonempty_blocks) {
  DealResult res;
  const std::size_t B = client.B();
  const std::uint64_t n = a.num_blocks();
  const unsigned C = std::max(1u, num_colors);
  const std::uint64_t m = client.m();

  std::uint64_t batch = opts.batch_blocks;
  if (batch == 0) {
    batch = std::clamp<std::uint64_t>(ipow_frac(m, 3, 4), C, std::max<std::uint64_t>(C, m / 2));
  }
  const std::uint64_t batches = ceil_div(std::max<std::uint64_t>(n, 1), batch);
  std::uint64_t quota = opts.quota;
  if (quota == 0) {
    // A batch holds batch * density non-empty blocks on average (the shuffle
    // spreads them), split over C colors.
    const double density =
        nonempty_blocks == 0 || n == 0
            ? 1.0
            : std::min(1.0, static_cast<double>(nonempty_blocks) / static_cast<double>(n));
    const double mean = static_cast<double>(batch) * density / static_cast<double>(C);
    quota = static_cast<std::uint64_t>(std::ceil(mean + 4.0 * std::sqrt(mean))) + 4;
  }
  res.batch_blocks = batch;
  res.quota = quota;

  res.colors.reserve(C);
  for (unsigned c = 0; c < C; ++c)
    res.colors.push_back(client.alloc_blocks(batches * quota, Client::Init::kUninit));

  CacheLease lease(client.cache(), (batch + 2) * B);
  BlockBuf blk;
  const BlockBuf empty = make_empty_block(B);
  std::vector<std::vector<BlockBuf>> pend(C);

  std::uint64_t in_pos = 0;
  for (std::uint64_t bt = 0; bt < batches; ++bt) {
    for (unsigned c = 0; c < C; ++c) pend[c].clear();
    for (std::uint64_t i = 0; i < batch && in_pos < n; ++i) {
      client.read_block(a, in_pos++, blk);
      if (blk[0].is_empty()) continue;  // consolidation padding carries nothing
      const unsigned c = color_of(blk[0]);
      assert(c < C);
      if (pend[c].size() < quota) {
        pend[c].push_back(blk);
      } else {
        ++res.overflow_drops;  // Lemma 18 tail event
      }
    }
    for (unsigned c = 0; c < C; ++c) {
      for (std::uint64_t s = 0; s < quota; ++s) {
        client.write_block(res.colors[c], bt * quota + s,
                           s < pend[c].size() ? pend[c][s] : empty);
      }
    }
  }
  if (res.overflow_drops > 0)
    res.status = Status::WhpFailure("deal quota overflow (Lemma 18 tail)");
  return res;
}

}  // namespace oem::core
