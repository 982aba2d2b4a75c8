#include <gtest/gtest.h>

#include <vector>

#include "core/butterfly.h"
#include "obliv/trace_check.h"
#include "test_util.h"
#include "util/math.h"

namespace oem::core {
namespace {

/// Fill array: block b distinguished iff (b % period == phase); block content
/// is a recognizable pattern keyed by b.
std::vector<Record> patterned(std::uint64_t n_blocks, std::size_t B,
                              std::uint64_t period, std::uint64_t phase) {
  std::vector<Record> flat(n_blocks * B);
  for (std::uint64_t b = 0; b < n_blocks; ++b) {
    if (b % period == phase) {
      for (std::size_t r = 0; r < B; ++r) flat[b * B + r] = {b * 1000 + r, b};
    }
  }
  return flat;
}

struct CompactCase {
  std::size_t B;
  std::uint64_t M;
  std::uint64_t n_blocks;
  std::uint64_t period;
};

class ButterflyTest : public ::testing::TestWithParam<CompactCase> {};

TEST_P(ButterflyTest, CompactsTightOrderPreserving) {
  const auto& p = GetParam();
  Client client(test::params(p.B, p.M));
  ExtArray a = client.alloc_blocks(p.n_blocks, Client::Init::kUninit);
  client.poke(a, patterned(p.n_blocks, p.B, p.period, 1 % p.period));

  TightCompactResult res = tight_compact_blocks(client, a, block_nonempty_pred());

  std::vector<std::uint64_t> expect;
  for (std::uint64_t b = 0; b < p.n_blocks; ++b)
    if (b % p.period == 1 % p.period) expect.push_back(b);
  EXPECT_EQ(res.occupied, expect.size());

  auto out = client.peek(res.out);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    for (std::size_t r = 0; r < p.B; ++r) {
      EXPECT_EQ(out[i * p.B + r].key, expect[i] * 1000 + r)
          << "compacted block " << i;
    }
  }
  for (std::size_t i = expect.size() * p.B; i < out.size(); ++i)
    EXPECT_TRUE(out[i].is_empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ButterflyTest,
    ::testing::Values(CompactCase{4, 64, 16, 2},    // half occupied
                      CompactCase{4, 64, 16, 16},   // single block
                      CompactCase{4, 64, 17, 3},    // non-power-of-two n
                      CompactCase{4, 64, 1, 1},     // n = 1
                      CompactCase{4, 64, 2, 2},
                      CompactCase{8, 128, 100, 7},
                      CompactCase{4, 64, 256, 5},
                      CompactCase{2, 32, 64, 2},    // minimal m = 16
                      CompactCase{4, 4096, 512, 3}, // big cache, few superlevels
                      CompactCase{4, 64, 512, 3})); // small cache, many superlevels

TEST(Butterfly, MatchesSortReference) {
  // Differential: butterfly output == Lemma-2-based reference on random
  // occupancy patterns, also at n = 2^k + 1 (one cell past a power of two).
  for (std::uint64_t n : {48ull, 3ull, 5ull, 17ull, 65ull, 257ull, 1037ull}) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      Client c1(test::params(4, 64)), c2(test::params(4, 64));
      rng::Xoshiro g(seed);
      std::vector<Record> flat(n * 4);
      for (std::uint64_t b = 0; b < n; ++b)
        if (g.bernoulli(0.4))
          for (std::size_t r = 0; r < 4; ++r) flat[b * 4 + r] = {b * 10 + r, b};

      ExtArray a1 = c1.alloc_blocks(n, Client::Init::kUninit);
      c1.poke(a1, flat);
      ExtArray a2 = c2.alloc_blocks(n, Client::Init::kUninit);
      c2.poke(a2, flat);

      auto r1 = tight_compact_blocks(c1, a1, block_nonempty_pred());
      auto r2 = tight_compact_by_sort(c2, a2, block_nonempty_pred());
      EXPECT_EQ(r1.occupied, r2.occupied);
      EXPECT_EQ(c1.peek(r1.out), c2.peek(r2.out)) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(Butterfly, Figure1Example) {
  // The paper's Figure 1: 7 occupied cells with distance labels
  // 2 3 3 6 8 8 9 among 16 cells.  Occupied positions = label + rank:
  // label d at rank i means position = d + i for the compacted order.
  // Positions: 2,4,5,9,12,13,15.  After compaction they sit at 0..6.
  Client client(test::params(2, 64));
  const std::uint64_t n = 16;
  std::vector<std::uint64_t> occupied = {2, 4, 5, 9, 12, 13, 15};
  std::vector<Record> flat(n * 2);
  for (std::uint64_t b : occupied) {
    flat[b * 2] = {b, b};
    flat[b * 2 + 1] = {b, b};
  }
  ExtArray a = client.alloc_blocks(n, Client::Init::kUninit);
  client.poke(a, flat);
  TightCompactResult res = tight_compact_blocks(client, a, block_nonempty_pred());
  EXPECT_EQ(res.occupied, 7u);
  auto out = client.peek(res.out);
  for (std::size_t i = 0; i < 7; ++i)
    EXPECT_EQ(out[i * 2].key, occupied[i]) << "slot " << i;
}

TEST(Butterfly, ExpansionInvertsCompaction) {
  Client client(test::params(4, 64));
  const std::uint64_t n = 32;
  std::vector<std::uint64_t> targets = {1, 4, 5, 11, 17, 23, 24, 30};
  std::vector<Record> flat(targets.size() * 4);
  for (std::size_t i = 0; i < targets.size(); ++i)
    for (std::size_t r = 0; r < 4; ++r) flat[i * 4 + r] = {i * 100 + r, i};
  ExtArray a = client.alloc_blocks(targets.size(), Client::Init::kUninit);
  client.poke(a, flat);

  ExtArray out = expand_blocks(client, a, targets.size(), n,
                               [&](std::uint64_t i) { return targets[i]; });
  auto got = client.peek(out);
  std::set<std::uint64_t> tset(targets.begin(), targets.end());
  for (std::uint64_t b = 0; b < n; ++b) {
    if (tset.count(b)) {
      const std::size_t i =
          std::distance(targets.begin(),
                        std::find(targets.begin(), targets.end(), b));
      EXPECT_EQ(got[b * 4].key, i * 100) << "target " << b;
    } else {
      EXPECT_TRUE(got[b * 4].is_empty()) << "block " << b;
    }
  }
}

TEST(Butterfly, ExpandThenCompactIsIdentity) {
  // Also at n = 2^k + 1 cells, with the last block sent to the last cell.
  for (std::uint64_t out_n : {64ull, 17ull, 65ull, 1025ull}) {
    Client client(test::params(4, 128));
    const std::uint64_t count = out_n / 6;
    auto target = [&](std::uint64_t i) { return i + 1 == count ? out_n - 1 : i * 6 + 1; };
    auto flat = test::random_records(count * 4, 3);
    ExtArray a = client.alloc_blocks(count, Client::Init::kUninit);
    client.poke(a, flat);
    ExtArray spread = expand_blocks(client, a, count, out_n, target);
    auto got = client.peek(spread);
    for (std::uint64_t i = 0; i < count; ++i)
      EXPECT_EQ(got[target(i) * 4], flat[i * 4]) << "out_n=" << out_n << " i=" << i;
    TightCompactResult back = tight_compact_blocks(client, spread, block_nonempty_pred());
    EXPECT_EQ(back.occupied, count);
    got = client.peek(back.out);
    got.resize(count * 4);
    EXPECT_EQ(got, flat) << "out_n=" << out_n;
  }
}

TEST(Butterfly, IoMatchesLogOverLogShape) {
  // Measured I/O per block should scale like log(n)/log(m): for fixed n,
  // larger m => fewer super-levels => fewer I/Os.
  auto measure = [](std::uint64_t M) {
    Client client(test::params(4, M));
    const std::uint64_t n = 256;
    ExtArray a = client.alloc_blocks(n, Client::Init::kUninit);
    client.poke(a, patterned(n, 4, 3, 0));
    client.reset_stats();
    tight_compact_blocks(client, a, block_nonempty_pred());
    return client.stats().total();
  };
  const std::uint64_t small_m = measure(64);    // m = 16
  const std::uint64_t big_m = measure(4096);    // m = 1024
  EXPECT_LT(big_m, small_m);
  // And it should be far below the naive n log n (no windowing) cost.
  EXPECT_LT(small_m, 10 * butterfly_predicted_ios(256, 16));
}

TEST(Butterfly, MeasuredIoEqualsPrediction) {
  // The cost model is exact for the trimmed network, at power-of-two sizes
  // and just past them, under a cache with one level per super-level (m=16)
  // and one with five (m=256).
  for (std::uint64_t M : {64ull, 1024ull}) {
    for (std::uint64_t n : {1ull, 1024ull, 1025ull, 1037ull, 8193ull}) {
      Client client(test::params(4, M));
      ExtArray a = client.alloc_blocks(n, Client::Init::kUninit);
      client.poke(a, patterned(n, 4, 3, 1));
      client.reset_stats();
      tight_compact_blocks(client, a, block_nonempty_pred());
      EXPECT_EQ(client.stats().total(), butterfly_predicted_ios(n, client.m()))
          << "n=" << n << " m=" << client.m();
    }
  }
}

TEST(Butterfly, DenseExpansionNeverCollides) {
  // Dense random targets at every size up to 80 cells: expansion must undo
  // a compaction level by level (MSB first), or cells collide mid-network.
  for (std::uint64_t M : {32ull, 64ull}) {
    for (std::uint64_t n = 2; n <= 80; ++n) {
      Client client(test::params(2, M));
      rng::Xoshiro g(n * 7 + M);
      std::vector<std::uint64_t> targets;
      for (std::uint64_t b = 0; b < n; ++b)
        if (g.bernoulli(0.85)) targets.push_back(b);
      const std::uint64_t count = targets.size();
      const auto flat = test::random_records(count * 2, n);
      ExtArray a = client.alloc_blocks(count, Client::Init::kUninit);
      client.poke(a, flat);
      ExtArray out = expand_blocks(client, a, count, n,
                                   [&](std::uint64_t i) { return targets[i]; });
      const auto got = client.peek(out);
      for (std::uint64_t i = 0; i < count; ++i)
        EXPECT_EQ(got[targets[i] * 2], flat[i * 2]) << "n=" << n << " M=" << M;
    }
  }
}

TEST(Butterfly, IsOblivious) {
  // 64 blocks, and 37 / 65 blocks (not powers of two).
  for (std::uint64_t records : {256ull, 148ull, 260ull}) {
    auto result = obliv::check_oblivious(
        test::params(4, 64), records, obliv::canonical_inputs(6),
        [](Client& c, const ExtArray& a) {
          tight_compact_blocks(c, a, [](std::uint64_t, const BlockBuf& blk) {
            return !blk[0].is_empty() && blk[0].key % 2 == 0;
          });
        });
    EXPECT_TRUE(result.oblivious) << "records=" << records << ": " << result.diagnosis;
  }
}

TEST(Butterfly, ExpansionIsOblivious) {
  // Targets differ per input (data-dependent labels), but the trace must
  // depend only on (count, out_n).
  auto result = obliv::check_oblivious(
      test::params(4, 64), 64, obliv::canonical_inputs(7),
      [](Client& c, const ExtArray& a) {
        const std::uint64_t count = a.num_blocks();
        BlockBuf blk;
        c.read_block(a, 0, blk);
        const std::uint64_t stretch = 1 + blk[0].key % 3;  // data-dependent!
        expand_blocks(c, a, count, count * 4, [&](std::uint64_t i) {
          return i * stretch + (i >= count / 2 ? count * 3 - count * stretch : 0) +
                 (stretch == 1 ? 0 : 1);
        });
      });
  EXPECT_TRUE(result.oblivious) << result.diagnosis;
}

}  // namespace
}  // namespace oem::core
