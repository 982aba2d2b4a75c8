#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/shuffle_deal.h"
#include "obliv/trace_check.h"
#include "test_util.h"

namespace oem::core {
namespace {

unsigned color3(const Record& r) { return static_cast<unsigned>(r.key % 3); }

TEST(MultiwayConsolidate, BlocksAreMonochromaticFullOrEmpty) {
  Client client(test::params(4, 512));
  const std::uint64_t n = 64;
  ExtArray a = client.alloc_blocks(n, Client::Init::kUninit);
  auto v = test::random_records(n * 4, 5);
  client.poke(a, v);

  MultiwayResult res = multiway_consolidate(client, a, 3, color3);
  ASSERT_TRUE(res.status.ok()) << res.status.message();

  auto out = client.peek(res.out);
  const std::uint64_t nb = res.out.num_blocks();
  const std::uint64_t tail_start = nb - 4 * 3;
  for (std::uint64_t b = 0; b < nb; ++b) {
    std::set<unsigned> colors_in_block;
    std::size_t cnt = 0;
    for (std::size_t r = 0; r < 4; ++r) {
      const Record& rec = out[b * 4 + r];
      if (!rec.is_empty()) {
        colors_in_block.insert(color3(rec));
        ++cnt;
      }
    }
    EXPECT_LE(colors_in_block.size(), 1u) << "block " << b << " mixes colors";
    if (b < tail_start) {
      EXPECT_TRUE(cnt == 0 || cnt == 4) << "partial block " << b << " before tail";
    }
  }
}

TEST(MultiwayConsolidate, ConservesRecordsAndCounts) {
  Client client(test::params(4, 512));
  const std::uint64_t n = 50;
  ExtArray a = client.alloc_blocks(n, Client::Init::kUninit);
  auto v = test::random_records(n * 4, 7);
  client.poke(a, v);
  MultiwayResult res = multiway_consolidate(client, a, 3, color3);
  ASSERT_TRUE(res.status.ok());
  EXPECT_TRUE(test::same_multiset(client.peek(res.out), v));
  std::map<unsigned, std::uint64_t> expect;
  for (const Record& r : v) expect[color3(r)]++;
  for (unsigned c = 0; c < 3; ++c) EXPECT_EQ(res.color_records[c], expect[c]);
}

TEST(MultiwayConsolidate, SkewedSingleColorInput) {
  // Every record the same color: the quota argument must still hold.
  Client client(test::params(4, 512));
  const std::uint64_t n = 40;
  ExtArray a = client.alloc_blocks(n, Client::Init::kUninit);
  client.poke(a, test::iota_records(n * 4));
  MultiwayResult res = multiway_consolidate(
      client, a, 4, [](const Record&) -> unsigned { return 2; });
  ASSERT_TRUE(res.status.ok()) << res.status.message();
  EXPECT_TRUE(test::same_multiset(client.peek(res.out), test::iota_records(n * 4)));
}

TEST(MultiwayConsolidate, IsOblivious) {
  auto result = obliv::check_oblivious(
      test::params(4, 512), 256, obliv::canonical_inputs(12),
      [](Client& c, const ExtArray& a) {
        multiway_consolidate(c, a, 3, color3);
      });
  EXPECT_TRUE(result.oblivious) << result.diagnosis;
}

TEST(ShuffleBlocks, PermutesBlocksIntact) {
  Client client(test::params(4, 64));
  const std::uint64_t n = 32;
  ExtArray a = client.alloc_blocks(n, Client::Init::kUninit);
  std::vector<Record> flat(n * 4);
  for (std::uint64_t b = 0; b < n; ++b)
    for (std::size_t r = 0; r < 4; ++r) flat[b * 4 + r] = {b, r};
  client.poke(a, flat);
  rng::Xoshiro coins(5);
  shuffle_blocks(client, a, coins);
  auto out = client.peek(a);
  std::set<std::uint64_t> seen;
  for (std::uint64_t b = 0; b < n; ++b) {
    const std::uint64_t src = out[b * 4].key;
    EXPECT_TRUE(seen.insert(src).second);
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(out[b * 4 + r].key, src);   // block stayed intact
      EXPECT_EQ(out[b * 4 + r].value, r);
    }
  }
  EXPECT_EQ(seen.size(), n);
}

TEST(ShuffleBlocks, FixedIoCost) {
  Client client(test::params(4, 64));
  ExtArray a = client.alloc_blocks(32, Client::Init::kEmpty);
  client.reset_stats();
  rng::Xoshiro coins(5);
  shuffle_blocks(client, a, coins);
  // 31 swap steps, 4 I/Os each.
  EXPECT_EQ(client.stats().total(), 31u * 4);
}

TEST(Deal, DistributesByColorWithPaddedWrites) {
  Client client(test::params(4, 512));
  const std::uint64_t n = 60;
  ExtArray a = client.alloc_blocks(n, Client::Init::kUninit);
  // Monochromatic blocks: block b has color b % 3 (key encodes color).
  std::vector<Record> flat(n * 4);
  for (std::uint64_t b = 0; b < n; ++b)
    for (std::size_t r = 0; r < 4; ++r) flat[b * 4 + r] = {b % 3 + 3 * b * 10, b};
  client.poke(a, flat);

  DealResult res = deal_blocks(client, a, 3,
                               [](const Record& r) { return static_cast<unsigned>(r.key % 3); });
  ASSERT_TRUE(res.status.ok()) << res.status.message();
  ASSERT_EQ(res.colors.size(), 3u);
  EXPECT_EQ(res.overflow_drops, 0u);

  // Every real block landed in its color array; totals conserved.
  std::uint64_t total_real = 0;
  for (unsigned c = 0; c < 3; ++c) {
    auto out = client.peek(res.colors[c]);
    for (std::size_t b = 0; b * 4 < out.size(); ++b) {
      if (!out[b * 4].is_empty()) {
        EXPECT_EQ(out[b * 4].key % 3, c) << "wrong color bucket";
        ++total_real;
      }
    }
  }
  EXPECT_EQ(total_real, n);
}

TEST(Deal, UniformArraySizesAndQuota) {
  Client client(test::params(4, 1024));
  ExtArray a = client.alloc_blocks(100, Client::Init::kEmpty);
  DealResult res = deal_blocks(client, a, 5,
                               [](const Record&) -> unsigned { return 0; });
  for (unsigned c = 1; c < 5; ++c)
    EXPECT_EQ(res.colors[c].num_blocks(), res.colors[0].num_blocks());
  EXPECT_GT(res.quota, 0u);
  EXPECT_GE(res.batch_blocks, 5u);
}

TEST(Deal, OverflowDetectedOnAdversarialConcentration) {
  // All blocks one color with a tiny forced quota: drops must be reported.
  Client client(test::params(4, 512));
  const std::uint64_t n = 64;
  ExtArray a = client.alloc_blocks(n, Client::Init::kUninit);
  std::vector<Record> flat(n * 4);
  for (std::uint64_t b = 0; b < n; ++b)
    for (std::size_t r = 0; r < 4; ++r) flat[b * 4 + r] = {1, b};
  client.poke(a, flat);
  DealOptions opts;
  opts.batch_blocks = 16;
  opts.quota = 2;  // far below 16 same-colored blocks per batch
  DealResult res = deal_blocks(client, a, 3,
                               [](const Record&) -> unsigned { return 1; }, opts);
  EXPECT_FALSE(res.status.ok());
  EXPECT_GT(res.overflow_drops, 0u);
}

TEST(Deal, ShuffleAvoidsHotSpotOverflow) {
  // Lemma 18's point: consolidated (clustered) colors overflow per-batch
  // quotas without the shuffle; with the shuffle they fit w.h.p.
  const std::uint64_t n = 256;
  auto build = [&](bool shuffled, std::uint64_t* drops) {
    Client client(test::params(4, 256));
    ExtArray a = client.alloc_blocks(n, Client::Init::kUninit);
    // Clustered colors: first half color 0, second half color 1.
    std::vector<Record> flat(n * 4);
    for (std::uint64_t b = 0; b < n; ++b)
      for (std::size_t r = 0; r < 4; ++r)
        flat[b * 4 + r] = {b < n / 2 ? 0ull : 1ull, b};
    client.poke(a, flat);
    if (shuffled) {
      rng::Xoshiro coins(3);
      shuffle_blocks(client, a, coins);
    }
    DealOptions opts;
    opts.batch_blocks = 32;
    opts.quota = 26;  // mean 16 + generous margin, but << 32
    DealResult res = deal_blocks(client, a, 2,
                                 [](const Record& r) { return static_cast<unsigned>(r.key); },
                                 opts);
    *drops = res.overflow_drops;
  };
  std::uint64_t drops_clustered = 0, drops_shuffled = 0;
  build(false, &drops_clustered);
  build(true, &drops_shuffled);
  EXPECT_GT(drops_clustered, 0u) << "clustered input should overflow the quota";
  EXPECT_EQ(drops_shuffled, 0u) << "shuffle-and-deal should break the hot spot";
}

TEST(Deal, QuotaScalesWithPublicDensity) {
  // A 5x padded input: 100 real blocks among 500.  With the public bound on
  // its non-empty blocks the per-batch quota shrinks to the real density,
  // and after the shuffle every real block still fits.
  const std::uint64_t n = 500, real = 100;
  Client client(test::params(4, 1024));
  ExtArray a = client.alloc_blocks(n, Client::Init::kUninit);
  std::vector<Record> flat(n * 4);
  for (std::uint64_t b = 0; b < real; ++b)
    for (std::size_t r = 0; r < 4; ++r) flat[b * 4 + r] = {b % 3, b};
  client.poke(a, flat);
  rng::Xoshiro coins(7);
  shuffle_blocks(client, a, coins);
  auto color = [](const Record& r) { return static_cast<unsigned>(r.key); };
  DealResult dense = deal_blocks(client, a, 3, color);
  DealResult sparse = deal_blocks(client, a, 3, color, {}, real);
  ASSERT_TRUE(sparse.status.ok()) << sparse.status.message();
  EXPECT_LT(sparse.quota, dense.quota / 2);
  std::uint64_t landed = 0;
  for (const ExtArray& arr : sparse.colors) {
    auto out = client.peek(arr);
    for (std::size_t b = 0; b * 4 < out.size(); ++b)
      if (!out[b * 4].is_empty()) ++landed;
  }
  EXPECT_EQ(landed, real);
}

TEST(Deal, IsOblivious) {
  auto result = obliv::check_oblivious(
      test::params(4, 512), 256, obliv::canonical_inputs(13),
      [](Client& c, const ExtArray& a) {
        deal_blocks(c, a, 3, [](const Record& r) {
          return static_cast<unsigned>(r.key % 3);
        });
      });
  EXPECT_TRUE(result.oblivious) << result.diagnosis;
}

}  // namespace
}  // namespace oem::core
