#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obliv/trace_check.h"
#include "sortnet/external_sort.h"
#include "sortnet/networks.h"
#include "test_util.h"

namespace oem::sortnet {
namespace {

TEST(Networks, BitonicComparatorCount) {
  // n/2 * log(n) * (log(n)+1) / 2 comparators.
  EXPECT_EQ(bitonic_comparator_count(2), 1u);
  EXPECT_EQ(bitonic_comparator_count(4), 6u);
  EXPECT_EQ(bitonic_comparator_count(8), 24u);
  EXPECT_EQ(bitonic_comparator_count(16), 80u);
}

TEST(Networks, OddEvenFewerComparatorsThanBitonic) {
  for (std::uint64_t n : {8ull, 64ull, 256ull})
    EXPECT_LT(odd_even_comparator_count(n), bitonic_comparator_count(n));
}

class NetworkSortTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkSortTest, BitonicSortsEverySize) {
  const std::uint64_t n = GetParam();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto v = test::random_records(n, seed);
    auto expect = v;
    std::sort(expect.begin(), expect.end(), RecordLess{});
    bitonic_sort_any(v, RecordLess{}, Record{});  // Record{} is the +inf pad
    EXPECT_EQ(v, expect) << "n=" << n << " seed=" << seed;
  }
}

TEST_P(NetworkSortTest, OddEvenSortsEverySize) {
  const std::uint64_t n = GetParam();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto v = test::random_records(n, seed + 100);
    auto expect = v;
    std::sort(expect.begin(), expect.end(), RecordLess{});
    odd_even_sort_any(v, RecordLess{}, Record{});
    EXPECT_EQ(v, expect) << "n=" << n << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, NetworkSortTest,
                         ::testing::Values(1, 2, 3, 7, 8, 15, 16, 31, 33, 100, 255, 256));

TEST(Networks, ZeroOnePrinciple) {
  // Exhaustively verify the 8-wire bitonic network on all 0-1 inputs, which
  // by the 0-1 principle proves it sorts everything.
  for (unsigned mask = 0; mask < 256; ++mask) {
    std::vector<int> v(8);
    for (int i = 0; i < 8; ++i) v[i] = (mask >> i) & 1;
    bitonic_sort_pow2(std::span<int>(v), std::less<int>{});
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end())) << "mask=" << mask;
  }
}

struct ExtSortCase {
  std::size_t B;
  std::uint64_t M;
  std::uint64_t records;
};

class ExtSortTest : public ::testing::TestWithParam<ExtSortCase> {};

TEST_P(ExtSortTest, SortsAndMatchesPrediction) {
  const auto& p = GetParam();
  Client client(test::params(p.B, p.M));
  ExtArray a = client.alloc(p.records, Client::Init::kUninit);
  auto v = test::random_records(p.records, 7);
  client.poke(a, v);
  client.reset_stats();

  ext_oblivious_sort(client, a);

  const std::uint64_t measured = client.stats().total();
  EXPECT_EQ(measured, ext_sort_predicted_ios(a.num_blocks(), p.M / p.B));

  auto out = client.peek(a);
  std::sort(v.begin(), v.end(), RecordLess{});
  v.resize(out.size(), Record{});
  std::sort(v.begin(), v.end(), RecordLess{});
  EXPECT_EQ(out, v);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExtSortTest,
    ::testing::Values(ExtSortCase{4, 32, 64}, ExtSortCase{4, 32, 61},
                      ExtSortCase{8, 64, 512}, ExtSortCase{8, 64, 500},
                      ExtSortCase{16, 256, 4096}, ExtSortCase{4, 8, 128},
                      ExtSortCase{1, 4, 64}, ExtSortCase{16, 512, 10000},
                      ExtSortCase{4, 32, 256},   // 16 runs
                      // Run counts that are not powers of two (B=4, m=8:
                      // runs of 4 blocks = 16 records).
                      ExtSortCase{4, 32, 48},    // 3 runs
                      ExtSortCase{4, 32, 144},   // 9 runs
                      ExtSortCase{4, 32, 195},   // 13 runs, last run 1 block
                      ExtSortCase{4, 32, 784})); // 49 runs

TEST(ExtSort, EmptiesCollectAtEnd) {
  Client client(test::params(4, 32));
  ExtArray a = client.alloc(64, Client::Init::kUninit);
  std::vector<Record> v(64);
  for (std::uint64_t i = 0; i < 64; ++i)
    v[i] = (i % 3 == 0) ? Record{} : Record{100 - i, i};
  client.poke(a, v);
  ext_oblivious_sort(client, a);
  auto out = client.peek(a);
  EXPECT_TRUE(test::padded_sorted(out));
  // Non-empty prefix, empty suffix.
  bool seen_empty = false;
  for (const Record& r : out) {
    if (r.is_empty()) seen_empty = true;
    else EXPECT_FALSE(seen_empty) << "real record after empty cell";
  }
}

TEST(ExtSort, IsOblivious) {
  // 64 blocks = 8 runs of 8; 75 blocks = 10 runs, the last one 3 blocks.
  for (std::uint64_t records : {256ull, 300ull}) {
    auto result = obliv::check_oblivious(
        test::params(4, 64), records, obliv::canonical_inputs(2),
        [](Client& c, const ExtArray& a) { ext_oblivious_sort(c, a); });
    EXPECT_TRUE(result.oblivious) << "records=" << records << ": " << result.diagnosis;
  }
}

TEST(ExtSort, GrowthIsPolylogOverLinear) {
  // I/Os per block should grow ~log^2(n/m): superlinear in log n, and the
  // ratio between successive doublings should increase.
  const std::size_t B = 8;
  const std::uint64_t M = 8 * 16;
  std::vector<double> per_block;
  for (std::uint64_t n_blocks : {64ull, 256ull, 1024ull}) {
    per_block.push_back(static_cast<double>(ext_sort_predicted_ios(n_blocks, M / B)) /
                        static_cast<double>(n_blocks));
  }
  EXPECT_GT(per_block[1], per_block[0]);
  EXPECT_GT(per_block[2], per_block[1]);
}

TEST(UnitSort, SortsUnitsByFirstRecord) {
  Client client(test::params(4, 64));
  const std::uint64_t units = 32, ub = 2;
  ExtArray a = client.alloc_blocks(units * ub, Client::Init::kUninit);
  // Unit u: header {key=units-u, u}, payload marker in second block.
  std::vector<Record> flat(units * ub * 4);
  for (std::uint64_t u = 0; u < units; ++u) {
    flat[u * 8 + 0] = {units - u, u};
    flat[u * 8 + 4] = {777, u};  // payload travels with the header
  }
  client.poke(a, flat);
  ext_oblivious_unit_sort(client, a, ub);
  auto out = client.peek(a);
  for (std::uint64_t u = 0; u < units; ++u) {
    EXPECT_EQ(out[u * 8 + 0].key, u + 1);            // sorted headers
    EXPECT_EQ(out[u * 8 + 4].value, out[u * 8].value);  // payload stayed attached
  }
}

TEST(UnitSort, NonPowerOfTwoUnitCount) {
  // m = 16: runs of 4 two-block units, so 37 units make 10 runs, the last
  // one a single unit.
  Client client(test::params(4, 64));
  const std::uint64_t units = 37, ub = 2;
  ExtArray a = client.alloc_blocks(units * ub, Client::Init::kUninit);
  std::vector<Record> flat(units * ub * 4);
  for (std::uint64_t u = 0; u < units; ++u) {
    flat[u * 8 + 0] = {(u * 17) % units, u};
    flat[u * 8 + 4] = {777, u};
  }
  client.poke(a, flat);
  client.reset_stats();
  ext_oblivious_unit_sort(client, a, ub);
  // Unit sort and block sort share the run network, hence the cost model.
  EXPECT_EQ(client.stats().total(), ext_sort_predicted_ios(units * ub, client.m()));
  auto out = client.peek(a);
  for (std::uint64_t u = 0; u < units; ++u) {
    EXPECT_EQ(out[u * 8 + 0].key, u);
    EXPECT_EQ(out[u * 8 + 4].value, out[u * 8].value);
  }
}

TEST(UnitSort, DummiesSortLast) {
  Client client(test::params(4, 64));
  const std::uint64_t units = 16, ub = 1;
  ExtArray a = client.alloc_blocks(units * ub, Client::Init::kUninit);
  std::vector<Record> flat(units * 4);
  for (std::uint64_t u = 0; u < units; ++u)
    flat[u * 4] = (u % 2 == 0) ? Record{} : Record{u, u};
  client.poke(a, flat);
  ext_oblivious_unit_sort(client, a, ub);
  auto out = client.peek(a);
  for (std::uint64_t u = 0; u < 8; ++u) EXPECT_FALSE(out[u * 4].is_empty());
  for (std::uint64_t u = 8; u < 16; ++u) EXPECT_TRUE(out[u * 4].is_empty());
}

TEST(SortRegionInCache, SortsSlice) {
  Client client(test::params(4, 64));
  ExtArray a = client.alloc(64, Client::Init::kUninit);
  auto v = test::random_records(64, 5);
  client.poke(a, v);
  sort_region_in_cache(client, a, 4, 8);  // records [16, 48)
  auto out = client.peek(a);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(out[i], v[i]);
  for (std::size_t i = 48; i < 64; ++i) EXPECT_EQ(out[i], v[i]);
  std::vector<Record> mid(out.begin() + 16, out.begin() + 48);
  EXPECT_TRUE(std::is_sorted(mid.begin(), mid.end(), RecordLess{}));
}

}  // namespace
}  // namespace oem::sortnet
