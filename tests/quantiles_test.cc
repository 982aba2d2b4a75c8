#include <gtest/gtest.h>

#include <algorithm>

#include "core/quantiles.h"
#include "sortnet/external_sort.h"
#include "obliv/trace_check.h"
#include "test_util.h"

namespace oem::core {
namespace {

std::vector<Record> true_quantiles(std::vector<Record> v, std::uint64_t q) {
  std::sort(v.begin(), v.end(), RecordLess{});
  std::vector<Record> out;
  for (std::uint64_t rank : quantile_ranks(v.size(), q))
    out.push_back(v[rank - 1]);
  return out;
}

TEST(QuantileRanks, Formula) {
  auto r = quantile_ranks(100, 3);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 25u);
  EXPECT_EQ(r[1], 50u);
  EXPECT_EQ(r[2], 75u);
}

struct QuantCase {
  std::uint64_t N;
  std::uint64_t q;
  std::size_t B;
  std::uint64_t M;
};

class QuantilesTest : public ::testing::TestWithParam<QuantCase> {};

TEST_P(QuantilesTest, MatchesSortedRanks) {
  const auto& p = GetParam();
  Client client(test::params(p.B, p.M));
  auto v = test::random_records(p.N, 77);
  ExtArray a = client.alloc(p.N, Client::Init::kUninit);
  client.poke(a, v);

  QuantilesResult res = oblivious_quantiles(client, a, p.q, /*seed=*/3);
  ASSERT_TRUE(res.status.ok()) << res.status.message();
  auto truth = true_quantiles(v, p.q);
  ASSERT_EQ(res.quantiles.size(), p.q);
  for (std::uint64_t j = 0; j < p.q; ++j)
    EXPECT_EQ(res.quantiles[j].key, truth[j].key) << "quantile " << j;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, QuantilesTest,
    ::testing::Values(QuantCase{512, 3, 4, 1024},   // dense path
                      QuantCase{4096, 2, 4, 64},    // sparse path, q=2
                      QuantCase{8192, 3, 4, 64},    // sparse path, q=3
                      QuantCase{8192, 4, 8, 128},
                      QuantCase{20000, 4, 8, 256},
                      QuantCase{4096, 1, 4, 64}));  // q=1: median-ish

TEST(Quantiles, InvalidArgs) {
  Client client(test::params(4, 64));
  ExtArray a = client.alloc(64, Client::Init::kUninit);
  client.poke(a, test::iota_records(64));
  EXPECT_FALSE(oblivious_quantiles(client, a, 0, 1).status.ok());
  EXPECT_FALSE(oblivious_quantiles(client, a, 64, 1).status.ok());
}

TEST(Quantiles, PaddedArrayWithRealRecordsOption) {
  // Array capacity 8192 but only 3000 real records; quantiles must be over
  // the real content.
  Client client(test::params(4, 64));
  std::vector<Record> v(8192);
  auto real = test::random_records(3000, 5);
  for (std::size_t i = 0; i < real.size(); ++i) v[i * 2] = real[i];  // scattered
  ExtArray a = client.alloc(8192, Client::Init::kUninit);
  client.poke(a, v);

  QuantilesOptions opts;
  opts.real_records = 3000;
  QuantilesResult res = oblivious_quantiles(client, a, 3, 11, opts);
  ASSERT_TRUE(res.status.ok()) << res.status.message();
  auto truth = true_quantiles(real, 3);
  for (std::uint64_t j = 0; j < 3; ++j)
    EXPECT_EQ(res.quantiles[j].key, truth[j].key);
}

TEST(Quantiles, PrivateCountNeverSizesArrays) {
  // The public bound sets the sampling rate and every array size; the
  // private count sets only the target ranks.  Any count under one bound
  // gives the same trace, and a count above the bound is flagged rather than
  // given more room.
  std::vector<Record> v(8192);
  auto real = test::random_records(3000, 5);
  for (std::size_t i = 0; i < real.size(); ++i) v[i * 2] = real[i];
  QuantilesOptions opts;
  opts.paper_intervals = false;
  opts.force_sparse = true;
  opts.real_bound = 6000;
  auto run = [&](std::uint64_t real_records, QuantilesResult* res) {
    Client client(test::params(4, 64));
    ExtArray a = client.alloc(v.size(), Client::Init::kUninit);
    client.poke(a, v);
    QuantilesOptions o = opts;
    o.real_records = real_records;
    *res = oblivious_quantiles(client, a, 3, 11, o);
    return client.device().trace().hash();
  };
  QuantilesResult exact, under, over;
  const std::uint64_t h = run(3000, &exact);
  ASSERT_TRUE(exact.status.ok()) << exact.status.message();
  auto truth = true_quantiles(real, 3);
  for (std::uint64_t j = 0; j < 3; ++j) EXPECT_EQ(exact.quantiles[j].key, truth[j].key);
  EXPECT_EQ(run(5000, &under), h);
  EXPECT_EQ(run(7000, &over), h);
  EXPECT_EQ(over.status.code(), StatusCode::kWhpFailure);
}

TEST(Quantiles, SucceedsAcrossSeeds) {
  Client client(test::params(4, 64));
  auto v = test::random_records(4096, 19);
  ExtArray a = client.alloc(v.size(), Client::Init::kUninit);
  client.poke(a, v);
  auto truth = true_quantiles(v, 3);
  int failures = 0;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    auto res = oblivious_quantiles(client, a, 3, seed);
    if (!res.status.ok()) {
      ++failures;
      continue;
    }
    for (std::uint64_t j = 0; j < 3; ++j)
      EXPECT_EQ(res.quantiles[j].key, truth[j].key)
          << "silent wrong quantile at seed " << seed;
  }
  EXPECT_LE(failures, 1);
}

TEST(Quantiles, CostsNoMoreThanASort) {
  // In the paper's dense regime ((M/B) > (N/B)^{1/4}) quantile selection IS
  // a Lemma-2 sort plus scans -- every laboratory-scale configuration lands
  // here.  Pin that the overhead beyond the sort stays a small constant.
  QuantilesOptions opts;
  opts.paper_intervals = false;
  for (std::uint64_t N : {8192ull, 65536ull}) {
    Client client(test::params(8, 1024));
    ExtArray a = client.alloc(N, Client::Init::kUninit);
    client.poke(a, test::random_records(N, 3));
    client.reset_stats();
    auto res = oblivious_quantiles(client, a, 2, 9, opts);
    ASSERT_TRUE(res.status.ok()) << res.status.message();
    const std::uint64_t quant_ios = client.stats().total();
    const std::uint64_t sort_ios =
        sortnet::ext_sort_predicted_ios(a.num_blocks(), client.m());
    EXPECT_LE(quant_ios, sort_ios + 4 * a.num_blocks()) << "N=" << N;
  }
}

TEST(Quantiles, SparseRegimePipelineRuns) {
  // Force the paper's sparse path (n > m^4) with a deliberately tiny cache;
  // checks the full sample/interval/compaction pipeline end to end.
  QuantilesOptions opts;
  opts.paper_intervals = false;
  Client client(test::params(8, 64));  // m = 8, m^4 = 4096 < n
  const std::uint64_t N = 8 * 8192;    // n = 8192 blocks
  auto v = test::random_records(N, 12);
  ExtArray a = client.alloc(N, Client::Init::kUninit);
  client.poke(a, v);
  auto res = oblivious_quantiles(client, a, 2, 31, opts);
  ASSERT_TRUE(res.status.ok()) << res.status.message();
  auto truth = true_quantiles(v, 2);
  for (std::uint64_t j = 0; j < 2; ++j)
    EXPECT_EQ(res.quantiles[j].key, truth[j].key) << "quantile " << j;
}

TEST(Quantiles, ChernoffIntervalsCorrect) {
  QuantilesOptions opts;
  opts.paper_intervals = false;
  Client client(test::params(8, 1024));
  auto v = test::random_records(32768, 4);
  ExtArray a = client.alloc(v.size(), Client::Init::kUninit);
  client.poke(a, v);
  auto res = oblivious_quantiles(client, a, 4, 23, opts);
  ASSERT_TRUE(res.status.ok()) << res.status.message();
  auto truth = true_quantiles(v, 4);
  for (std::uint64_t j = 0; j < 4; ++j)
    EXPECT_EQ(res.quantiles[j].key, truth[j].key) << "quantile " << j;
}

TEST(Quantiles, IsOblivious) {
  auto result = obliv::check_oblivious(
      test::params(4, 64), 4096, obliv::canonical_inputs(11),
      [](Client& c, const ExtArray& a) {
        (void)oblivious_quantiles(c, a, 3, 21);
      });
  EXPECT_TRUE(result.oblivious) << result.diagnosis;
}

}  // namespace
}  // namespace oem::core
