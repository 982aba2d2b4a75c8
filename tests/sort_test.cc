#include <gtest/gtest.h>

#include <algorithm>

#include "core/oblivious_sort.h"
#include "obliv/trace_check.h"
#include "sortnet/external_sort.h"
#include "test_util.h"

namespace oem::core {
namespace {

struct SortCase {
  std::uint64_t N;
  std::size_t B;
  std::uint64_t M;
};

class ObliviousSortTest : public ::testing::TestWithParam<SortCase> {};

TEST_P(ObliviousSortTest, SortsRandomInput) {
  const auto& p = GetParam();
  Client client(test::params(p.B, p.M));
  auto v = test::random_records(p.N, 11);
  ExtArray a = client.alloc(p.N, Client::Init::kUninit);
  client.poke(a, v);

  ObliviousSortResult res = oblivious_sort(client, a, /*seed=*/5);
  ASSERT_TRUE(res.status.ok()) << res.status.message();
  auto out = client.peek(a);
  EXPECT_TRUE(test::same_multiset(out, v)) << "records lost or duplicated";
  EXPECT_TRUE(test::keys_nondecreasing(test::non_empty(out)));
  // Tight compaction: non-empty prefix.
  bool seen_empty = false;
  for (const Record& r : out) {
    if (r.is_empty()) seen_empty = true;
    else EXPECT_FALSE(seen_empty);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ObliviousSortTest,
    ::testing::Values(SortCase{256, 4, 64},        // base: fits-ish in cache
                      SortCase{4096, 4, 64},       // dense regime (Lemma 2)
                      SortCase{8192, 4, 64},
                      SortCase{40000, 4, 4 * 256},  // recursive pipeline, q=4
                      SortCase{65536, 8, 8 * 256},
                      SortCase{30000, 4, 4 * 300}));

TEST(ObliviousSort, RecursivePipelineEngages) {
  // Parameters chosen so n > m^4 and q >= 2: the full quantile/shuffle/deal/
  // loose-compaction/recursion/sweep pipeline must run (not a base case).
  Client client(test::params(4, 4 * 256));  // m = 256, q = 4
  const std::uint64_t N = 4 * 70000;        // n = 70000 > m^4? no -- but > 4m
  auto v = test::random_records(N, 3);
  ExtArray a = client.alloc(N, Client::Init::kUninit);
  client.poke(a, v);
  ObliviousSortOptions opts;
  opts.min_recursive_blocks = 1024;  // force recursion below the dense guard
  // Knock out the dense-regime shortcut by treating m^4 as satisfied:
  // (the public branch uses m^4 >= n; with m=256 that's huge, so instead we
  // exercise the pipeline via the padded entry point and a smaller m.)
  Client small(test::params(4, 4 * 16));  // m = 16, m^4 = 65536 < 70000
  ExtArray b = small.alloc(N, Client::Init::kUninit);
  small.poke(b, v);
  ExtArray out;
  ObliviousSortResult res = oblivious_sort_padded(small, b, &out, 7, opts);
  ASSERT_TRUE(res.status.ok()) << res.status.message();
  EXPECT_GT(res.stats.nodes, 1u) << "pipeline did not recurse";
  auto padded = small.peek(out);
  EXPECT_TRUE(test::same_multiset(padded, v));
  EXPECT_TRUE(test::keys_nondecreasing(test::non_empty(padded)));
}

TEST(ObliviousSort, AllEqualKeysBalanceViaTieSpreading) {
  Client client(test::params(4, 4 * 16));
  const std::uint64_t N = 4 * 70000;
  std::vector<Record> v(N);
  for (std::uint64_t i = 0; i < N; ++i) v[i] = {42, i};  // one key, distinct values
  ExtArray a = client.alloc(N, Client::Init::kUninit);
  client.poke(a, v);
  ObliviousSortOptions opts;
  opts.min_recursive_blocks = 1024;
  ExtArray out;
  ObliviousSortResult res = oblivious_sort_padded(client, a, &out, 9, opts);
  ASSERT_TRUE(res.status.ok()) << res.status.message();
  auto padded = client.peek(out);
  EXPECT_TRUE(test::same_multiset(padded, v));
  EXPECT_TRUE(test::keys_nondecreasing(test::non_empty(padded)));
}

TEST(ObliviousSort, PaddedInputWithEmptyCells) {
  Client client(test::params(4, 64));
  std::vector<Record> v(1024);
  for (std::uint64_t i = 0; i < 1024; i += 3) v[i] = {1024 - i, i};
  ExtArray a = client.alloc(1024, Client::Init::kUninit);
  client.poke(a, v);
  ObliviousSortResult res = oblivious_sort(client, a, 3);
  ASSERT_TRUE(res.status.ok());
  auto out = client.peek(a);
  EXPECT_TRUE(test::same_multiset(out, v));
  EXPECT_TRUE(test::padded_sorted(out));
}

TEST(ObliviousSort, SucceedsAcrossSeeds) {
  Client client(test::params(4, 4 * 16));
  const std::uint64_t N = 4 * 20000;
  auto v = test::random_records(N, 23);
  ExtArray a = client.alloc(N, Client::Init::kUninit);
  ObliviousSortOptions opts;
  opts.min_recursive_blocks = 512;
  int failures = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    client.poke(a, v);
    ExtArray out;
    auto res = oblivious_sort_padded(client, a, &out, seed, opts);
    if (!res.status.ok()) {
      ++failures;
      continue;
    }
    auto padded = client.peek(out);
    EXPECT_TRUE(test::same_multiset(padded, v)) << "seed " << seed;
    EXPECT_TRUE(test::keys_nondecreasing(test::non_empty(padded))) << "seed " << seed;
  }
  EXPECT_LE(failures, 1);
}

TEST(ObliviousSort, IsOblivious) {
  ObliviousSortOptions opts;
  opts.min_recursive_blocks = 256;
  auto result = obliv::check_oblivious(
      test::params(4, 4 * 16), 4 * 20000, obliv::canonical_inputs(14),
      [&](Client& c, const ExtArray& a) { (void)oblivious_sort(c, a, 5, opts); });
  EXPECT_TRUE(result.oblivious) << result.diagnosis;
}

// E8a's shape options: the paper's dense rule off, so Theorem 21 recurses at
// laboratory sizes.
ObliviousSortOptions shape_options(std::uint64_t min_recursive_blocks) {
  ObliviousSortOptions opts;
  opts.paper_dense_rule = false;
  opts.sparse_quantiles = true;
  opts.quantiles.paper_intervals = false;
  opts.min_recursive_blocks = min_recursive_blocks;
  return opts;
}

TEST(ObliviousSort, RecursiveShapeIsOblivious) {
  // IsOblivious runs under the dense rule and never recurses.  Here every
  // node below the root holds padding, so any array sized from a node's
  // private record count would show in the trace.
  const ObliviousSortOptions opts = shape_options(512);
  auto result = obliv::check_oblivious(
      test::params(8, 512), 8 * 1024, obliv::canonical_inputs(14),
      [&](Client& c, const ExtArray& a) {
        auto res = oblivious_sort(c, a, 5, opts);
        EXPECT_GT(res.stats.nodes, 1u) << "did not recurse";
      });
  EXPECT_TRUE(result.oblivious) << result.diagnosis;
}

TEST(ObliviousSort, OverfullLeafFailsInsteadOfDroppingRecords) {
  // B=8, m=256: the root deals 5 colors through the Theorem 6 fallback and
  // its children are deterministic leaves, which keep only the blocks their
  // public bound allows.  color_slack = 0 still covers the real occupancy;
  // -0.25 starves it, so the leaves overflow what they keep.  Every run must
  // then either report failure or still sort correctly; none may return ok
  // with records cut off.
  const std::uint64_t N = 8 * 1024;
  auto v = test::random_records(N, 4);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end(), RecordLess{});
  int failures = 0;
  for (double slack : {0.0, -0.25}) {
    ObliviousSortOptions opts = shape_options(512);
    opts.color_slack = slack;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      Client client(test::params(8, 8 * 256));
      ExtArray a = client.alloc(N, Client::Init::kUninit);
      client.poke(a, v);
      auto res = oblivious_sort(client, a, seed, opts);
      EXPECT_GT(res.stats.det_sort_nodes, 1u) << "did not recurse";
      if (!res.status.ok()) {
        ++failures;
        continue;
      }
      auto out = client.peek(a);
      std::sort(out.begin(), out.end(), RecordLess{});
      EXPECT_EQ(out, sorted) << "slack " << slack << " seed " << seed
                             << " returned ok without all its records";
    }
  }
  EXPECT_GE(failures, 1) << "the starved bound never overflowed a leaf";
}

TEST(ObliviousSort, PhaseIosSumToTotal) {
  Client client(test::params(8, 512));
  const std::uint64_t N = 8 * 1024;
  ExtArray a = client.alloc(N, Client::Init::kUninit);
  client.poke(a, test::random_records(N, 6));
  client.reset_stats();
  auto res = oblivious_sort(client, a, 3, shape_options(512));
  ASSERT_TRUE(res.status.ok()) << res.status.message();
  const SortPhaseIos& p = res.stats.phase_ios;
  EXPECT_EQ(p.total(), client.stats().total());
  EXPECT_GT(p.quantiles, 0u);
  EXPECT_GT(p.distribution, 0u);
  EXPECT_GT(p.compaction, 0u);
  EXPECT_GT(p.leaf_sorts, 0u);
  EXPECT_GT(p.assembly, 0u);
  EXPECT_GT(p.finish, 0u);
}

TEST(ObliviousSort, GrowthRateBelowDeterministic) {
  // E8's headline shape: per-block I/O of the randomized sort grows like
  // log_m(n) (one extra recursion level per q-fold size increase) while the
  // deterministic Lemma-2 sort grows like log^2(n/m).  At laboratory scale
  // absolute constants favor the deterministic sort (the paper's own dense
  // rule says to use it there); the reproducible claim is the RELATIVE
  // GROWTH: quadrupling n must inflate the randomized sort's per-block I/O
  // by a smaller factor than the deterministic one's.
  const std::size_t B = 8;
  const std::uint64_t M = 8 * 256;  // m = 256 -> q = 4
  ObliviousSortOptions opts;
  opts.paper_dense_rule = false;
  opts.sparse_quantiles = true;
  opts.quantiles.paper_intervals = false;
  opts.min_recursive_blocks = 2048;

  std::vector<double> det_pb, rand_pb;
  for (std::uint64_t n_blocks : {4096ull, 16384ull}) {
    const std::uint64_t N = n_blocks * B;
    det_pb.push_back(
        static_cast<double>(sortnet::ext_sort_predicted_ios(n_blocks, 256)) /
        static_cast<double>(n_blocks));

    Client c(test::params(B, M));
    ExtArray a = c.alloc(N, Client::Init::kUninit);
    c.poke(a, test::random_records(N, 2));
    c.reset_stats();
    ExtArray out;
    auto res = oblivious_sort_padded(c, a, &out, 5, opts);
    ASSERT_TRUE(res.status.ok()) << res.status.message();
    rand_pb.push_back(static_cast<double>(c.stats().total()) /
                      static_cast<double>(n_blocks));
  }
  const double det_growth = det_pb[1] / det_pb[0];
  const double rand_growth = rand_pb[1] / rand_pb[0];
  EXPECT_LT(rand_growth, det_growth)
      << "rand " << rand_pb[0] << "->" << rand_pb[1] << " det " << det_pb[0]
      << "->" << det_pb[1];
}

TEST(ObliviousSort, StatsPopulated) {
  Client client(test::params(4, 4 * 16));
  ExtArray a = client.alloc(4 * 30000, Client::Init::kUninit);
  client.poke(a, test::random_records(4 * 30000, 1));
  ObliviousSortOptions opts;
  opts.min_recursive_blocks = 512;
  ExtArray out;
  auto res = oblivious_sort_padded(client, a, &out, 2, opts);
  EXPECT_GE(res.stats.nodes, 1u);
  EXPECT_GE(res.stats.det_sort_nodes, 1u);
}

}  // namespace
}  // namespace oem::core
