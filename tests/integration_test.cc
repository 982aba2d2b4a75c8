// Cross-module integration and failure-injection tests.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/butterfly.h"
#include "core/consolidate.h"
#include "core/loose_compact.h"
#include "core/oblivious_sort.h"
#include "core/quantiles.h"
#include "core/select.h"
#include "core/sparse_compact.h"
#include "sortnet/external_sort.h"
#include "test_util.h"

namespace oem::core {
namespace {

TEST(FailureSweep, RepairsInjectedChildFailures) {
  // Scramble two children's outputs at the sweep level; the sweep must
  // restore them from the (intact) child inputs so the final result is a
  // correct padded sort.
  Client client(test::params(4, 4 * 16));  // m = 16, q = 2
  const std::uint64_t N = 4 * 30000;
  auto v = test::random_records(N, 77);
  ExtArray a = client.alloc(N, Client::Init::kUninit);
  client.poke(a, v);
  ObliviousSortOptions opts;
  opts.min_recursive_blocks = 512;
  opts.paper_dense_rule = false;  // engage the recursive pipeline at lab scale
  opts.debug_fail_children_mask = 0b101;  // children 0 and 2 fail
  ExtArray out;
  client.reset_stats();
  ObliviousSortResult res = oblivious_sort_padded(client, a, &out, 3, opts);
  ASSERT_TRUE(res.status.ok()) << res.status.message();
  EXPECT_GE(res.stats.sweep_repairs, 2u);
  // The sweep's I/O is charged too: the phases still sum to the total.
  EXPECT_EQ(res.stats.phase_ios.total(), client.stats().total());
  auto padded = client.peek(out);
  EXPECT_TRUE(test::same_multiset(padded, v)) << "sweep lost records";
  EXPECT_TRUE(test::keys_nondecreasing(test::non_empty(padded)));
}

TEST(FailureSweep, TooManyFailuresIsReportedNotSilent) {
  Client client(test::params(4, 4 * 16));
  const std::uint64_t N = 4 * 30000;
  ExtArray a = client.alloc(N, Client::Init::kUninit);
  client.poke(a, test::random_records(N, 7));
  ObliviousSortOptions opts;
  opts.min_recursive_blocks = 512;
  opts.paper_dense_rule = false;
  opts.debug_fail_children_mask = 0b111;  // three failures > two slots
  ExtArray out;
  ObliviousSortResult res = oblivious_sort_padded(client, a, &out, 3, opts);
  EXPECT_FALSE(res.status.ok());
}

TEST(CacheBudget, CoreAlgorithmsStayWithinM) {
  // The point of the paper is M << N; verify the carefully-leased
  // algorithms' peak private-memory use never exceeds the declared M.
  struct Case {
    std::string name;
    std::function<void(Client&, const ExtArray&)> run;
    std::size_t B;
    std::uint64_t M;
    std::uint64_t records;
  };
  std::vector<Case> cases = {
      {"consolidate", [](Client& c, const ExtArray& a) {
         consolidate(c, a, nonempty_pred());
       }, 8, 128, 8 * 512},
      {"ext_sort", [](Client& c, const ExtArray& a) {
         sortnet::ext_oblivious_sort(c, a);
       }, 8, 128, 8 * 512},
      {"butterfly", [](Client& c, const ExtArray& a) {
         tight_compact_blocks(c, a, block_nonempty_pred());
       }, 8, 128, 8 * 512},
      {"loose_compact", [](Client& c, const ExtArray& a) {
         loose_compact_blocks(c, a, a.num_blocks() / 5, block_nonempty_pred(), 3);
       }, 8, 256, 8 * 1024},
  };
  for (const auto& cs : cases) {
    Client client(test::params(cs.B, cs.M));
    ExtArray a = client.alloc(cs.records, Client::Init::kUninit);
    client.poke(a, test::random_records(cs.records, 3));
    client.cache().reset_peak();
    cs.run(client, a);
    EXPECT_LE(client.cache().peak(), cs.M)
        << cs.name << " exceeded its private-memory budget";
  }
}

TEST(Integration, SelectAgreesWithSortedOutput) {
  // Sort with Theorem 21, then confirm Theorem 13 selection returns the
  // same order statistics on the unsorted copy.
  Client client(test::params(8, 8 * 256));
  const std::uint64_t N = 20000;
  auto v = test::random_records(N, 5);
  ExtArray unsorted = client.alloc(N, Client::Init::kUninit);
  ExtArray tosort = client.alloc(N, Client::Init::kUninit);
  client.poke(unsorted, v);
  client.poke(tosort, v);

  ASSERT_TRUE(oblivious_sort(client, tosort, 3).status.ok());
  auto sorted = client.peek(tosort);

  for (std::uint64_t k : {std::uint64_t{1}, N / 4, N / 2, N}) {
    auto res = oblivious_select(client, unsorted, k, 9,
                                practical_select_options());
    ASSERT_TRUE(res.status.ok()) << res.status.message();
    EXPECT_EQ(res.value.key, sorted[k - 1].key) << "k=" << k;
  }
}

TEST(Integration, QuantilesSplitColorsEvenly) {
  // Quantile splitters should partition the data into near-equal colors --
  // the property the sort's distribution step relies on.
  Client client(test::params(8, 8 * 256));
  const std::uint64_t N = 32768;
  auto v = test::random_records(N, 13);
  ExtArray a = client.alloc(N, Client::Init::kUninit);
  client.poke(a, v);
  QuantilesOptions opts;
  opts.paper_intervals = false;
  auto res = oblivious_quantiles(client, a, 3, 5, opts);
  ASSERT_TRUE(res.status.ok());
  std::vector<std::uint64_t> counts(4, 0);
  for (const Record& r : v) {
    unsigned c = 0;
    for (const Record& s : res.quantiles)
      if (s.key < r.key) ++c;
    ++counts[c];
  }
  for (unsigned c = 0; c < 4; ++c) {
    EXPECT_NEAR(static_cast<double>(counts[c]), N / 4.0, N / 16.0)
        << "color " << c << " unbalanced";
  }
}

TEST(Integration, CompactThenExpandRoundTripsThroughConsolidation) {
  // consolidate -> tight compact -> expand back to consolidated positions.
  Client client(test::params(4, 64));
  const std::uint64_t N = 512;
  ExtArray a = client.alloc(N, Client::Init::kUninit);
  auto v = test::iota_records(N);
  client.poke(a, v);
  ConsolidateResult cons = consolidate(
      client, a, [](std::uint64_t, const Record& r) { return r.key % 3 == 0; });
  auto consolidated = client.peek(cons.out);

  TightCompactResult tight =
      tight_compact_blocks(client, cons.out, block_nonempty_pred());
  // Where were the occupied blocks?
  std::vector<std::uint64_t> positions;
  for (std::uint64_t b = 0; b < cons.out.num_blocks(); ++b)
    if (!consolidated[b * 4].is_empty()) positions.push_back(b);
  ASSERT_EQ(tight.occupied, positions.size());

  ExtArray back = expand_blocks(client, tight.out, tight.occupied,
                                cons.out.num_blocks(),
                                [&](std::uint64_t i) { return positions[i]; });
  EXPECT_EQ(client.peek(back), consolidated);
}

TEST(Integration, EndToEndOutsourcedWorkflow) {
  // The quickstart scenario as a test: outsource, sort, verify, and confirm
  // Bob's storage never holds plaintext.
  Client client(test::params(8, 8 * 64));
  const std::uint64_t N = 8192;
  std::vector<Record> v(N);
  for (std::uint64_t i = 0; i < N; ++i) v[i] = {0xfeedfacecafeULL + (i * 37 % N), i};
  ExtArray a = client.alloc(N, Client::Init::kUninit);
  client.poke(a, v);

  // No plaintext word on the device equals any record key.
  std::uint64_t leaks = 0;
  for (std::uint64_t b = 0; b < a.num_blocks(); ++b)
    for (Word w : client.device().raw(a.device_block(b)))
      if (w >= 0xfeedfacecafeULL && w < 0xfeedfacecafeULL + N) ++leaks;
  EXPECT_EQ(leaks, 0u);

  ASSERT_TRUE(oblivious_sort(client, a, 21).status.ok());
  auto out = client.peek(a);
  EXPECT_TRUE(test::same_multiset(out, v));
  EXPECT_TRUE(test::keys_nondecreasing(test::non_empty(out)));
}

}  // namespace
}  // namespace oem::core
