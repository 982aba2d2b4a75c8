#include "core/select.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/consolidate.h"
#include "core/sample.h"
#include "sortnet/external_sort.h"
#include "util/math.h"

namespace oem::core {

namespace {

constexpr Record kMinusInf{0, 0};
constexpr Record kPlusInf{kEmptyKey - 1, kEmptyKey};

/// Scan an array of records (empties ignored) and capture the records at the
/// given 1-based ranks (which must be sorted ascending).  Rank 0 entries are
/// skipped.  One pass; the trace depends only on the array size.
void capture_ranks(Client& client, const ExtArray& a,
                   const std::vector<std::uint64_t>& ranks, std::vector<Record>& out) {
  out.assign(ranks.size(), Record{});
  CacheLease lease(client.cache(), client.B());
  BlockBuf blk;
  std::uint64_t seen = 0;
  for (std::uint64_t b = 0; b < a.num_blocks(); ++b) {
    client.read_block(a, b, blk);
    for (const Record& r : blk) {
      if (r.is_empty()) continue;
      ++seen;
      for (std::size_t i = 0; i < ranks.size(); ++i)
        if (ranks[i] == seen) out[i] = r;
    }
  }
}

}  // namespace

SelectResult oblivious_select(Client& client, const ExtArray& a, std::uint64_t k,
                              std::uint64_t seed, const SelectOptions& opts) {
  SelectResult res;
  const std::uint64_t N = a.num_records();
  const std::size_t B = client.B();
  if (N == 0 || k == 0 || k > N) {
    res.status = Status::InvalidArgument("rank k out of range");
    return res;
  }
  rng::Xoshiro coins(seed ^ 0x5e1ec7ULL);

  // Base case: the array fits in private memory; one scan.
  const std::uint64_t base_cap =
      opts.base_case_records != 0 ? opts.base_case_records : client.M() / 2;
  if (N <= base_cap) {
    CacheLease lease(client.cache(), N + B);
    std::vector<Record> all;
    all.reserve(N);
    BlockBuf blk;
    for (std::uint64_t b = 0; b < a.num_blocks(); ++b) {
      client.read_block(a, b, blk);
      for (const Record& r : blk)
        if (!r.is_empty() && all.size() < N) all.push_back(r);
    }
    std::nth_element(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     all.end(), RecordLess{});
    res.value = all[k - 1];
    res.status = Status::Ok();
    return res;
  }

  const double dN = static_cast<double>(N);
  const double p = std::pow(dN, -opts.sample_exponent);
  const double expected_sample = dN * p;
  const double n38 = std::pow(dN, 3.0 / 8.0);
  // Sample-rank slack: the paper's N^{3/8} in paper_band mode, a Chernoff
  // c*sqrt(Np) otherwise.
  const double rank_slack = opts.paper_band
                                ? n38
                                : std::ceil(opts.chernoff_c * std::sqrt(expected_sample)) + 2.0;

  // --- Phase 1: Bernoulli(N^{-e}) sample, picked by public coins, sorted.
  CoinSample sample = coin_sample(client, a, p, coins);
  const std::uint64_t sample_count = sample.real;

  // --- Phase 2: bracketing range [x, y] from sample ranks (Lemma 11).
  // When the back-rank formula goes negative, the paper's y' "does not
  // exist" and y falls back to the global maximum -- do NOT clamp, or y'
  // becomes the sample maximum, which can sit below the k-th element.
  const double dk = static_cast<double>(k);
  const std::int64_t lo_rank_s =
      static_cast<std::int64_t>(std::ceil(dk * p - rank_slack));
  const std::int64_t hi_back = static_cast<std::int64_t>(
      std::ceil((dN - dk) * p - 2.0 * rank_slack));
  const std::int64_t hi_rank_s = static_cast<std::int64_t>(sample_count) - hi_back;

  std::vector<std::uint64_t> want = {
      lo_rank_s >= 1 && lo_rank_s <= static_cast<std::int64_t>(sample_count)
          ? static_cast<std::uint64_t>(lo_rank_s)
          : 0,
      hi_rank_s >= 1 && hi_rank_s <= static_cast<std::int64_t>(sample_count)
          ? static_cast<std::uint64_t>(hi_rank_s)
          : 0};
  std::vector<Record> got;
  capture_ranks(client, sample.sorted, want, got);
  Record x = want[0] != 0 ? got[0] : kMinusInf;
  Record y = want[1] != 0 ? got[1] : kPlusInf;

  // Global min/max scan (the paper's x'' / y'') so the bracket always covers
  // the extremes when the sample ranks fall off either end.
  {
    CacheLease lease(client.cache(), B);
    BlockBuf blk;
    Record mn = kPlusInf, mx = kMinusInf;
    for (std::uint64_t b = 0; b < a.num_blocks(); ++b) {
      client.read_block(a, b, blk);
      for (const Record& r : blk) {
        if (r.is_empty()) continue;
        if (RecordLess{}(r, mn)) mn = r;
        if (RecordLess{}(mx, r)) mx = r;
      }
    }
    if (RecordLess{}(x, mn)) x = mn;  // x = max(x', x'')
    if (RecordLess{}(mx, y)) y = mx;  // y = min(y', y'')
  }

  // --- Phase 3: band scan, compaction, final select.
  // Band capacity: the paper's 8 N^{7/8} (Lemma 11), or the Chernoff form
  // (2*rank_slack + 4) sample gaps of expected width 1/p.
  const std::uint64_t band_cap = std::min<std::uint64_t>(
      N, static_cast<std::uint64_t>(std::ceil(
             opts.paper_band
                 ? opts.band_factor * std::pow(dN, 7.0 / 8.0)
                 // The band spans ~3*rank_slack sample gaps (slack below x,
                 // 2*slack above y, as in the paper's rank formulas) of
                 // expected width 1/p each; 4*slack + 8 leaves gap-width
                 // deviation room.
                 : (4.0 * rank_slack + 8.0) / p)));
  std::uint64_t count_lt = 0, count_band = 0;
  ConsolidateResult band = consolidate(
      client, a, [&](std::uint64_t, const Record& r) {
        if (r.is_empty()) return false;
        if (RecordLess{}(r, x)) {
          ++count_lt;
          return false;
        }
        const bool in_band = !RecordLess{}(y, r);  // x <= r <= y
        if (in_band) ++count_band;
        return in_band;
      });
  if (count_band > band_cap)
    res.status.Update(Status::WhpFailure("band overflow (Lemma 11 tail)"));

  const std::uint64_t d_blocks = ceil_div(band_cap, B) + 1;
  SparseCompactResult dsc =
      sparse_compact_blocks(client, band.out, d_blocks, block_nonempty_pred(),
                            seed ^ 0xdecade2ULL, opts.sparse);
  res.status.Update(dsc.status);
  sortnet::ext_oblivious_sort(client, dsc.out);

  // 1-based rank within the band; 0 signals "escaped below x" (failure).
  const std::uint64_t target = count_lt < k ? k - count_lt : 0;
  if (target == 0 || target > count_band) {
    res.status.Update(Status::WhpFailure("k-th element escaped the band"));
  }
  std::vector<Record> answer;
  capture_ranks(client, dsc.out, {target == 0 ? std::uint64_t{0} : target}, answer);
  res.value = answer[0];
  return res;
}

}  // namespace oem::core
