#include "core/quantiles.h"

#include <algorithm>
#include <cmath>

#include "core/consolidate.h"
#include "core/sample.h"
#include "sortnet/external_sort.h"
#include "util/math.h"

namespace oem::core {

namespace {
constexpr Record kMinusInf{0, 0};
constexpr Record kPlusInf{kEmptyKey - 1, kEmptyKey};
}  // namespace

std::vector<std::uint64_t> quantile_ranks(std::uint64_t N, std::uint64_t q) {
  std::vector<std::uint64_t> ranks(q);
  for (std::uint64_t j = 1; j <= q; ++j) {
    std::uint64_t r = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(j) * static_cast<double>(N) /
                     static_cast<double>(q + 1)));
    ranks[j - 1] = std::clamp<std::uint64_t>(r, 1, N);
  }
  return ranks;
}

QuantilesResult oblivious_quantiles(Client& client, const ExtArray& a, std::uint64_t q,
                                    std::uint64_t seed, const QuantilesOptions& opts) {
  QuantilesResult res;
  // Nb is public and sizes everything; N is private and sets only ranks.
  const std::uint64_t Nb = opts.real_bound != 0 ? opts.real_bound : a.num_records();
  const std::uint64_t N = opts.real_records != 0 ? opts.real_records : Nb;
  const std::size_t B = client.B();
  if (q == 0 || q + 1 > Nb) {
    res.status = Status::InvalidArgument("need 1 <= q and q+1 <= N");
    return res;
  }
  if (N > Nb)
    res.status.Update(Status::WhpFailure("more real records than the public bound"));
  rng::Xoshiro coins(seed ^ 0x9ca17e5ULL);
  const std::vector<std::uint64_t> targets = quantile_ranks(N, q);

  // --- Dense case: (M/B)^4 > N/B, or simply small N -- sort and scan.
  const std::uint64_t n_blocks = a.num_blocks();
  const std::uint64_t m = client.m();
  const std::uint64_t base_cap =
      opts.base_case_records != 0 ? opts.base_case_records : client.M() / 2;
  // Branch on public parameters only (capacity, never the private count).
  if (!opts.force_sparse &&
      (m * m * m * m > n_blocks || a.num_records() <= base_cap)) {
    // Scratch copy so the caller's array is untouched.
    ExtArray scratch = client.alloc_blocks(n_blocks, Client::Init::kUninit);
    {
      CacheLease lease(client.cache(), B);
      BlockBuf blk;
      for (std::uint64_t i = 0; i < n_blocks; ++i) {
        client.read_block(a, i, blk);
        client.write_block(scratch, i, blk);
      }
    }
    sortnet::ext_oblivious_sort(client, scratch);
    res.quantiles.assign(q, Record{});
    CacheLease lease(client.cache(), B + q);
    BlockBuf blk;
    std::uint64_t seen = 0;
    for (std::uint64_t b = 0; b < scratch.num_blocks(); ++b) {
      client.read_block(scratch, b, blk);
      for (const Record& r : blk) {
        if (r.is_empty()) continue;
        ++seen;
        for (std::uint64_t j = 0; j < q; ++j)
          if (targets[j] == seen) res.quantiles[j] = r;
      }
    }
    return res;
  }

  const double dNb = static_cast<double>(Nb);
  const double p = std::pow(dNb, -0.25);
  const double n12 = std::sqrt(dNb);
  // Expected number of real records in the sample: N^{3/4} when N = Nb.
  const double nhat = static_cast<double>(N) * p;
  // Sample-rank slack: the paper's sqrt(N) or the Chernoff c*sqrt(Np).
  const double rank_slack =
      opts.paper_intervals ? n12
                           : std::ceil(opts.chernoff_c * std::sqrt(dNb * p)) + 2.0;

  // --- Step 1: coin-picked sample, sorted.
  CoinSample sample = coin_sample(client, a, p, coins);
  const std::uint64_t sample_count = sample.real;

  // --- Step 2: interval endpoints from sample ranks.
  // x_j at sample rank nhat*j/(q+1) - sqrt(N); y_j at
  // |C| - (nhat - nhat*j/(q+1) - 2 sqrt(N)), with nhat = N^{3/4} (paper).
  std::vector<std::int64_t> lo_rank(q), hi_rank(q);
  for (std::uint64_t j = 1; j <= q; ++j) {
    const double frac = nhat * static_cast<double>(j) / static_cast<double>(q + 1);
    if (opts.paper_intervals) {
      lo_rank[j - 1] = static_cast<std::int64_t>(std::floor(frac - n12));
      hi_rank[j - 1] = static_cast<std::int64_t>(sample_count) -
                       static_cast<std::int64_t>(std::floor(nhat - frac - 2.0 * n12));
    } else {
      lo_rank[j - 1] = static_cast<std::int64_t>(std::floor(frac - rank_slack));
      hi_rank[j - 1] = static_cast<std::int64_t>(std::ceil(frac + rank_slack));
    }
  }
  // Capture all endpoint records in one scan of C (2q ranks, private).
  std::vector<Record> xs(q, kMinusInf), ys(q, kPlusInf);
  {
    CacheLease lease(client.cache(), B + 4 * q);
    BlockBuf blk;
    std::uint64_t seen = 0;
    for (std::uint64_t b = 0; b < sample.sorted.num_blocks(); ++b) {
      client.read_block(sample.sorted, b, blk);
      for (const Record& r : blk) {
        if (r.is_empty()) continue;
        ++seen;
        for (std::uint64_t j = 0; j < q; ++j) {
          if (lo_rank[j] >= 1 && static_cast<std::uint64_t>(lo_rank[j]) == seen)
            xs[j] = r;
          if (hi_rank[j] >= 1 && static_cast<std::uint64_t>(hi_rank[j]) == seen)
            ys[j] = r;
        }
      }
    }
  }
  // Endpoints whose formula rank falls off the sample default to +-inf,
  // which subsumes the paper's "x_1 = smallest / y_q = largest" convention
  // (reading the exceptions literally would make the first interval cover
  // everything below quantile 1, contradicting Lemma 15's width bound).
  for (std::uint64_t j = 0; j < q; ++j) {
    if (lo_rank[j] < 1) xs[j] = kMinusInf;
    if (hi_rank[j] < 1 || static_cast<std::uint64_t>(hi_rank[j]) > sample_count)
      ys[j] = kPlusInf;
  }

  // --- Step 3: merge the (possibly overlapping -- at small N the slack is
  // a sizable fraction of the sample) intervals into disjoint SEGMENTS, all
  // privately.  seg_of[j] records which segment absorbed interval j.
  const std::uint64_t interval_cap = std::min<std::uint64_t>(
      Nb, static_cast<std::uint64_t>(std::ceil(
             opts.paper_intervals
                 ? opts.interval_factor * std::pow(dNb, 0.75)
                 // Interval spans ~2*rank_slack sample gaps of expected
                 // width 1/p; 3*slack + 8 leaves room for gap-width
                 // deviation (Lemma 15's margin, Chernoff-sized).
                 : (3.0 * rank_slack + 8.0) / p)));
  struct Segment {
    Record lo, hi;
    std::uint64_t merged = 0;  // how many intervals it absorbed
  };
  std::vector<Segment> segs;
  std::vector<std::size_t> seg_of(q);
  {
    std::vector<std::size_t> order(q);
    for (std::size_t j = 0; j < q; ++j) order[j] = j;
    std::sort(order.begin(), order.end(), [&](std::size_t a1, std::size_t b1) {
      return RecordLess{}(xs[a1], xs[b1]);
    });
    for (std::size_t j : order) {
      if (!segs.empty() && !RecordLess{}(segs.back().hi, xs[j])) {
        // Overlaps or touches the previous segment: merge.
        if (RecordLess{}(segs.back().hi, ys[j])) segs.back().hi = ys[j];
        segs.back().merged++;
      } else {
        segs.push_back({xs[j], ys[j], 1});
      }
      seg_of[j] = segs.size() - 1;
    }
  }
  const std::size_t S = segs.size();

  // Tag scan: shadow record = {key: original key, 0} for records inside any
  // segment (the union D), empty otherwise.  Privately count, per segment,
  // the records inside it and the records *outside every segment* below its
  // start (below_outside): the j-th quantile's rank within sorted D is then
  // exactly targets[j] - below_outside[seg_of[j]].
  std::vector<std::uint64_t> seg_in(S, 0), below_outside(S, 0);
  ExtArray shadow = client.alloc_blocks(n_blocks, Client::Init::kUninit);
  {
    CacheLease lease(client.cache(), 2 * B + 2 * q);
    BlockBuf blk, out(B);
    for (std::uint64_t i = 0; i < n_blocks; ++i) {
      client.read_block(a, i, blk);
      for (std::size_t rix = 0; rix < B; ++rix) {
        const Record& r = blk[rix];
        Record sh{};  // empty unless tagged
        if (!r.is_empty()) {
          bool inside = false;
          for (std::size_t s = 0; s < S; ++s) {
            if (!RecordLess{}(r, segs[s].lo) && !RecordLess{}(segs[s].hi, r)) {
              inside = true;
              ++seg_in[s];
              sh = Record{r.key, 0};
              break;  // segments are disjoint
            }
          }
          if (!inside) {
            for (std::size_t s = 0; s < S; ++s)
              if (RecordLess{}(r, segs[s].lo)) ++below_outside[s];
          }
        }
        out[rix] = sh;
      }
      client.write_block(shadow, i, out);
    }
  }
  for (std::size_t s = 0; s < S; ++s)
    if (seg_in[s] > segs[s].merged * interval_cap)
      res.status.Update(Status::WhpFailure("interval overflow (Lemma 15 tail)"));

  ConsolidateResult scons = consolidate(client, shadow, nonempty_pred());
  const std::uint64_t d_cap = std::min<std::uint64_t>(Nb, q * interval_cap);
  const std::uint64_t d_blocks = ceil_div(d_cap, B) + 1;
  SparseCompactResult dsc =
      sparse_compact_blocks(client, scons.out, d_blocks, block_nonempty_pred(),
                            seed ^ 0xd15cULL, opts.sparse);
  res.status.Update(dsc.status);
  if (dsc.distinguished * B > d_cap + B)
    res.status.Update(Status::WhpFailure("union overflow (Lemma 15 tail)"));
  sortnet::ext_oblivious_sort(client, dsc.out);  // by key

  // --- Step 4: private rank arithmetic + one capture scan over sorted D.
  // Every record below the j-th quantile is either in D below it or counted
  // in below_outside[seg_of[j]] (it cannot sit between the segment start and
  // the quantile -- that region is inside the segment, hence in D).
  std::vector<std::uint64_t> seg_prefix(S + 1, 0);
  for (std::size_t s = 0; s < S; ++s) seg_prefix[s + 1] = seg_prefix[s] + seg_in[s];
  std::vector<std::uint64_t> want(q, 0);
  for (std::uint64_t j = 0; j < q; ++j) {
    const std::uint64_t t = targets[j];
    const std::size_t s = seg_of[j];
    const std::uint64_t below = below_outside[s];
    // The rank formula is valid only if the quantile actually fell inside
    // its own segment: its D-rank must land within the segment's D-range.
    if (t <= below || t - below <= seg_prefix[s] || t - below > seg_prefix[s + 1]) {
      res.status.Update(
          Status::WhpFailure("quantile escaped its interval (Lemma 16 tail)"));
    } else {
      want[j] = t - below;
    }
  }
  res.quantiles.assign(q, Record{});
  {
    CacheLease lease(client.cache(), B + 2 * q);
    BlockBuf blk;
    std::uint64_t seen = 0;
    for (std::uint64_t b = 0; b < dsc.out.num_blocks(); ++b) {
      client.read_block(dsc.out, b, blk);
      for (const Record& r : blk) {
        if (r.is_empty()) continue;
        ++seen;
        for (std::uint64_t j = 0; j < q; ++j)
          if (want[j] == seen) res.quantiles[j] = Record{r.key, 0};
      }
    }
  }
  return res;
}

}  // namespace oem::core
