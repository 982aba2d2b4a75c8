#include "core/oblivious_sort.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/butterfly.h"
#include "core/consolidate.h"
#include "extmem/pipeline.h"
#include "hash/hashing.h"
#include "sortnet/external_sort.h"
#include "util/math.h"

namespace oem::core {

namespace {

struct Ctx {
  Client& client;
  const ObliviousSortOptions& opts;
  SortStats stats;
  /// Failure sweeping engages only at the recursion level whose children are
  /// at most this many blocks -- the paper sweeps the O(sqrt(n))-sized
  /// subproblems once, not every level (a per-level sweep would add a
  /// deterministic-sort cost per level and destroy the I/O bound).
  std::uint64_t sweep_max_blocks = 0;
  /// Client I/O total at the last phase boundary.
  std::uint64_t mark = 0;

  /// Charges the I/O since the last boundary to `phase`.  Every stretch of
  /// the recursion ends in a charge, so the phases partition the sort.
  void charge(std::uint64_t SortPhaseIos::*phase) {
    const std::uint64_t now = client.stats().total();
    stats.phase_ios.*phase += now - mark;
    mark = now;
  }
};

/// Copy `count` blocks from src[0..] to dst[dst_first..], padding with empty
/// blocks when src runs out.  One chunked pipeline scan; per-block I/O counts
/// are identical to the per-block loop this replaced.
void copy_blocks(Client& c, const ExtArray& src, const ExtArray& dst,
                 std::uint64_t dst_first, std::uint64_t count) {
  pipelined_copy_pad(c, src, 0, dst, dst_first, count);
}

/// copy_blocks that also counts, privately, the non-empty records it copies.
/// Same reads and writes as copy_blocks.
std::uint64_t copy_counting(Client& c, const ExtArray& src, const ExtArray& dst,
                            std::uint64_t count) {
  const std::size_t B = c.B();
  const std::uint64_t W = std::max<std::uint64_t>(1, c.io_batch_blocks());
  std::uint64_t real = 0;
  run_block_pipeline(
      c, ceil_div(count, W),
      [&](std::uint64_t t, PipelinePass& io) {
        io.read_from = &src;
        io.write_to = &dst;
        for (std::uint64_t i = t * W; i < std::min(count, (t + 1) * W); ++i) {
          if (i < src.num_blocks()) io.reads.push_back(i);
          io.writes.push_back(i);
        }
      },
      [&](std::uint64_t t, std::span<Record> buf) {
        const std::uint64_t first = t * W;
        const std::uint64_t have =
            src.num_blocks() > first ? std::min(W, src.num_blocks() - first) : 0;
        for (std::size_t r = 0; r < have * B; ++r)
          if (!buf[r].is_empty()) ++real;
        std::fill(buf.begin() + static_cast<std::ptrdiff_t>(have * B), buf.end(), Record{});
      });
  return real;
}

/// Deterministic base case: copy + private sort or Lemma 2 sort.  The output
/// is the sorted copy's first ceil(real_bound/B) + 2 blocks, a view: the
/// sort moves every non-empty record in front of the empties, so the rest is
/// padding whenever the public bound holds.  The copy counts the records
/// privately, and a count past the kept size is a WhpFailure (records would
/// be cut off); the trace does not depend on it.
Status sort_node_deterministic(Ctx& ctx, const ExtArray& in, ExtArray* out,
                               std::uint64_t real_bound) {
  Client& client = ctx.client;
  const std::size_t B = client.B();
  ++ctx.stats.det_sort_nodes;
  const std::uint64_t n = std::max<std::uint64_t>(in.num_blocks(), 1);
  const std::uint64_t keep = std::min(n, ceil_div(real_bound, B) + 2);
  ExtArray sorted = client.alloc_blocks(n, Client::Init::kUninit);
  const std::uint64_t real = copy_counting(client, in, sorted, n);
  if (n <= client.m()) {
    sortnet::sort_region_in_cache(client, sorted, 0, n);
  } else {
    sortnet::ext_oblivious_sort(client, sorted);
  }
  *out = sorted.slice_blocks(0, keep);
  ctx.charge(&SortPhaseIos::leaf_sorts);
  if (real > keep * B) return Status::WhpFailure("leaf holds more records than its bound");
  return Status::Ok();
}

/// The recursive padded sort.
///
/// `real_bound` is a PUBLIC upper bound on the number of non-empty records
/// in `in`, derived from the top-level N by dividing by (q+1) per level --
/// this is what keeps all array sizes (hence the trace) data-independent
/// while the actual occupancy is private.
Status sort_node(Ctx& ctx, const ExtArray& in, ExtArray* out,
                 std::uint64_t real_bound, std::uint64_t seed, unsigned depth) {
  Client& client = ctx.client;
  const std::size_t B = client.B();
  const std::uint64_t n = in.num_blocks();
  const std::uint64_t m = client.m();
  ++ctx.stats.nodes;
  ctx.stats.levels = std::max(ctx.stats.levels, depth);

  const std::uint64_t q64 = iroot(m, 4);
  const std::uint64_t min_rec = ctx.opts.min_recursive_blocks != 0
                                    ? ctx.opts.min_recursive_blocks
                                    : 4 * m;
  // Base cases: all conditions are public parameters.
  const bool dense_regime = ctx.opts.paper_dense_rule && m * m * m * m >= n;
  if (n <= min_rec || dense_regime || q64 < 2 ||
      depth >= ctx.opts.max_depth || real_bound <= B * m) {
    return sort_node_deterministic(ctx, in, out, real_bound);
  }
  const unsigned q = static_cast<unsigned>(std::min<std::uint64_t>(q64, 255));
  const unsigned colors = q + 1;

  // Independent coin streams so that the (data-dependent) number of private
  // tie-breaking decisions can never shift the coins that drive the trace.
  rng::Xoshiro coins(seed ^ (0x517ab1e5ULL + depth));
  const std::uint64_t quantile_seed = coins.next();
  const std::uint64_t tie_seed = coins.next();
  rng::Xoshiro shuffle_coins = coins.split();
  std::vector<std::uint64_t> loose_seeds(colors), child_seeds(colors);
  for (unsigned c = 0; c < colors; ++c) loose_seeds[c] = coins.next();
  for (unsigned c = 0; c < colors; ++c) child_seeds[c] = coins.next();

  Status st;  // accumulates this node's *unsweepable* failures

  // --- 1. Splitters.  The public bound sizes the quantile algorithm; the
  // private real-record count steers only its rank arithmetic (see
  // QuantilesOptions).
  std::uint64_t real_records = 0;
  {
    // Read-only pipelined scan: the occupancy count is private state in the
    // compute stage; the read schedule is n blocks regardless of data.
    const std::uint64_t W = std::max<std::uint64_t>(1, client.io_batch_blocks());
    run_block_pipeline(
        client, n == 0 ? 0 : ceil_div(n, W),
        [&](std::uint64_t t, PipelinePass& io) {
          io.read_from = &in;
          const std::uint64_t first = t * W;
          const std::uint64_t k = std::min(W, n - first);
          for (std::uint64_t j = 0; j < k; ++j) io.reads.push_back(first + j);
        },
        [&](std::uint64_t, std::span<Record> buf) {
          for (const Record& r : buf)
            if (!r.is_empty()) ++real_records;
        });
  }
  QuantilesOptions qopts = ctx.opts.quantiles;
  qopts.real_bound = real_bound;
  qopts.real_records = std::max<std::uint64_t>(real_records, colors + 1);
  if (ctx.opts.sparse_quantiles) qopts.force_sparse = true;
  QuantilesResult quant = oblivious_quantiles(client, in, q, quantile_seed, qopts);
  ctx.charge(&SortPhaseIos::quantiles);
  // A quantile tail event yields degraded splitters, never a wrong sort:
  // colors stay internally sorted and ordered; the only risk is a capacity
  // overflow downstream, which the loose/deal stages flag themselves.
  if (!quant.status.ok()) ++ctx.stats.quantile_tails;
  std::vector<std::uint64_t> splitters(q, 0);
  for (unsigned j = 0; j < q && j < quant.quantiles.size(); ++j)
    splitters[j] = quant.quantiles[j].key;
  std::sort(splitters.begin(), splitters.end());

  // --- 2. Coloring.  Records strictly between splitters get the unique
  // eligible color; records equal to splitter keys are spread over the
  // eligible range by a deterministic keyed hash, so the consolidation and
  // the deal below agree on every block's color while duplicate-heavy
  // inputs still balance.
  auto color_of = [&](const Record& r) -> unsigned {
    unsigned lo = 0, hi = 0;
    for (unsigned j = 0; j < q; ++j) {
      if (splitters[j] < r.key) ++lo;
      if (splitters[j] <= r.key) ++hi;
    }
    if (lo == hi) return lo;
    const std::uint64_t h = hash::mix(r.key * 0x9e3779b97f4a7c15ULL ^ r.value, tie_seed);
    return lo + static_cast<unsigned>(h % (hi - lo + 1));
  };

  // --- 3. Multi-way consolidation into monochromatic blocks.
  MultiwayResult mw = multiway_consolidate(client, in, colors, color_of);
  st.Update(mw.status);

  // --- 4. Shuffle and deal.  At most ceil(real_bound/B) full blocks plus
  // the 4*colors tail blocks of the consolidation can be non-empty.
  shuffle_blocks(client, mw.out, shuffle_coins);
  DealResult deal = deal_blocks(client, mw.out, colors, color_of, ctx.opts.deal,
                                ceil_div(real_bound, B) + 4ull * colors);
  st.Update(deal.status);
  ctx.charge(&SortPhaseIos::distribution);

  // --- 5. Loose compaction of each color.  The public per-color bound is
  // real_bound/(q+1) plus a sqrt-scale additive slack (quantile rank error
  // and tie-spreading variance are both O(sqrt) deviations).  The slack must
  // be additive: a multiplicative slack would compound through the recursion
  // and blow the level capacity up exponentially.
  const double mean_child = static_cast<double>(real_bound) / static_cast<double>(colors);
  const std::uint64_t child_real_bound = std::max<std::uint64_t>(
      B, static_cast<std::uint64_t>(
             std::ceil(mean_child + 4.0 * ctx.opts.color_slack * std::sqrt(mean_child))) +
             2 * B);
  const std::uint64_t r_cap = ceil_div(child_real_bound, B) + 2;
  std::vector<ExtArray> child_inputs(colors);
  for (unsigned c = 0; c < colors; ++c) {
    if (4 * r_cap >= deal.colors[c].num_blocks()) {
      // Too tight for Theorem 8; use the deterministic Theorem 6 compactor
      // (same public branch for every color -- sizes are uniform).
      TightCompactResult tight =
          tight_compact_blocks(client, deal.colors[c], block_nonempty_pred());
      child_inputs[c] = client.alloc_blocks(5 * r_cap, Client::Init::kUninit);
      copy_blocks(client, tight.out, child_inputs[c], 0, 5 * r_cap);
      if (tight.occupied > 5 * r_cap)
        st.Update(Status::WhpFailure("color overflow after tight compaction"));
    } else {
      LooseCompactResult lc =
          loose_compact_blocks(client, deal.colors[c], r_cap,
                               block_nonempty_pred(), loose_seeds[c], ctx.opts.loose);
      st.Update(lc.status);  // loose losses are unsweepable: data is gone
      child_inputs[c] = lc.out;  // exactly 5 * r_cap blocks
    }
  }
  ctx.charge(&SortPhaseIos::compaction);

  // --- 6. Recursion.  Only the *sort* statuses are sweepable.
  std::vector<ExtArray> child_out(colors);
  std::vector<Status> child_sort_status(colors);
  for (unsigned c = 0; c < colors; ++c) {
    child_sort_status[c] =
        sort_node(ctx, child_inputs[c], &child_out[c], child_real_bound,
                  child_seeds[c], depth + 1);
    if (!child_sort_status[c].ok()) ++ctx.stats.child_failures;
  }

  // --- 7. Level assembly + failure sweeping (fixed trace regardless of the
  // number of actual failures).  Sweep only at the bottom level (public size
  // test); elsewhere child failures propagate upward unchanged.  A slice
  // holds a child's output, and when the sweep is active also its input,
  // which the sweep re-sorts in place of a failed output.
  const bool sweep_active =
      ctx.opts.sweep_slots > 0 && 5 * r_cap <= ctx.sweep_max_blocks;
  std::uint64_t slice = 1;
  for (unsigned c = 0; c < colors; ++c) {
    slice = std::max(slice, child_out[c].num_blocks());
    if (sweep_active) slice = std::max(slice, child_inputs[c].num_blocks());
  }
  ExtArray level = client.alloc_blocks(slice * colors, Client::Init::kUninit);
  for (unsigned c = 0; c < colors; ++c)
    copy_blocks(client, child_out[c], level, c * slice, slice);

  const unsigned slots = std::max(1u, ctx.opts.sweep_slots);
  std::vector<int> slot_of(colors, -1);
  unsigned failures = 0;
  for (unsigned c = 0; c < colors; ++c) {
    const bool injected =
        sweep_active && ((ctx.opts.debug_fail_children_mask >> c) & 1u) != 0;
    if (injected) {
      // Failure injection: scramble the child's output so the test can only
      // pass if the sweep actually restores it from the input.
      CacheLease lease(client.cache(), B);
      BlockBuf junk(B);
      for (std::size_t rix = 0; rix < B; ++rix) junk[rix] = {rix + 1, 0xbad};
      for (std::uint64_t i = 0; i < std::min<std::uint64_t>(slice, 8); ++i)
        client.write_block(level, c * slice + i, junk);
      child_sort_status[c].Update(Status::WhpFailure("injected"));
    }
    if (!child_sort_status[c].ok()) {
      if (sweep_active && failures < slots) slot_of[c] = static_cast<int>(failures);
      ++failures;
    }
  }
  if (failures > 0 && (!sweep_active || failures > slots))
    st.Update(Status::WhpFailure(sweep_active
                                     ? "more failed children than sweep slots"
                                     : "child failure above the sweep level"));
  if (!sweep_active) {
    ctx.charge(&SortPhaseIos::assembly);
    if (!st.ok() && std::getenv("OBLIVEM_DEBUG") != nullptr) {
      std::fprintf(stderr, "[oblivem] sort node depth=%u n=%llu failed: %s\n", depth,
                   static_cast<unsigned long long>(n), st.message().c_str());
    }
    *out = level;
    return st;
  }

  // Sweep slots start explicitly empty (counted writes, fixed pattern).
  ExtArray sweep = client.alloc_blocks(slice * slots, Client::Init::kEmpty);
  {
    // Conditional copy-in of failed children's INPUTS (still intact), as a
    // pipeline of mixed-array steps: each step gathers the source block (when
    // the child has one -- a public size test) and the sweep slot, and
    // scatters the slot.  `mine` steers only the plaintext, never the I/O.
    run_block_pipeline(
        client, static_cast<std::uint64_t>(colors) * slots * slice,
        [&](std::uint64_t step, PipelinePass& io) {
          const unsigned c = static_cast<unsigned>(step / (slots * slice));
          const std::uint64_t rem = step % (slots * slice);
          const unsigned t = static_cast<unsigned>(rem / slice);
          const std::uint64_t i = rem % slice;
          if (i < child_inputs[c].num_blocks()) io.read(child_inputs[c], i);
          io.read(sweep, t * slice + i);
          io.write(sweep, t * slice + i);
        },
        [&](std::uint64_t step, std::span<Record> buf) {
          const unsigned c = static_cast<unsigned>(step / (slots * slice));
          const std::uint64_t rem = step % (slots * slice);
          const unsigned t = static_cast<unsigned>(rem / slice);
          const std::uint64_t i = rem % slice;
          const bool mine = slot_of[c] == static_cast<int>(t);
          const bool have_src = i < child_inputs[c].num_blocks();
          std::span<Record> out = buf.first(B);
          if (have_src) {
            // buf = [src, slot]; keep src if mine, else restore the slot.
            if (!mine)
              std::copy(buf.begin() + static_cast<std::ptrdiff_t>(B),
                        buf.begin() + static_cast<std::ptrdiff_t>(2 * B), out.begin());
          } else if (mine) {
            std::fill(out.begin(), out.end(), Record{});  // pad block
          }  // else: buf = [slot] already in place
        });
  }
  // Deterministic sort of every slot; an unused slot is all-empty and sorts
  // with an identical trace.
  for (unsigned t = 0; t < slots; ++t)
    sortnet::ext_oblivious_sort(client, sweep.slice_blocks(t * slice, slice));
  for (unsigned c = 0; c < colors; ++c)
    for (unsigned t = 0; t < slots; ++t)
      if (slot_of[c] == static_cast<int>(t)) ++ctx.stats.sweep_repairs;
  {
    // Conditional copy-back into the failed children's level slices (same
    // mixed-array pipeline shape as the copy-in).
    run_block_pipeline(
        client, static_cast<std::uint64_t>(colors) * slots * slice,
        [&](std::uint64_t step, PipelinePass& io) {
          const unsigned c = static_cast<unsigned>(step / (slots * slice));
          const std::uint64_t rem = step % (slots * slice);
          const unsigned t = static_cast<unsigned>(rem / slice);
          const std::uint64_t i = rem % slice;
          io.read(sweep, t * slice + i);
          io.read(level, c * slice + i);
          io.write(level, c * slice + i);
        },
        [&](std::uint64_t step, std::span<Record> buf) {
          const unsigned c = static_cast<unsigned>(step / (slots * slice));
          const unsigned t = static_cast<unsigned>((step % (slots * slice)) / slice);
          const bool mine = slot_of[c] == static_cast<int>(t);
          // buf = [sweep, level]; the scatter takes the first block.
          if (!mine)
            std::copy(buf.begin() + static_cast<std::ptrdiff_t>(B),
                      buf.begin() + static_cast<std::ptrdiff_t>(2 * B), buf.begin());
        });
  }

  ctx.charge(&SortPhaseIos::assembly);
  if (!st.ok() && std::getenv("OBLIVEM_DEBUG") != nullptr) {
    std::fprintf(stderr, "[oblivem] sort node depth=%u n=%llu failed: %s\n", depth,
                 static_cast<unsigned long long>(n), st.message().c_str());
  }
  *out = level;
  return st;  // swept child failures are repaired and not propagated
}

}  // namespace

ObliviousSortResult oblivious_sort_padded(Client& client, const ExtArray& a,
                                          ExtArray* out, std::uint64_t seed,
                                          const ObliviousSortOptions& opts) {
  Ctx ctx{client, opts, {}};
  ctx.sweep_max_blocks = 4 * iroot(std::max<std::uint64_t>(a.num_blocks(), 1), 2) + 64;
  ctx.mark = client.stats().total();
  ObliviousSortResult res;
  res.status = sort_node(ctx, a, out, a.num_records(), seed, 0);
  res.stats = ctx.stats;
  return res;
}

ObliviousSortResult oblivious_sort(Client& client, const ExtArray& a,
                                   std::uint64_t seed,
                                   const ObliviousSortOptions& opts) {
  ObliviousSortResult res;
  ExtArray padded;
  res = oblivious_sort_padded(client, a, &padded, seed, opts);

  // Finish: Lemma 3 consolidation (order-preserving over the already-sorted
  // non-empty records) + Theorem 6 tight compaction, then copy back.
  const std::uint64_t before = client.stats().total();
  ConsolidateResult cons = consolidate(client, padded, nonempty_pred());
  TightCompactResult tight =
      tight_compact_blocks(client, cons.out, block_nonempty_pred());
  if (tight.occupied > a.num_blocks())
    res.status.Update(Status::WhpFailure("records were lost or duplicated"));
  copy_blocks(client, tight.out, a, 0, a.num_blocks());
  res.stats.phase_ios.finish = client.stats().total() - before;
  return res;
}

}  // namespace oem::core
