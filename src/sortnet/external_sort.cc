#include "sortnet/external_sort.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <vector>

#include "extmem/pipeline.h"
#include "sortnet/networks.h"
#include "util/math.h"

namespace oem::sortnet {

namespace {

/// Read `count` blocks of `a` starting at `first` into `out` (appended).
void read_run(Client& c, const ExtArray& a, std::uint64_t first, std::uint64_t count,
              std::vector<Record>& out) {
  const std::size_t old = out.size();
  out.resize(old + static_cast<std::size_t>(count) * c.B());
  c.read_blocks(a, first, count, std::span<Record>(out).subspan(old));
}

void write_run(Client& c, const ExtArray& a, std::uint64_t first, std::uint64_t count,
               const std::vector<Record>& data, std::size_t offset) {
  c.write_blocks(a, first, count,
                 std::span<const Record>(data).subspan(
                     offset, static_cast<std::size_t>(count) * c.B()));
}

/// Run length in blocks: half the cache, so a merge-split of two runs fits
/// the private memory.
std::uint64_t default_run_blocks(std::uint64_t m) { return std::max<std::uint64_t>(1, m / 2); }

/// The run layout of an n-block array: runs of run_blocks blocks, the last
/// one possibly shorter.  No padding: the last run simply ends at n.
struct RunLayout {
  std::uint64_t n = 0;
  std::uint64_t run_blocks = 1;

  std::uint64_t count() const { return ceil_div(n, run_blocks); }
  std::uint64_t len(std::uint64_t r) const {
    return std::min(run_blocks, n - r * run_blocks);
  }
  /// Appends the block ids of run r.
  void append(std::uint64_t r, std::vector<std::uint64_t>& ids) const {
    for (std::uint64_t b = r * run_blocks; b < r * run_blocks + len(r); ++b)
      ids.push_back(b);
  }
};

/// Visits the merge-splits of Batcher's odd-even merge network over `runs`
/// runs in execution order, fn(i, j) for runs i < j, the lower half to i
/// (odd-even merge has only ascending comparators).  The network is built
/// on next_pow2(runs) wires and every comparator whose upper run is a
/// virtual one (index >= runs) is dropped: a virtual run is all padding,
/// which sorts last, and an ascending comparator leaves its upper run's
/// padding in place, so the dropped comparators never move anything.  The
/// same argument keeps the short last run exact -- it is always the upper
/// run of its comparators, so the padding it lacks would have stayed at its
/// tail.
template <typename Fn>
void for_each_run_comparator(std::uint64_t runs, Fn&& fn) {
  odd_even_schedule(next_pow2(runs), [&](std::uint64_t i, std::uint64_t j, bool) {
    if (j < runs) fn(i, j);
  });
}

/// Phase 1 of both sorts: privately sort every run, pipelined so run r+1
/// streams in while run r sorts.
void sort_runs(Client& c, const ExtArray& work, const RunLayout& runs,
               const std::function<void(std::span<Record>)>& sort_buf) {
  run_block_pipeline(
      c, runs.count(),
      [&](std::uint64_t r, PipelinePass& io) {
        io.read_from = &work;
        io.write_to = &work;
        runs.append(r, io.reads);
        io.writes = io.reads;
      },
      [&](std::uint64_t, std::span<Record> buf) { sort_buf(buf); });
}

/// Phase 2: drive the comparator schedule through the pipeline.  Each pass
/// gathers both runs, merges privately, and scatters the lower run_blocks
/// blocks back to run i, the rest to run j.
void run_network(Client& c, const ExtArray& work, const RunLayout& runs,
                 const PassComputeFn& merge) {
  // Materialized so the pipeline can look ahead (a public function of the
  // run count).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> schedule;
  for_each_run_comparator(runs.count(), [&](std::uint64_t i, std::uint64_t j) {
    schedule.emplace_back(i, j);
  });
  run_block_pipeline(
      c, schedule.size(),
      [&](std::uint64_t t, PipelinePass& io) {
        io.read_from = &work;
        io.write_to = &work;
        runs.append(schedule[t].first, io.reads);
        runs.append(schedule[t].second, io.reads);
        io.writes = io.reads;
      },
      merge);
}

}  // namespace

void ext_oblivious_sort(Client& client, const ExtArray& a) {
  const std::uint64_t n = a.num_blocks();
  if (n == 0) return;
  const RunLayout runs{n, std::min(default_run_blocks(client.m()), n)};

  // Phase 1: sort each run privately.
  sort_runs(client, a, runs, [](std::span<Record> buf) {
    std::stable_sort(buf.begin(), buf.end(), RecordLess{});
  });

  // Phase 2: sorting network over runs with merge-split comparators.  Both
  // runs are individually sorted, so one stable merge (run i wins ties)
  // suffices; the first run is always a full one.
  const std::ptrdiff_t run_records =
      static_cast<std::ptrdiff_t>(runs.run_blocks * client.B());
  run_network(client, a, runs, [run_records](std::uint64_t, std::span<Record> buf) {
    std::inplace_merge(buf.begin(), buf.begin() + run_records, buf.end(), RecordLess{});
  });
}

void sort_region_in_cache(Client& client, const ExtArray& a, std::uint64_t first_block,
                          std::uint64_t count_blocks) {
  sort_region_in_cache(client, a, first_block, count_blocks,
                       [](const Record& x, const Record& y) { return RecordLess{}(x, y); });
}

void sort_region_in_cache(Client& client, const ExtArray& a, std::uint64_t first_block,
                          std::uint64_t count_blocks,
                          const std::function<bool(const Record&, const Record&)>& less) {
  if (count_blocks == 0) return;
  assert(first_block + count_blocks <= a.num_blocks());
  const std::size_t B = client.B();
  CacheLease lease(client.cache(), count_blocks * B);
  std::vector<Record> buf;
  buf.reserve(static_cast<std::size_t>(count_blocks) * B);
  read_run(client, a, first_block, count_blocks, buf);
  std::stable_sort(buf.begin(), buf.end(), less);
  write_run(client, a, first_block, count_blocks, buf, 0);
}

namespace {

/// Reorder the whole units of `buf` by their first record (RecordLess):
/// `arrange(order, less)` sorts or merges the identity order of the units,
/// then unit u of the result is unit order[u] of the input.
template <typename Arrange>
void arrange_units(std::span<Record> buf, std::size_t unit_records, Arrange&& arrange) {
  std::vector<std::size_t> order(buf.size() / unit_records);
  std::iota(order.begin(), order.end(), std::size_t{0});
  arrange(order, [&](std::size_t x, std::size_t y) {
    return RecordLess{}(buf[x * unit_records], buf[y * unit_records]);
  });
  std::vector<Record> out(buf.size());
  for (std::size_t u = 0; u < order.size(); ++u) {
    std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(order[u] * unit_records),
                unit_records, out.begin() + static_cast<std::ptrdiff_t>(u * unit_records));
  }
  std::copy(out.begin(), out.end(), buf.begin());
}

}  // namespace

void ext_oblivious_unit_sort(Client& client, const ExtArray& a,
                             std::uint64_t unit_blocks) {
  assert(unit_blocks >= 1);
  const std::uint64_t n = a.num_blocks();
  assert(n % unit_blocks == 0);
  const std::uint64_t units = n / unit_blocks;
  if (units <= 1) return;
  const std::size_t B = client.B();
  const std::size_t unit_records = static_cast<std::size_t>(unit_blocks) * B;

  // Runs are whole numbers of units; two runs must fit in cache.
  const std::uint64_t run_units = std::min(
      units, std::max<std::uint64_t>(1, default_run_blocks(client.m()) / unit_blocks));
  const RunLayout runs{n, run_units * unit_blocks};

  // Phase 1: unit-sort each run privately.  Stable so that differential
  // tests are deterministic.
  sort_runs(client, a, runs, [&](std::span<Record> buf) {
    arrange_units(buf, unit_records, [](std::vector<std::size_t>& order, auto less) {
      std::stable_sort(order.begin(), order.end(), less);
    });
  });

  // Phase 2: network over runs with unit-granularity merge-split, a stable
  // merge in which the first (always full) run wins ties.
  const auto first_units = static_cast<std::ptrdiff_t>(run_units);
  run_network(client, a, runs, [&](std::uint64_t, std::span<Record> buf) {
    arrange_units(buf, unit_records, [&](std::vector<std::size_t>& order, auto less) {
      std::inplace_merge(order.begin(), order.begin() + first_units, order.end(), less);
    });
  });
}

std::uint64_t ext_sort_predicted_ios(std::uint64_t n_blocks, std::uint64_t m_blocks) {
  if (n_blocks == 0) return 0;
  const RunLayout runs{n_blocks, std::min(default_run_blocks(m_blocks), n_blocks)};
  // Run formation reads and writes every block once; each merge-split reads
  // and writes both of its runs.
  std::uint64_t io = 2 * n_blocks;
  for_each_run_comparator(runs.count(), [&](std::uint64_t i, std::uint64_t j) {
    io += 2 * (runs.len(i) + runs.len(j));
  });
  return io;
}

}  // namespace oem::sortnet
