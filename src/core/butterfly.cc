#include "core/butterfly.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "extmem/pipeline.h"
#include "sortnet/external_sort.h"
#include "util/math.h"

namespace oem::core {

namespace {

// Working representation: each network cell occupies two consecutive blocks
// of the scratch array W -- payload (block 2c) and metadata (block 2c+1,
// record 0 = {occupied, remaining distance in cells}).  In a pipeline pass a
// window of cells is gathered as [payload(c0), meta(c0), payload(c1), ...];
// cell q's payload therefore sits at records [2q*B, (2q+1)*B) of the pass
// buffer and its metadata record at buf[(2q+1)*B].

/// Encode one cell's metadata block in the pass buffer.
void put_meta(std::span<Record> buf, std::size_t q, std::size_t B, bool occupied,
              std::uint64_t dist) {
  std::span<Record> meta = buf.subspan((2 * q + 1) * B, B);
  std::fill(meta.begin(), meta.end(), Record{0, 0});
  meta[0] = {occupied ? std::uint64_t{1} : std::uint64_t{0}, dist};
}

/// A window position of the sliding-window sweep: one pipeline pass.
struct RouteWindow {
  std::uint64_t s = 1;     // stride in cells
  unsigned g_t = 0;        // levels routed inside this super-level
  std::uint64_t rho = 0;   // residue class
  std::uint64_t a0 = 0;    // window start in the virtual subarray
  std::uint64_t win = 0;   // window length in cells
};

/// g_t consecutive levels routed at stride s.
struct SuperLevel {
  std::uint64_t s = 1;
  unsigned g_t = 0;
};

/// The super-levels of the butterfly over n cells in compaction order (LSB
/// first): ceil(log2 n) levels in groups of g = Theta(log m).
std::vector<SuperLevel> super_levels(std::uint64_t n, std::uint64_t m) {
  std::vector<SuperLevel> out;
  const unsigned L = ceil_log2(n);
  const unsigned g = std::max<unsigned>(1, floor_log2(std::max<std::uint64_t>(2, m / 8)));
  for (unsigned lo = 0; lo < L; lo += g)
    out.push_back({std::uint64_t{1} << lo, std::min<unsigned>(g, L - lo)});
  return out;
}

/// The sliding-window sweep over one residue class of len cells, each of
/// which moves by less than span positions in the super-level: windows of
/// win cells, each overlapping the previous one by span cells.  A class of
/// one cell has nothing to route -- no move at its stride stays inside
/// [0, n) -- so it gets no window.
struct ClassSweep {
  std::uint64_t win = 0;
  std::uint64_t windows = 0;
};

ClassSweep class_sweep(std::uint64_t len, std::uint64_t span) {
  if (len <= 1) return {};
  const std::uint64_t win = std::min(len, 2 * span);
  return {win, len <= win ? 1 : 1 + ceil_div(len - win, span)};
}

/// Enumerate the windows of the butterfly over n cells in execution order.
/// Only the n real cells are routed: residue class rho at stride s holds the
/// ceil((n - rho) / s) cells rho, rho+s, ... below n.
/// direction=+1: leftward compaction (levels LSB->MSB), windows sweep
/// left-to-right (receivers are to the left of senders).
/// direction=-1: rightward expansion (levels MSB->LSB), windows sweep
/// right-to-left.
std::vector<RouteWindow> route_windows(std::uint64_t n, std::uint64_t m, int direction) {
  std::vector<SuperLevel> levels = super_levels(n, m);
  if (direction < 0) std::reverse(levels.begin(), levels.end());
  std::vector<RouteWindow> out;
  for (const SuperLevel& sl : levels) {
    const std::uint64_t span = std::uint64_t{1} << sl.g_t;  // in stride units
    for (std::uint64_t rho = 0; rho < sl.s && rho < n; ++rho) {
      const std::uint64_t len = ceil_div(n - rho, sl.s);
      const ClassSweep cs = class_sweep(len, span);
      for (std::uint64_t k = 0; k < cs.windows; ++k) {
        const std::uint64_t a0 = std::min(k * span, len - cs.win);  // last one clamped
        out.push_back({sl.s, sl.g_t, rho, direction > 0 ? a0 : len - cs.win - a0, cs.win});
      }
    }
  }
  return out;
}

/// Route one window's cells through its g_t levels, in place in the pass
/// buffer.  Payload movement is tracked as an index permutation and
/// materialized once at the end.
void route_window(const RouteWindow& wd, std::span<Record> buf, std::size_t B,
                  int direction, const BlockBuf& empty) {
  struct Slot {
    bool occupied = false;
    std::uint64_t dist = 0;
    std::uint32_t src = 0;  // window cell whose payload this slot holds
  };
  const std::uint64_t win = wd.win;
  std::vector<Slot> cur(win), nxt(win);
  for (std::uint64_t q = 0; q < win; ++q) {
    const Record meta = buf[(2 * q + 1) * B];
    cur[q] = {meta.key != 0, meta.value, static_cast<std::uint32_t>(q)};
  }

  for (unsigned i = 0; i < wd.g_t; ++i) {
    // Expansion is compaction run backwards: MSB->LSB inside a window too,
    // or cells can collide (see butterfly.h).
    const unsigned l = direction > 0 ? i : wd.g_t - 1 - i;
    const std::uint64_t step_cells = wd.s << l;
    for (auto& slot : nxt) {
      slot.occupied = false;
      slot.dist = 0;
    }
    for (std::uint64_t q = 0; q < win; ++q) {
      if (!cur[q].occupied) continue;
      std::uint64_t delta;
      if (direction > 0) {
        delta = cur[q].dist % (step_cells << 1);  // 0 or 2^i (Lemma 5 invariant)
      } else {
        delta = cur[q].dist & step_cells;  // bit i of the total displacement
      }
      assert(delta == 0 || delta == step_cells);
      const std::uint64_t move = delta / wd.s;
      const std::uint64_t q_new =
          direction > 0 ? q - move : q + move;  // underflow caught below
      if (q_new >= win) {
        // Lemma 5 + window invariants make this unreachable; if it trips,
        // it is an implementation bug, not bad luck.
        throw std::logic_error("butterfly: cell routed outside window");
      }
      if (nxt[q_new].occupied)
        throw std::logic_error("butterfly: collision (violates Lemma 5)");
      nxt[q_new].occupied = true;
      nxt[q_new].dist = cur[q].dist - delta;
      nxt[q_new].src = cur[q].src;
    }
    std::swap(cur, nxt);
  }

  // Materialize: snapshot the original payloads, then place each slot's
  // payload (or an empty block -- unoccupied slots may have had their
  // payload moved out during routing; either way one payload write + one
  // metadata write happen, so the trace is the same for both cases).
  std::vector<Record> payloads(win * B);
  for (std::uint64_t q = 0; q < win; ++q)
    std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(2 * q * B), B,
                payloads.begin() + static_cast<std::ptrdiff_t>(q * B));
  for (std::uint64_t q = 0; q < win; ++q) {
    if (cur[q].occupied) {
      std::copy_n(payloads.begin() + static_cast<std::ptrdiff_t>(cur[q].src * B), B,
                  buf.begin() + static_cast<std::ptrdiff_t>(2 * q * B));
    } else {
      std::copy_n(empty.begin(), B, buf.begin() + static_cast<std::ptrdiff_t>(2 * q * B));
    }
    put_meta(buf, q, B, cur[q].occupied, cur[q].dist);
  }
}

/// Routes the scratch array W of n cells through the butterfly as a
/// pipeline over window positions.  Successive windows overlap, so the next
/// read is never prefetched early; the write still retires asynchronously
/// (FIFO execution makes the overlap-hazard impossible), and the whole
/// window moves as two batched transfers instead of 4*win single-block ops.
void route(Client& client, const ExtArray& w, std::uint64_t n, int direction) {
  const std::size_t B = client.B();
  const BlockBuf empty = make_empty_block(B);
  const std::vector<RouteWindow> wins = route_windows(n, client.m(), direction);
  run_block_pipeline(
      client, wins.size(),
      [&](std::uint64_t t, PipelinePass& io) {
        const RouteWindow& wd = wins[t];
        io.read_from = &w;
        io.write_to = &w;
        for (std::uint64_t q = 0; q < wd.win; ++q) {
          const std::uint64_t cell = wd.rho + (wd.a0 + q) * wd.s;
          io.reads.push_back(2 * cell);
          io.reads.push_back(2 * cell + 1);
        }
        io.writes = io.reads;
      },
      [&](std::uint64_t t, std::span<Record> buf) {
        // route_window's payload snapshot + slot bookkeeping hold another
        // ~win*B records of private memory beyond the pipeline's lease;
        // meter them so the M-budget accounting stays honest.
        CacheLease extra(client.cache(), wins[t].win * (B + 2));
        route_window(wins[t], buf, B, direction, empty);
      });
}

/// Chunk width (in cells) for the copy-in/copy-out scans: half the batch
/// window, since every cell is two blocks.
std::uint64_t scan_chunk_cells(const Client& c) {
  return std::max<std::uint64_t>(1, c.io_batch_blocks() / 2);
}

/// Copy-in expansion, shared by both routing directions: turn a pass buffer
/// whose prefix holds `real` gathered input blocks into k payload+metadata
/// cell pairs described by `cells` (occupied, dist).  Materializes backward
/// so no payload is overwritten before it moves to its cell slot; occupied
/// cells keep their payload, everything else stores an empty block.
void expand_cells_backward(std::span<Record> buf, std::uint64_t k, std::uint64_t real,
                           std::size_t B, const BlockBuf& empty,
                           std::span<const std::pair<bool, std::uint64_t>> cells) {
  for (std::uint64_t c = k; c-- > 0;) {
    if (c < real && cells[c].first) {
      if (c > 0)  // cell 0's payload is already in place
        std::copy_backward(buf.begin() + static_cast<std::ptrdiff_t>(c * B),
                           buf.begin() + static_cast<std::ptrdiff_t>((c + 1) * B),
                           buf.begin() + static_cast<std::ptrdiff_t>((2 * c + 1) * B));
    } else {
      std::copy_n(empty.begin(), B, buf.begin() + static_cast<std::ptrdiff_t>(2 * c * B));
    }
    put_meta(buf, c, B, cells[c].first, cells[c].second);
  }
}

/// Copy-out contraction, shared by both routing directions: collapse routed
/// payload+metadata cell pairs into one output block each (occupied cells
/// keep their payload, the rest read empty).  Each output block is a pure
/// function of its own cell pair, so the scan chunks across the compute
/// pool; the copy-in scans stay serial (they carry running state across
/// cells: the empties counter / the prev_target monotonicity check).
ParallelCompute chunked_contract_cells(std::size_t B, BlockBuf empty) {
  return {[B, empty = std::move(empty)](std::uint64_t, std::span<const Record> in,
                                        std::uint64_t first_block,
                                        std::span<Record> out) {
            const std::size_t k = out.size() / B;
            for (std::size_t b = 0; b < k; ++b) {
              const std::size_t cell = static_cast<std::size_t>(first_block) + b;
              const Record meta = in[(2 * cell + 1) * B];
              const bool occupied = meta.key != 0;
              assert(!occupied || meta.value == 0);
              const Record* src = occupied ? in.data() + 2 * cell * B : empty.data();
              std::copy_n(src, B, out.begin() + static_cast<std::ptrdiff_t>(b * B));
            }
          },
          0};
}

}  // namespace

BlockPredFn block_nonempty_pred() {
  return [](std::uint64_t, const BlockBuf& blk) {
    return !blk.empty() && !blk[0].is_empty();
  };
}

TightCompactResult tight_compact_blocks(Client& client, const ExtArray& a,
                                        const BlockPredFn& pred) {
  const std::uint64_t n = a.num_blocks();
  const std::size_t B = client.B();
  TightCompactResult res;
  res.out = client.alloc_blocks(n, Client::Init::kUninit);
  if (n == 0) return res;

  ExtArray w = client.alloc_blocks(2 * n, Client::Init::kUninit);
  const BlockBuf empty = make_empty_block(B);

  // Copy-in scan: label occupied cells with "number of empty cells to my
  // left" (their leftward routing distance); final position = rank.  Each
  // pass expands a chunk of input blocks into payload+metadata cell pairs.
  {
    const std::uint64_t C = scan_chunk_cells(client);
    const std::uint64_t chunks = ceil_div(n, C);
    std::uint64_t empties = 0;
    BlockBuf blk(B);
    run_block_pipeline(
        client, chunks,
        [&](std::uint64_t t, PipelinePass& io) {
          io.read_from = &a;
          io.write_to = &w;
          const std::uint64_t first = t * C;
          const std::uint64_t k = std::min(C, n - first);
          for (std::uint64_t c = 0; c < k; ++c) {
            io.reads.push_back(first + c);
            io.writes.push_back(2 * (first + c));
            io.writes.push_back(2 * (first + c) + 1);
          }
        },
        [&](std::uint64_t t, std::span<Record> buf) {
          const std::uint64_t first = t * C;
          const std::uint64_t k = buf.size() / (2 * B);
          // Evaluate the predicate forward (the gathered payloads sit in the
          // buffer prefix), recording each cell's occupancy and distance.
          std::vector<std::pair<bool, std::uint64_t>> cells(k);
          for (std::uint64_t c = 0; c < k; ++c) {
            blk.assign(buf.begin() + static_cast<std::ptrdiff_t>(c * B),
                       buf.begin() + static_cast<std::ptrdiff_t>((c + 1) * B));
            const bool occ = pred(first + c, blk);
            cells[c] = {occ, occ ? empties : 0};
            if (!occ) ++empties;
            if (occ) ++res.occupied;
          }
          expand_cells_backward(buf, k, k, B, empty, cells);
        });
  }

  route(client, w, n, /*direction=*/+1);

  // Copy-out scan: occupied cells now form the prefix, in original order.
  {
    const std::uint64_t C = scan_chunk_cells(client);
    const std::uint64_t chunks = ceil_div(n, C);
    run_block_pipeline(
        client, chunks,
        [&](std::uint64_t t, PipelinePass& io) {
          io.read_from = &w;
          io.write_to = &res.out;
          const std::uint64_t first = t * C;
          const std::uint64_t k = std::min(C, n - first);
          for (std::uint64_t c = 0; c < k; ++c) {
            io.reads.push_back(2 * (first + c));
            io.reads.push_back(2 * (first + c) + 1);
          }
          for (std::uint64_t c = 0; c < k; ++c) io.writes.push_back(first + c);
        },
        chunked_contract_cells(B, empty));
  }
  client.release(w);
  return res;
}

ExtArray expand_blocks(Client& client, const ExtArray& a, std::uint64_t count,
                       std::uint64_t out_blocks,
                       const std::function<std::uint64_t(std::uint64_t)>& target) {
  const std::size_t B = client.B();
  ExtArray out = client.alloc_blocks(out_blocks, Client::Init::kUninit);
  if (out_blocks == 0) return out;
  ExtArray w = client.alloc_blocks(2 * out_blocks, Client::Init::kUninit);
  const BlockBuf empty = make_empty_block(B);

  // Copy-in: block i gets rightward distance target(i) - i.
  {
    const std::uint64_t C = scan_chunk_cells(client);
    const std::uint64_t chunks = ceil_div(out_blocks, C);
    std::uint64_t prev_target = 0;
    run_block_pipeline(
        client, chunks,
        [&](std::uint64_t t, PipelinePass& io) {
          io.read_from = &a;
          io.write_to = &w;
          const std::uint64_t first = t * C;
          const std::uint64_t k = std::min(C, out_blocks - first);
          for (std::uint64_t c = 0; c < k; ++c) {
            if (first + c < count) io.reads.push_back(first + c);
            io.writes.push_back(2 * (first + c));
            io.writes.push_back(2 * (first + c) + 1);
          }
        },
        [&](std::uint64_t t, std::span<Record> buf) {
          const std::uint64_t first = t * C;
          const std::uint64_t k = buf.size() / (2 * B);
          const std::uint64_t real =
              first < count ? std::min<std::uint64_t>(k, count - first) : 0;
          // Every real cell is occupied; its rightward distance is target-i.
          std::vector<std::pair<bool, std::uint64_t>> cells(k, {false, 0});
          for (std::uint64_t c = 0; c < real; ++c) {
            const std::uint64_t i = first + c;
            const std::uint64_t tgt = target(i);
            assert(tgt >= i && tgt < out_blocks);
            assert(i == 0 || tgt > prev_target);
            prev_target = tgt;
            cells[c] = {true, tgt - i};
          }
          expand_cells_backward(buf, k, real, B, empty, cells);
        });
  }

  route(client, w, out_blocks, /*direction=*/-1);

  {
    const std::uint64_t C = scan_chunk_cells(client);
    const std::uint64_t chunks = ceil_div(out_blocks, C);
    run_block_pipeline(
        client, chunks,
        [&](std::uint64_t t, PipelinePass& io) {
          io.read_from = &w;
          io.write_to = &out;
          const std::uint64_t first = t * C;
          const std::uint64_t k = std::min(C, out_blocks - first);
          for (std::uint64_t c = 0; c < k; ++c) {
            io.reads.push_back(2 * (first + c));
            io.reads.push_back(2 * (first + c) + 1);
          }
          for (std::uint64_t c = 0; c < k; ++c) io.writes.push_back(first + c);
        },
        chunked_contract_cells(B, empty));
  }
  client.release(w);
  return out;
}

TightCompactResult tight_compact_by_sort(Client& client, const ExtArray& a,
                                         const BlockPredFn& pred) {
  const std::uint64_t n = a.num_blocks();
  const std::size_t B = client.B();
  TightCompactResult res;
  // Represent each block as a 1-block unit keyed by (distinguished ? index :
  // sentinel); unit-sorting brings distinguished blocks to the front in
  // order.  The key rides in a prepended header block, so units are 2 blocks.
  const std::uint64_t ub = 2;
  ExtArray units = client.alloc_blocks(n * ub, Client::Init::kUninit);
  {
    CacheLease lease(client.cache(), 2 * B);
    BlockBuf blk, hdr(B);
    for (std::uint64_t i = 0; i < n; ++i) {
      client.read_block(a, i, blk);
      const bool dist = pred(i, blk);
      if (dist) ++res.occupied;
      hdr.assign(B, Record{0, 0});
      hdr[0] = {dist ? i : kEmptyKey, 0};
      client.write_block(units, ub * i, hdr);
      client.write_block(units, ub * i + 1, blk);
    }
  }
  sortnet::ext_oblivious_unit_sort(client, units, ub);
  res.out = client.alloc_blocks(n, Client::Init::kUninit);
  {
    CacheLease lease(client.cache(), 2 * B);
    BlockBuf blk, hdr;
    const BlockBuf empty = make_empty_block(B);
    for (std::uint64_t i = 0; i < n; ++i) {
      client.read_block(units, ub * i, hdr);
      client.read_block(units, ub * i + 1, blk);
      client.write_block(res.out, i, hdr[0].key != kEmptyKey ? blk : empty);
    }
  }
  // `units` cannot be released LIFO (res.out was allocated after it); the
  // device records it as discarded and trim() reclaims it later.
  client.release(units);
  return res;
}

std::uint64_t butterfly_predicted_ios(std::uint64_t n_blocks, std::uint64_t m_blocks) {
  // Copy-in (n reads + 2n writes) and copy-out (2n reads + n writes), plus
  // every routing window's cells read and written as payload+metadata pairs.
  // At stride s the n % s lowest residue classes hold one cell more.
  std::uint64_t io = 6 * n_blocks;
  for (const SuperLevel& sl : super_levels(n_blocks, m_blocks)) {
    const std::uint64_t span = std::uint64_t{1} << sl.g_t;
    const std::uint64_t q = n_blocks / sl.s, rem = n_blocks % sl.s;
    const ClassSweep longer = class_sweep(q + 1, span), shorter = class_sweep(q, span);
    io += 4 * (rem * longer.windows * longer.win + (sl.s - rem) * shorter.windows * shorter.win);
  }
  return io;
}

}  // namespace oem::core
