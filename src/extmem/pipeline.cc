#include "extmem/pipeline.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "extmem/arena.h"

namespace oem {

namespace {

/// True when two SORTED id lists share no element (linear merge, no copies:
/// the hazard loop re-checks blocked windows every advance() call, so the
/// per-check cost must not include a sort).
bool disjoint_sorted(const std::vector<std::uint64_t>& a,
                     const std::vector<std::uint64_t>& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) ++i;
    else if (b[j] < a[i]) ++j;
    else return false;
  }
  return true;
}

struct Slot {
  PipelinePass io;
  std::vector<std::uint64_t> dev_reads;   // device-absolute gather ids
  std::vector<std::uint64_t> dev_writes;  // device-absolute scatter ids
  // Sorted copies, built once per describe() for the hazard checks.
  std::vector<std::uint64_t> sorted_reads;
  std::vector<std::uint64_t> sorted_writes;
  // Ciphertext staging comes from the pooled arena (extmem/arena.h): the
  // first K windows populate the pool, every later window recycles -- the
  // steady state allocates nothing (pinned by tests/hierarchy_test.cc).
  // ArenaBuffer::resize may discard contents on growth, which is fine here:
  // both buffers are fully overwritten each window.
  ArenaBuffer wire;                       // read ciphertext staging
  // Write ciphertext staging, BORROWED by the device (zero-copy: no
  // per-window allocation or buffer hand-off).  Reusing it K windows later
  // is safe by FIFO: window u's read ticket is submitted after window
  // u-K's writes, so dev.wait(read ticket of u) proves those writes
  // executed before this buffer is touched again.
  ArenaBuffer wwire;
  BlockDevice::IoTicket ticket = 0;
  // Last write chunk submitted from this slot: waiting on it before the
  // slot's next window encrypts makes the wwire reuse safe even for
  // windows with NO reads (whose read ticket is 0 and covers nothing).
  BlockDevice::IoTicket wticket = 0;
};

/// Exception safety: an in-flight async read holds a raw pointer into a
/// Slot's wire buffer.  If compute() (a user predicate, a whp guard) throws
/// mid-pass, the device must be flushed BEFORE the slots unwind, or the I/O
/// thread would complete into freed memory.  Best-effort on the unwind path:
/// a drain failure must not turn the in-flight exception into terminate().
struct DrainOnUnwind {
  BlockDevice& dev;
  bool active = true;
  ~DrainOnUnwind() {
    if (!active) return;
    try {
      dev.drain();
    } catch (...) {
    }
  }
};

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

void run_block_pipeline(Client& client, std::uint64_t passes,
                        const PassDescribeFn& describe, const PassComputeFn& compute,
                        PipelineOptions options) {
  if (passes == 0) return;
  BlockDevice& dev = client.device();
  const std::size_t bw = dev.block_words();
  const std::size_t B = client.B();
  // Ring size K: window t computes while the reads of up to K-1 later
  // windows are in flight.  Slot u % K is reusable from window u-K's end, so
  // the prefetch horizon t+K-1 never clobbers live staging.
  const std::size_t K = std::max<std::size_t>(
      1, options.depth != 0 ? options.depth : dev.pipeline_depth());

  std::vector<Slot> slots(K);
  auto prepare = [&](std::uint64_t t, Slot& s) {
    s.io.read_from = s.io.write_to = nullptr;
    s.io.reads.clear();
    s.io.writes.clear();
    s.io.read_refs.clear();
    s.io.write_refs.clear();
    describe(t, s.io);
    s.dev_reads.resize(s.io.reads.size() + s.io.read_refs.size());
    for (std::size_t i = 0; i < s.io.reads.size(); ++i) {
      assert(s.io.read_from != nullptr);
      s.dev_reads[i] = s.io.read_from->device_block(s.io.reads[i]);
    }
    for (std::size_t i = 0; i < s.io.read_refs.size(); ++i) {
      const PipelinePass::Ref& r = s.io.read_refs[i];
      assert(r.array != nullptr);
      s.dev_reads[s.io.reads.size() + i] = r.array->device_block(r.block);
    }
    s.dev_writes.resize(s.io.writes.size() + s.io.write_refs.size());
    for (std::size_t i = 0; i < s.io.writes.size(); ++i) {
      assert(s.io.write_to != nullptr);
      s.dev_writes[i] = s.io.write_to->device_block(s.io.writes[i]);
    }
    for (std::size_t i = 0; i < s.io.write_refs.size(); ++i) {
      const PipelinePass::Ref& r = s.io.write_refs[i];
      assert(r.array != nullptr);
      s.dev_writes[s.io.writes.size() + i] = r.array->device_block(r.block);
    }
    s.sorted_reads = s.dev_reads;
    std::sort(s.sorted_reads.begin(), s.sorted_reads.end());
    s.sorted_writes = s.dev_writes;
    std::sort(s.sorted_writes.begin(), s.sorted_writes.end());
  };
  // Transfers honor the client's coalescing window (io_batch_blocks): a pass
  // is submitted as ceil(blocks/W) backend ops.  W = 1 degenerates to
  // per-block ops (the baseline benchmarks measure against); the default
  // window keeps staging bounded by m/4 blocks per op.
  const std::size_t W = static_cast<std::size_t>(
      std::max<std::uint64_t>(1, client.io_batch_blocks()));
  auto submit_read = [&](Slot& s) {
    // Hoisted resize: uniform windows (the common case) hit the same size
    // every pass, so the staging buffer is touched only when shapes change.
    const std::size_t need = s.dev_reads.size() * bw;
    if (s.wire.size() != need) s.wire.resize(need);
    s.ticket = 0;
    for (std::size_t i = 0; i < s.dev_reads.size(); i += W) {
      const std::size_t k = std::min(W, s.dev_reads.size() - i);
      // FIFO execution means waiting on the last window's ticket covers all.
      s.ticket = dev.submit_read_many(
          std::span<const std::uint64_t>(s.dev_reads).subspan(i, k),
          std::span<Word>(s.wire.data(), s.wire.size()).subspan(i * bw, k * bw));
    }
  };

  CacheLease lease(client.cache(), 0);
  std::vector<Record> buf;
  DrainOnUnwind unwind_guard{dev};

  std::uint64_t described = 0;  // windows [0, described) have run describe()
  std::uint64_t submitted = 0;  // windows [0, submitted) have their read submitted

  // Describe + submit window reads strictly in order, up to `horizon`
  // (inclusive), stopping at the first read that could observe a write not
  // yet handed to the device.  `first_unwritten` is the oldest window whose
  // write set is still unsubmitted; a window never hazards against itself
  // (its read precedes its write in program order).  The decision is a
  // public function of the pass descriptions and the depth, so the
  // submission order -- and with it the trace -- is identical with and
  // without an async backend; only the overlap changes.
  auto advance = [&](std::uint64_t horizon, std::uint64_t first_unwritten) {
    while (submitted < passes && submitted <= horizon) {
      if (described == submitted) {
        prepare(described, slots[described % K]);
        ++described;
      }
      Slot& s = slots[submitted % K];
      bool hazard = false;
      for (std::uint64_t v = first_unwritten; v < submitted && !hazard; ++v)
        hazard = !disjoint_sorted(s.sorted_reads, slots[v % K].sorted_writes);
      if (hazard) break;
      submit_read(s);
      ++submitted;
    }
  };

  for (std::uint64_t t = 0; t < passes; ++t) {
    advance(t + K - 1, t);  // r(t) at the latest; prefetch across the ring
    Slot& cur = slots[t % K];
    dev.wait(cur.ticket);
    dev.wait(cur.wticket);  // window t-K's writes: cur.wwire is reusable after
    const std::size_t nblocks = std::max(cur.dev_reads.size(), cur.dev_writes.size());
    lease.resize(nblocks * B);
    buf.resize(nblocks * B);
    client.decrypt_blocks(cur.dev_reads,
                          std::span<const Word>(cur.wire.data(), cur.wire.size()),
                          std::span<Record>(buf).first(cur.dev_reads.size() * B));

    // Compute phase, in place on the caller's thread.
    const std::size_t out_blocks = cur.dev_writes.size();
    const auto c0 = std::chrono::steady_clock::now();
    compute(t, std::span<Record>(buf).first(nblocks * B));
    dev.add_compute_ns(ns_since(c0));

    // Encrypt the whole window into the slot's write staging once and hand
    // the device borrowed subspans: the sync path executes immediately, the
    // async path holds the pointer until the FIFO executes the write --
    // safely before this slot's buffer is reused (see Slot::wwire).
    // Write-less windows (read-only passes) skip the whole path.
    cur.wticket = 0;
    if (!cur.dev_writes.empty()) {
      const std::size_t wneed = out_blocks * bw;
      if (cur.wwire.size() != wneed) cur.wwire.resize(wneed);
      client.encrypt_blocks(cur.dev_writes,
                            std::span<const Record>(buf).first(out_blocks * B),
                            std::span<Word>(cur.wwire.data(), cur.wwire.size()));
      for (std::size_t i = 0; i < cur.dev_writes.size(); i += W) {
        const std::size_t k = std::min(W, cur.dev_writes.size() - i);
        cur.wticket = dev.submit_write_many_borrowed(
            std::span<const std::uint64_t>(cur.dev_writes).subspan(i, k),
            std::span<const Word>(cur.wwire.data(), cur.wwire.size())
                .subspan(i * bw, k * bw));
      }
    }
    // Writes of window t are on the device: reads they were blocking (the
    // classic "late" prefetch at depth 2) can go now.
    advance(t + K - 1, t + 1);
  }
  unwind_guard.active = false;
  dev.drain();  // writes are durable before the caller touches other paths
}

void pipelined_copy_pad(Client& client, const ExtArray& src, std::uint64_t src_first,
                        const ExtArray& dst, std::uint64_t dst_first,
                        std::uint64_t count) {
  const std::size_t B = client.B();
  const std::uint64_t W = std::max<std::uint64_t>(1, client.io_batch_blocks());
  const std::uint64_t avail =
      src.num_blocks() > src_first ? src.num_blocks() - src_first : 0;
  const std::uint64_t chunks = count == 0 ? 0 : (count + W - 1) / W;
  run_block_pipeline(
      client, chunks,
      [&](std::uint64_t t, PipelinePass& io) {
        io.read_from = &src;
        io.write_to = &dst;
        const std::uint64_t first = t * W;
        const std::uint64_t k = std::min(W, count - first);
        for (std::uint64_t j = 0; j < k; ++j) {
          if (first + j < avail) io.reads.push_back(src_first + first + j);
          io.writes.push_back(dst_first + first + j);
        }
      },
      [&](std::uint64_t t, std::span<Record> buf) {
        // The gathered source blocks already sit in place; blocks past the
        // source pad as explicit empties.
        const std::uint64_t first = t * W;
        const std::uint64_t have =
            first < avail ? std::min<std::uint64_t>(buf.size() / B, avail - first) : 0;
        std::fill(buf.begin() + static_cast<std::ptrdiff_t>(have * B), buf.end(),
                  Record{});
      });
}

}  // namespace oem
