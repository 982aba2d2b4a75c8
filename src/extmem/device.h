// BlockDevice: Bob's outsourced storage, as the adversary sees it.
//
// A flat arena of fixed-size blocks of Words whose bytes physically live in a
// pluggable StorageBackend (RAM, a file, a latency-modeled remote -- see
// extmem/backend.h).  Every counted read/write increments I/O counters and is
// reported to the TraceRecorder -- this is precisely the view the
// honest-but-curious server gets (sequence + location of accesses, ciphertext
// contents), and it is byte-identical regardless of which backend holds the
// blocks.  Allocation is arena style: arrays of blocks are carved off the
// end; a stack-discipline `release` supports scratch arrays.
//
// Batched read_many/write_many issue one backend call for a whole set of
// blocks (backends coalesce syscalls / round trips) while recording the same
// per-block trace events, in the same order, as the sequential loop would.
//
// The submit_* / wait / drain API is the async face of the same contract:
// counters and trace events are recorded at SUBMIT time, in program order,
// and the physical transfer may complete later on an AsyncBackend's I/O
// thread.  The adversary's view is therefore a function of the submission
// sequence only -- identical whether the backend is synchronous, sharded,
// or asynchronous.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "extmem/backend.h"
#include "extmem/record.h"
#include "extmem/trace.h"

namespace oem {

class AsyncBackend;    // extmem/io_engine.h; device.cc probes for it
class CachingBackend;  // extmem/io_engine.h; device.cc probes for it

/// A contiguous run of blocks on the device.
struct Extent {
  std::uint64_t first_block = 0;
  std::uint64_t num_blocks = 0;
};

/// Bounded recovery from transient storage failures (a FaultyBackend shard, a
/// flaky file store): every backend call that returns StatusCode::kIo is
/// re-issued up to max_attempts times in total before the failure surfaces.
/// Retries live BELOW the counters and the trace -- both are recorded once,
/// before the first attempt, so fault recovery is invisible to Bob and never
/// perturbs the block-I/O accounting the paper's bounds are pinned against.
/// Only kIo is retryable; kInvalidArgument is a caller bug and fails fast.
struct RetryPolicy {
  unsigned max_attempts = 1;  // 1 = no retry
};

class BlockDevice {
 public:
  /// block_words: words of ciphertext per block (payload + nonce header).
  /// A null factory means MemBackend (the seed's in-RAM behavior).
  /// pipeline_depth: the in-flight window ring size the block pipeline runs
  /// with by default (see extmem/pipeline.h); 2 = the classic double buffer.
  explicit BlockDevice(std::size_t block_words, BackendFactory factory = nullptr,
                       RetryPolicy retry = {}, std::size_t pipeline_depth = 2);

  std::size_t block_words() const { return backend_->block_words(); }
  std::uint64_t num_blocks() const { return num_blocks_; }

  /// Default ring size for run_block_pipeline (>= 1; a public scheduling
  /// parameter like B: the trace is a function of it, never of the data).
  std::size_t pipeline_depth() const { return pipeline_depth_; }

  StorageBackend& backend() { return *backend_; }
  const StorageBackend& backend() const { return *backend_; }

  /// Per-block write-version counters, held CLIENT-side (never stored on the
  /// backend): the freshness half of the authenticated-block scheme.  A block
  /// whose version is v was sealed exactly v times; the MAC binds v, so a
  /// server replaying an older (valid-at-the-time) ciphertext fails
  /// verification.  0 = never written, matching the backend's all-zero
  /// fresh-block contract.  The table follows the arena lifecycle: it grows
  /// zeroed with allocate() and shrinks with release()/trim(), so a
  /// shrunk-then-regrown block is "never written" again on both sides.
  std::uint64_t version(std::uint64_t block) const {
    return block < versions_.size() ? versions_[block] : 0;
  }
  /// Returns the NEW version (to bind into the MAC being written).
  std::uint64_t bump_version(std::uint64_t block) {
    if (block >= versions_.size()) versions_.resize(block + 1, 0);
    return ++versions_[block];
  }
  /// Whole-table access for the durable freshness state (extmem/freshness.h):
  /// a session with a state_path persists the table on shutdown and restores
  /// it here on restart, so rollback detection survives the process.
  const std::vector<std::uint64_t>& versions() const { return versions_; }
  void set_versions(std::vector<std::uint64_t> v) { versions_ = std::move(v); }

  Extent allocate(std::uint64_t nblocks);
  /// Stack-discipline release: frees the extent iff it is at the end of the
  /// arena (scratch arrays are allocated/released LIFO by the algorithms).
  /// Non-LIFO releases are recorded as discarded so trim() can reclaim them
  /// once everything above is released too.
  void release(const Extent& e);

  /// Record an extent as dead without freeing it (e.g. scratch a completed
  /// algorithm call abandoned mid-arena).  Adjacent/overlapping discarded
  /// extents are coalesced.
  void mark_discarded(const Extent& e);
  /// Shrink the arena while its tail is covered by discarded extents;
  /// returns the number of blocks released back to the backend.
  std::uint64_t trim();

  // --- counted, traced I/O (the adversary sees these) ---

  void read(std::uint64_t block, std::span<Word> out);
  void write(std::uint64_t block, std::span<const Word> in);

  /// Batched I/O: semantically identical to the per-block loop (same trace
  /// events in the same order, `blocks.size()` added to the block counters)
  /// but issued as a single backend call, counted once in read_ops/write_ops.
  void read_many(std::span<const std::uint64_t> blocks, std::span<Word> out);
  void write_many(std::span<const std::uint64_t> blocks, std::span<const Word> in);

  // --- async batched I/O (the I/O-engine pipeline) ---

  /// 0 means the op already completed synchronously (non-async backend).
  using IoTicket = std::uint64_t;

  /// True when the backend supports overlapped submission (an AsyncBackend
  /// is in the decorator chain).
  bool async_io() const { return async_ != nullptr; }

  /// Counters and trace are recorded now, in program order; the transfer may
  /// complete later.  `out` must stay valid until wait(ticket).
  IoTicket submit_read_many(std::span<const std::uint64_t> blocks, std::span<Word> out);
  /// Takes ownership of the ciphertext so the caller's staging buffer is
  /// immediately reusable.
  IoTicket submit_write_many(std::span<const std::uint64_t> blocks,
                             std::vector<Word>&& in);
  /// Zero-copy write: `in` is BORROWED and must stay valid (and unmodified)
  /// until a wait()/drain() covering the returned ticket -- the block
  /// pipeline's per-window staging satisfies this by construction (FIFO:
  /// a window's read ticket covers the window K-back's writes).  Named
  /// distinctly from the owning overload so the opposite lifetime contract
  /// can never be picked up by an implicit vector-to-span conversion.
  IoTicket submit_write_many_borrowed(std::span<const std::uint64_t> blocks,
                                      std::span<const Word> in);
  /// Block until the ticketed op (and all ops submitted before it) executed.
  void wait(IoTicket t);
  /// Block until every submitted op executed (writes are durable in the
  /// backend).  Call before reading through a non-submit path.
  void drain();

  const IoStats& stats() const { return stats_; }
  void reset_stats() {
    stats_ = IoStats{};
    pending_drain_.clear();
  }

  /// Credit compute wall time to the stats (caller's thread; see
  /// IoStats::compute_ns/crypto_ns).
  void add_compute_ns(std::uint64_t ns) { stats_.compute_ns += ns; }
  void add_crypto_ns(std::uint64_t ns) { stats_.crypto_ns += ns; }

  /// The CachingBackend in the decorator chain (directly, or under the
  /// AsyncBackend), or null -- benches read hit/miss/write-back counters
  /// through this without holding their own pointer into the stack.  The
  /// non-const form lets a caller flush() explicitly (drain() first when
  /// prefetching: flush is a synchronous entry point).
  const CachingBackend* cache_backend() const { return cache_; }
  CachingBackend* cache_backend() { return cache_; }

  const RetryPolicy& retry_policy() const { return retry_; }
  /// Synchronous backend calls re-issued after a kIo failure.  Retries of
  /// submitted async ops happen on the AsyncBackend's I/O thread and are
  /// counted there (AsyncBackend::retries()).
  std::uint64_t retries() const { return retries_; }

  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  // --- uncounted raw ciphertext access (tests and the omniscient harness) ---

  /// Raw ciphertext copy, for tests that check Bob cannot see plaintext.
  std::vector<Word> raw(std::uint64_t block) const;
  /// Uncounted, untraced write into Bob's storage (test/workload setup only).
  void write_raw(std::uint64_t block, std::span<const Word> in);
  /// Batched raw access over a contiguous block range (uncounted; the bulk
  /// upload/download path of peek/poke) -- backends coalesce the transfer.
  void read_raw_range(std::uint64_t first_block, std::uint64_t count,
                      std::span<Word> out) const;
  void write_raw_range(std::uint64_t first_block, std::uint64_t count,
                       std::span<const Word> in);

 private:
  void record(IoOp op, std::span<const std::uint64_t> blocks);

  /// One submitted-but-not-yet-drained split-phase op, for the drained-at
  /// counters (see IoStats).
  struct PendingDrain {
    IoTicket ticket = 0;
    bool is_write = false;
    std::uint64_t nblocks = 0;
  };
  /// Credit the drained-at counters for every pending op covered by `t`
  /// (all of them when everything is known complete).
  void mark_drained(IoTicket t, bool all);

  /// A parked AsyncBackend error describes a PRIOR submitted op (e.g. a
  /// write the I/O thread could not land); non-ok means that loss must fail
  /// the current call.  Ok when the backend is not async.
  Status consume_parked_async_error() const;

  /// Run a backend call under the retry policy (kIo only).  const because
  /// the uncounted raw paths (peek/poke) retry too; the counter is metering.
  template <typename Fn>
  Status with_retry(Fn&& fn) const {
    // Surface a parked async error UNRETRIED: it belongs to an earlier op,
    // so re-running the current call would drain a now-clean backend and
    // swallow the loss (the op would return Ok over corrupted storage).
    Status prior = consume_parked_async_error();
    if (!prior.ok()) return prior;
    Status st = fn();
    for (unsigned a = 1; a < retry_.max_attempts && IsRetryable(st.code()); ++a) {
      ++retries_;
      st = fn();
    }
    return st;
  }

  std::unique_ptr<StorageBackend> backend_;
  AsyncBackend* async_ = nullptr;    // borrowed view into backend_ when async
  CachingBackend* cache_ = nullptr;  // borrowed view when a cache is configured
  std::vector<PendingDrain> pending_drain_;
  RetryPolicy retry_;
  std::size_t pipeline_depth_ = 2;
  mutable std::uint64_t retries_ = 0;
  std::uint64_t num_blocks_ = 0;
  std::vector<std::uint64_t> versions_;  // client-side anti-rollback table
  std::vector<Extent> discarded_;  // sorted by first_block, coalesced
  IoStats stats_;
  TraceRecorder trace_;
};

}  // namespace oem
