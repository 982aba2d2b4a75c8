#include "extmem/io_engine.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <utility>

#include "rng/random.h"

namespace oem {

namespace {

/// Blocks held by shard `s` of `k` when the striped capacity is `nblocks`:
/// the count of ids in [0, nblocks) congruent to s mod k.
std::uint64_t shard_capacity(std::uint64_t nblocks, std::size_t s, std::size_t k) {
  if (nblocks <= s) return 0;
  return (nblocks - s + k - 1) / k;
}

/// Brief busy-wait before parking on a condition variable: batch latencies
/// are microseconds, so a futex sleep/wake per op would dominate.
constexpr int kSpinIters = 2048;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardedBackend.

ShardedBackend::ShardedBackend(std::size_t block_words,
                               std::vector<std::unique_ptr<StorageBackend>> shards)
    : StorageBackend(block_words), shards_(std::move(shards)), sub_(shards_.size()) {
  assert(!shards_.empty());
  for ([[maybe_unused]] const auto& s : shards_)
    assert(s && s->block_words() == block_words);
}

Status ShardedBackend::health() const {
  for (const auto& s : shards_) OEM_RETURN_IF_ERROR(s->health());
  return Status::Ok();
}

Status ShardedBackend::flush() {
  Status first;
  for (const auto& s : shards_) first.Update(s->flush());
  return first;
}

Status ShardedBackend::do_resize(std::uint64_t nblocks) {
  for (std::size_t s = 0; s < shards_.size(); ++s)
    OEM_RETURN_IF_ERROR(shards_[s]->resize(shard_capacity(nblocks, s, shards_.size())));
  return Status::Ok();
}

void ShardedBackend::partition(std::span<const std::uint64_t> blocks) {
  const std::size_t k = shards_.size();
  for (auto& sb : sub_) {
    sb.inner_ids.clear();
    sb.flat.clear();
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    SubBatch& sb = sub_[blocks[i] % k];
    sb.inner_ids.push_back(blocks[i] / k);
    sb.flat.push_back(i);
  }
}

namespace {

/// True when `flat` is the contiguous ascending run flat[0], flat[0]+1, ...
/// -- the shard's slice of the caller buffer is then one span and the
/// transfer can borrow it end-to-end instead of staging a copy.
bool contiguous_run(const std::vector<std::size_t>& flat) {
  for (std::size_t j = 1; j < flat.size(); ++j)
    if (flat[j] != flat[0] + j) return false;
  return true;
}

}  // namespace

// --- one fan-out path ---
//
// A batch turns into at most one sub-frame per shard, begun on every
// involved shard before any response is awaited; completion pops the oldest
// batch and completes its shards' oldest frames.  Per-shard frame order
// equals batch order by construction, so each shard's FIFO contract carries
// the whole stripe's FIFO contract.  A synchronous batch is a begun batch
// completed at once, after every older begun batch is retired: shards with
// split-phase I/O (remote, io_uring) overlap their transfers, the rest
// execute at begin.  Everything runs on the calling thread.

Status ShardedBackend::do_read_many(std::span<const std::uint64_t> blocks,
                                    std::span<Word> out) {
  retire_outstanding();
  OEM_RETURN_IF_ERROR(do_begin_read_many(blocks, out));
  return complete_newest();
}

Status ShardedBackend::do_write_many(std::span<const std::uint64_t> blocks,
                                     std::span<const Word> in) {
  retire_outstanding();
  OEM_RETURN_IF_ERROR(do_begin_write_many(blocks, in));
  return complete_newest();
}

void ShardedBackend::retire_outstanding() {
  while (!frames_.empty()) {
    completed_early_.push_back(complete_frame(std::move(frames_.front())));
    frames_.pop_front();
  }
}

Status ShardedBackend::complete_newest() {
  ShardFrame f = std::move(frames_.back());
  frames_.pop_back();
  return complete_frame(std::move(f));
}

std::size_t ShardedBackend::do_max_inflight() const {
  std::size_t depth = shards_[0]->max_inflight();
  for (std::size_t s = 1; s < shards_.size(); ++s)
    depth = std::min(depth, shards_[s]->max_inflight());
  return depth;
}

Status ShardedBackend::do_begin_read_many(std::span<const std::uint64_t> blocks,
                                          std::span<Word> out) {
  return begin_frame(/*is_write=*/false, blocks, out, {});
}

Status ShardedBackend::do_begin_write_many(std::span<const std::uint64_t> blocks,
                                           std::span<const Word> in) {
  return begin_frame(/*is_write=*/true, blocks, {}, in);
}

Status ShardedBackend::begin_frame(bool is_write, std::span<const std::uint64_t> blocks,
                                   std::span<Word> rout, std::span<const Word> win) {
  const std::size_t bw = block_words();
  partition(blocks);
  ShardFrame f;
  f.is_write = is_write;
  f.rout = rout;
  Status st;
  for (std::size_t s = 0; s < sub_.size() && st.ok(); ++s) {
    SubBatch& sb = sub_[s];
    if (sb.inner_ids.empty()) continue;
    ShardFrame::Part p = acquire_part();
    p.shard = s;
    p.inner_ids.assign(sb.inner_ids.begin(), sb.inner_ids.end());
    const std::size_t words = p.inner_ids.size() * bw;
    if (contiguous_run(sb.flat)) {
      // Borrowed span: a read lands straight in the caller's buffer, which
      // stays valid until our complete_oldest.
      p.flat0 = sb.flat[0];
      st = is_write ? shards_[s]->begin_write_many(p.inner_ids,
                                                   win.subspan(p.flat0 * bw, words))
                    : shards_[s]->begin_read_many(p.inner_ids,
                                                  rout.subspan(p.flat0 * bw, words));
    } else if (is_write) {
      // begin_write_many consumes its input before returning (staged or
      // sent), so one reused gather scratch serves every strided sub-frame.
      wstage_.resize(words);
      for (std::size_t j = 0; j < sb.flat.size(); ++j)
        std::memcpy(wstage_.data() + j * bw, win.data() + sb.flat[j] * bw,
                    bw * sizeof(Word));
      st = shards_[s]->begin_write_many(
          p.inner_ids, std::span<const Word>(wstage_.data(), wstage_.size()));
    } else {
      p.flat.assign(sb.flat.begin(), sb.flat.end());
      p.staging.resize(words);
      st = shards_[s]->begin_read_many(p.inner_ids,
                                       std::span<Word>(p.staging.data(), p.staging.size()));
    }
    if (st.ok()) f.parts.push_back(std::move(p));
  }
  if (!st.ok()) {
    abort_partial_begin(f);
    return st;
  }
  frames_.push_back(std::move(f));
  return Status::Ok();
}

ShardedBackend::ShardFrame::Part ShardedBackend::acquire_part() {
  if (part_pool_.empty()) return {};
  ShardFrame::Part p = std::move(part_pool_.back());
  part_pool_.pop_back();
  p.inner_ids.clear();
  p.flat.clear();
  p.flat0 = 0;
  return p;
}

Status ShardedBackend::complete_frame(ShardFrame f) {
  const std::size_t bw = block_words();
  Status st;
  // Complete every part even after an error: each shard's frame must be
  // retired to keep its FIFO aligned with ours.
  for (ShardFrame::Part& p : f.parts) {
    Status ps = shards_[p.shard]->complete_oldest();
    if (ps.ok() && !f.is_write && !p.flat.empty())
      for (std::size_t j = 0; j < p.flat.size(); ++j)
        std::memcpy(f.rout.data() + p.flat[j] * bw, p.staging.data() + j * bw,
                    bw * sizeof(Word));
    st.Update(ps);
    part_pool_.push_back(std::move(p));  // id/staging capacity kept for reuse
  }
  return st;
}

void ShardedBackend::abort_partial_begin(ShardFrame& f) {
  // Older batches' frames sit AHEAD of the partial batch in each shard's
  // FIFO, so they must be retired (in order, into their still-valid
  // destinations) before the partial batch's frames can be popped.  Their
  // statuses feed the caller's later complete_oldest calls verbatim; only
  // the completion TIME moved, never the order or the data.
  retire_outstanding();
  for (ShardFrame::Part& p : f.parts) {
    shards_[p.shard]->complete_oldest();
    part_pool_.push_back(std::move(p));
  }
  f.parts.clear();
}

Status ShardedBackend::do_complete_oldest() {
  if (!completed_early_.empty()) {
    Status st = std::move(completed_early_.front());
    completed_early_.pop_front();
    return st;
  }
  if (frames_.empty()) return Status::Ok();
  ShardFrame f = std::move(frames_.front());
  frames_.pop_front();
  return complete_frame(std::move(f));
}

// ---------------------------------------------------------------------------
// AsyncBackend.

AsyncBackend::AsyncBackend(std::unique_ptr<StorageBackend> inner)
    : StorageBackend(inner->block_words()), inner_(std::move(inner)) {
  io_thread_ = std::thread([this] { io_loop(); });
}

AsyncBackend::~AsyncBackend() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  io_thread_.join();  // the loop flushes the queue before exiting
}

void AsyncBackend::io_loop() {
  // Wire-pipelining window: how many ops may be begun-but-incomplete on the
  // inner backend at once (1 = the classic blocking loop).
  const std::size_t cap = inner_->max_inflight();
  std::deque<Op> inflight;

  auto wspan = [](const Op& op) {
    return op.wsrc != nullptr ? std::span<const Word>(op.wsrc, op.wlen)
                              : std::span<const Word>(op.wdata);
  };
  auto run_op = [&](Op& op) {
    return op.is_write
               ? inner_->write_many(op.blocks, wspan(op))
               : inner_->read_many(op.blocks, std::span<Word>(op.rdest, op.rlen));
  };
  // Bounded retry of transient storage failures (the BlockDevice's retry
  // policy, installed via set_retry_attempts): only IsRetryable codes
  // (kIo/kTimeout) are re-issued, and retries never touch the trace -- it
  // was recorded at submit time.
  auto run_with_retry = [&](Op& op, Status st) {
    const unsigned attempts = retry_attempts_.load(std::memory_order_relaxed);
    for (unsigned a = 1; a < attempts && IsRetryable(st.code()); ++a) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      st = run_op(op);
    }
    return st;
  };
  auto finish = [&](const Status& st) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!st.ok()) error_ = true;
      sticky_.Update(st);
      completed_.fetch_add(1, std::memory_order_release);
    }
    done_cv_.notify_all();
  };
  // Completes the oldest in-flight op.  A kIo completion means the transport
  // likely died, losing every later in-flight response with it -- and even a
  // server-reported failure leaves later in-flight ops having observed state
  // from BEFORE this op's recovery.  Either way the whole window is drained
  // and every op replayed synchronously IN ORDER under the retry budget (the
  // inner backend reconnects on the replay).  Replay is idempotent: the
  // server's applied state is always a prefix of the sent frames, and
  // re-applying a prefix in order converges to the same final state.
  auto complete_front = [&] {
    auto drained_status = [&](Op& op) {
      if (op.noop) return Status::Ok();
      return op.begun.ok() ? inner_->complete_oldest() : op.begun;
    };
    Status front = drained_status(inflight.front());
    if (!IsRetryable(front.code())) {
      finish(front);
      recycle_op(std::move(inflight.front()));
      inflight.pop_front();
      return;
    }
    std::vector<Status> drained;
    drained.push_back(std::move(front));
    for (std::size_t j = 1; j < inflight.size(); ++j)
      drained.push_back(drained_status(inflight[j]));
    for (std::size_t j = 0; j < inflight.size(); ++j) {
      Status st = IsRetryable(drained[j].code()) ? drained[j] : run_op(inflight[j]);
      finish(run_with_retry(inflight[j], std::move(st)));
    }
    for (Op& op : inflight) recycle_op(std::move(op));
    inflight.clear();
  };

  for (;;) {
    Op op;
    bool have_op = false;
    {
      if (inflight.empty())
        for (int i = 0;
             i < kSpinIters && queued_.load(std::memory_order_acquire) == 0; ++i)
          cpu_relax();
      std::unique_lock<std::mutex> lk(mu_);
      queue_cv_.wait(lk, [&] { return !queue_.empty() || stop_ || !inflight.empty(); });
      if (queue_.empty() && inflight.empty()) return;  // stopped and flushed
      if (!queue_.empty()) {
        op = std::move(queue_.front());
        queue_.pop_front();
        queued_.fetch_sub(1, std::memory_order_relaxed);
        have_op = true;
      }
    }
    if (!have_op) {
      complete_front();  // no new work: retire the oldest round trip
      continue;
    }
    if (cap <= 1) {
      finish(run_with_retry(op, run_op(op)));
      recycle_op(std::move(op));
      continue;
    }
    while (inflight.size() >= cap) complete_front();
    op.noop = op.blocks.empty();
    op.begun = op.noop ? Status::Ok()
               : op.is_write
                   ? inner_->begin_write_many(op.blocks, wspan(op))
                   : inner_->begin_read_many(op.blocks,
                                             std::span<Word>(op.rdest, op.rlen));
    inflight.push_back(std::move(op));
  }
}

AsyncBackend::Op AsyncBackend::acquire_op_locked() {
  if (op_pool_.empty()) return {};
  Op op = std::move(op_pool_.back());
  op_pool_.pop_back();
  return op;
}

void AsyncBackend::recycle_op(Op&& op) {
  // clear() keeps the vectors' capacity, so the next acquire re-fills the
  // same storage instead of allocating.
  op.blocks.clear();
  op.wdata.clear();
  op.wsrc = nullptr;
  op.wlen = 0;
  op.rdest = nullptr;
  op.rlen = 0;
  op.noop = false;
  op.begun = Status::Ok();
  std::lock_guard<std::mutex> lk(mu_);
  op_pool_.push_back(std::move(op));
}

AsyncBackend::Ticket AsyncBackend::submit_read_many(
    std::span<const std::uint64_t> blocks, std::span<Word> out) {
  const Ticket t = submitted_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Op op = acquire_op_locked();
    op.is_write = false;
    op.blocks.assign(blocks.begin(), blocks.end());
    op.rdest = out.data();
    op.rlen = out.size();
    queue_.push_back(std::move(op));
    queued_.fetch_add(1, std::memory_order_release);
  }
  queue_cv_.notify_one();
  // Hand the core to the I/O thread so it can *start* the transfer (or its
  // simulated sleep) before the caller's compute claims the CPU -- without
  // this, a single-core host serializes prefetch behind compute.
  std::this_thread::yield();
  return t;
}

AsyncBackend::Ticket AsyncBackend::submit_write_many(std::vector<std::uint64_t> blocks,
                                                     std::vector<Word> in) {
  const Ticket t = submitted_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Op op = acquire_op_locked();
    op.is_write = true;
    op.blocks = std::move(blocks);
    op.wdata = std::move(in);
    queue_.push_back(std::move(op));
    queued_.fetch_add(1, std::memory_order_release);
  }
  queue_cv_.notify_one();
  std::this_thread::yield();  // see submit_read_many
  return t;
}

AsyncBackend::Ticket AsyncBackend::submit_write_many_borrowed(
    std::span<const std::uint64_t> blocks, std::span<const Word> in) {
  const Ticket t = submitted_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Op op = acquire_op_locked();
    op.is_write = true;
    op.blocks.assign(blocks.begin(), blocks.end());
    op.wsrc = in.data();
    op.wlen = in.size();
    queue_.push_back(std::move(op));
    queued_.fetch_add(1, std::memory_order_release);
  }
  queue_cv_.notify_one();
  std::this_thread::yield();  // see submit_read_many
  return t;
}

Status AsyncBackend::wait(Ticket t) {
  // Reporting consumes the error (see the header): take it under mu_.
  auto take_error = [&]() -> Status {
    if (!error_) return Status::Ok();
    error_ = false;
    Status st = std::move(sticky_);
    sticky_ = Status::Ok();
    return st;
  };
  for (int i = 0; i < kSpinIters && completed_.load(std::memory_order_acquire) < t; ++i)
    cpu_relax();
  if (completed_.load(std::memory_order_acquire) >= t) {
    // Fast path: the op already retired; a brief uncontended lock fetches
    // the (rare) error without a futex sleep.
    std::lock_guard<std::mutex> lk(mu_);
    return take_error();
  }
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return completed_.load(std::memory_order_relaxed) >= t; });
  return take_error();
}

Status AsyncBackend::drain() {
  return wait(submitted_.load(std::memory_order_relaxed));
}

Status AsyncBackend::do_resize(std::uint64_t nblocks) {
  OEM_RETURN_IF_ERROR(drain());
  return inner_->resize(nblocks);
}

Status AsyncBackend::do_read_many(std::span<const std::uint64_t> blocks,
                                  std::span<Word> out) {
  OEM_RETURN_IF_ERROR(drain());
  return inner_->read_many(blocks, out);
}

Status AsyncBackend::do_write_many(std::span<const std::uint64_t> blocks,
                                   std::span<const Word> in) {
  OEM_RETURN_IF_ERROR(drain());
  return inner_->write_many(blocks, in);
}

// ---------------------------------------------------------------------------
// FaultyBackend.

FaultyBackend::FaultyBackend(std::unique_ptr<StorageBackend> inner,
                             FaultProfile profile)
    : StorageBackend(inner->block_words()),
      inner_(std::move(inner)),
      profile_(profile) {
  assert(profile_.fail_rate >= 0.0 && profile_.fail_rate <= 1.0);
  if (profile_.fail_times < 1) profile_.fail_times = 1;
}

Status FaultyBackend::gate(bool is_write) {
  ops_.fetch_add(1, std::memory_order_relaxed);
  const bool eligible = is_write ? profile_.fail_writes : profile_.fail_reads;
  if (!eligible || profile_.fail_rate <= 0.0) return Status::Ok();
  std::lock_guard<std::mutex> lk(mu_);
  // A spent fault guarantees the very next attempt goes through: fail-once
  // means the immediate retry succeeds, fail-N means a retry budget >= N+1
  // attempts always recovers -- deterministically, not just in expectation.
  if (recovering_) {
    recovering_ = false;
    return Status::Ok();
  }
  if (pending_fails_ > 0) {
    if (--pending_fails_ == 0) recovering_ = true;
    faults_.fetch_add(1, std::memory_order_relaxed);
    return Status::Io("injected fault (consecutive)");
  }
  // One decision per fresh op: a 53-bit uniform draw from (seed, index).
  const std::uint64_t h =
      rng::mix64(profile_.seed ^ (0x9e3779b97f4a7c15ULL * ++decisions_));
  const double u =
      static_cast<double>(h >> 11) / static_cast<double>(std::uint64_t{1} << 53);
  if (u < profile_.fail_rate) {
    if (profile_.fail_times == 1) {
      recovering_ = true;
    } else {
      pending_fails_ = profile_.fail_times - 1;
    }
    faults_.fetch_add(1, std::memory_order_relaxed);
    return Status::Io("injected fault");
  }
  return Status::Ok();
}

Status FaultyBackend::do_read_many(std::span<const std::uint64_t> blocks,
                                   std::span<Word> out) {
  OEM_RETURN_IF_ERROR(gate(/*is_write=*/false));
  return inner_->read_many(blocks, out);
}

Status FaultyBackend::do_write_many(std::span<const std::uint64_t> blocks,
                                    std::span<const Word> in) {
  OEM_RETURN_IF_ERROR(gate(/*is_write=*/true));
  return inner_->write_many(blocks, in);
}

Status FaultyBackend::do_begin_read_many(std::span<const std::uint64_t> blocks,
                                         std::span<Word> out) {
  OEM_RETURN_IF_ERROR(gate(/*is_write=*/false));
  return inner_->begin_read_many(blocks, out);
}

Status FaultyBackend::do_begin_write_many(std::span<const std::uint64_t> blocks,
                                          std::span<const Word> in) {
  OEM_RETURN_IF_ERROR(gate(/*is_write=*/true));
  return inner_->begin_write_many(blocks, in);
}

// ---------------------------------------------------------------------------
// TamperingBackend.

TamperingBackend::TamperingBackend(std::unique_ptr<StorageBackend> inner,
                                   TamperProfile profile)
    : StorageBackend(inner->block_words()),
      inner_(std::move(inner)),
      profile_(profile) {
  assert(profile_.tamper_rate >= 0.0 && profile_.tamper_rate <= 1.0);
}

std::uint64_t TamperingBackend::draw() {
  return rng::mix64(profile_.seed ^ (0x9e3779b97f4a7c15ULL * ++decisions_));
}

bool TamperingBackend::fire() {
  const std::uint64_t h = draw();
  const double u =
      static_cast<double>(h >> 11) / static_cast<double>(std::uint64_t{1} << 53);
  return u < profile_.tamper_rate;
}

void TamperingBackend::tamper_read(std::size_t nblocks, std::span<Word> out) {
  if (!reads_armed()) return;
  const std::size_t bw = block_words();
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t i = 0; i < nblocks; ++i) {
    if (!fire()) continue;
    // Pick a mode among the enabled read attacks; swap needs a second block
    // in the batch to trade places with, so it degrades to corrupt alone.
    enum Mode { kCorrupt, kBitFlip, kSwap };
    Mode modes[3];
    std::size_t n = 0;
    if (profile_.corrupt) modes[n++] = kCorrupt;
    if (profile_.bit_flip) modes[n++] = kBitFlip;
    if (profile_.swap && nblocks > 1) modes[n++] = kSwap;
    if (n == 0) modes[n++] = kCorrupt;  // swap-only profile, one-block batch
    const Mode m = modes[draw() % n];
    std::span<Word> blk = out.subspan(i * bw, bw);
    switch (m) {
      case kCorrupt: {
        // Garble every word with a keyed stream: the block decrypts to noise
        // and its MAC check cannot pass.
        const std::uint64_t g = draw();
        for (std::size_t w = 0; w < bw; ++w) blk[w] ^= rng::mix64(g ^ w);
        break;
      }
      case kBitFlip: {
        // The subtlest mutation: one bit, anywhere -- header or payload.
        const std::uint64_t h = draw();
        blk[static_cast<std::size_t>(h % bw)] ^= Word{1} << ((h >> 32) % 64);
        break;
      }
      case kSwap: {
        // Serve another block's (valid!) bytes in this slot and vice versa:
        // only a MAC bound to the block INDEX can tell them apart.
        std::size_t other = static_cast<std::size_t>(draw() % nblocks);
        if (other == i) other = (i + 1) % nblocks;
        std::swap_ranges(blk.begin(), blk.end(), out.begin() + other * bw);
        break;
      }
    }
    tampered_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool TamperingBackend::drop_write() {
  if (profile_.tamper_rate <= 0.0 || !profile_.rollback) return false;
  std::lock_guard<std::mutex> lk(mu_);
  if (!fire()) return false;
  tampered_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Status TamperingBackend::do_read_many(std::span<const std::uint64_t> blocks,
                                      std::span<Word> out) {
  ops_.fetch_add(1, std::memory_order_relaxed);
  OEM_RETURN_IF_ERROR(inner_->read_many(blocks, out));
  tamper_read(blocks.size(), out);
  return Status::Ok();
}

Status TamperingBackend::do_write_many(std::span<const std::uint64_t> blocks,
                                       std::span<const Word> in) {
  ops_.fetch_add(1, std::memory_order_relaxed);
  if (drop_write()) return Status::Ok();
  return inner_->write_many(blocks, in);
}

Status TamperingBackend::do_begin_read_many(std::span<const std::uint64_t> blocks,
                                            std::span<Word> out) {
  ops_.fetch_add(1, std::memory_order_relaxed);
  OEM_RETURN_IF_ERROR(inner_->begin_read_many(blocks, out));
  Pending p;
  p.is_read = true;
  p.nblocks = blocks.size();
  p.out = out;
  pending_.push_back(p);
  return Status::Ok();
}

Status TamperingBackend::do_begin_write_many(std::span<const std::uint64_t> blocks,
                                             std::span<const Word> in) {
  ops_.fetch_add(1, std::memory_order_relaxed);
  Pending p;
  // Rollback is decided at BEGIN (call-sequence determinism); a dropped
  // frame is never sent, and its completion below is a local no-op.
  p.dropped = drop_write();
  if (!p.dropped) OEM_RETURN_IF_ERROR(inner_->begin_write_many(blocks, in));
  pending_.push_back(p);
  return Status::Ok();
}

Status TamperingBackend::do_complete_oldest() {
  if (pending_.empty()) return inner_->complete_oldest();
  Pending p = pending_.front();
  pending_.pop_front();
  if (p.dropped) return Status::Ok();
  Status st = inner_->complete_oldest();
  if (st.ok() && p.is_read) tamper_read(p.nblocks, p.out);
  return st;
}

// ---------------------------------------------------------------------------
// CacheCore / CachingBackend.

CacheCore::CacheCore(std::size_t capacity_blocks, CachePolicy policy)
    : cap_(capacity_blocks),
      prot_cap_(std::max<std::size_t>(1, capacity_blocks * 3 / 4)),
      policy_(policy) {}

SharedCacheHandle make_shared_cache(std::size_t capacity_blocks,
                                    CachePolicy policy) {
  return std::make_shared<CacheCore>(capacity_blocks, policy);
}

CachingBackend::CachingBackend(std::unique_ptr<StorageBackend> inner,
                               std::size_t capacity_blocks, CachePolicy policy)
    : CachingBackend(std::move(inner),
                     std::make_shared<CacheCore>(capacity_blocks, policy)) {}

CachingBackend::CachingBackend(std::unique_ptr<StorageBackend> inner,
                               SharedCacheHandle core)
    : StorageBackend(inner->block_words()),
      inner_(std::move(inner)),
      core_(std::move(core)) {
  if (core_ == nullptr) {
    init_status_ = Status::InvalidArgument("null shared cache handle");
    core_ = std::make_shared<CacheCore>(1, CachePolicy::kScanResistant);
    return;
  }
  std::lock_guard<std::mutex> lk(core_->mu_);
  view_id_ = core_->next_view_id_++;
  if (core_->cap_ < 1) {
    init_status_ = Status::InvalidArgument(
        "cache capacity must be >= 1 block; drop the decorator instead of "
        "configuring cache(0)");
    return;
  }
  if (core_->block_words_ == 0) {
    // The first attached view fixes the core's geometry.
    core_->block_words_ = block_words();
    core_->slab_.resize(core_->cap_ * block_words());
    core_->free_slots_.reserve(core_->cap_);
    for (std::size_t s = core_->cap_; s > 0; --s)
      core_->free_slots_.push_back(s - 1);
  } else if (core_->block_words_ != block_words()) {
    init_status_ = Status::InvalidArgument(
        "shared cache geometry mismatch: every attached session must use the "
        "same block size");
  }
}

CachingBackend::~CachingBackend() {
  if (!init_status_.ok()) return;
  flush();  // best effort: this view's dirty blocks reach its store
  std::lock_guard<std::mutex> lk(core_->mu_);
  drop_view();
}

CachingBackend::Entry* CachingBackend::find(std::uint64_t block) {
  auto it = core_->entries_.find(key_of(block));
  return it == core_->entries_.end() ? nullptr : &it->second;
}

void CachingBackend::touch(Entry& e, std::uint64_t key) {
  CacheCore& c = *core_;
  if (c.policy_ == CachePolicy::kLru) {
    // v1 single-list LRU: probation_ doubles as the one list.
    c.probation_.erase(e.lru);
    c.probation_.push_front(key);
    e.lru = c.probation_.begin();
    return;
  }
  if (e.prot) {
    c.protected_.erase(e.lru);
    c.protected_.push_front(key);
    e.lru = c.protected_.begin();
    return;
  }
  // Re-reference of a probation resident: promote.  This is the admission
  // gate -- a one-pass scan touches each block once and never gets here, so
  // scan traffic can only churn probation while the re-referenced working
  // set sits protected.
  c.probation_.erase(e.lru);
  c.protected_.push_front(key);
  e.lru = c.protected_.begin();
  e.prot = true;
  if (c.protected_.size() > c.prot_cap_) {
    // Demote the protected LRU to probation-front: it outlived its
    // re-reference credit but still outranks a never-retouched scan block.
    const std::uint64_t demoted = c.protected_.back();
    c.protected_.pop_back();
    Entry& d = c.entries_.at(demoted);
    c.probation_.push_front(demoted);
    d.lru = c.probation_.begin();
    d.prot = false;
  }
}

Status CachingBackend::write_back_run(std::uint64_t key) {
  CacheCore& c = *core_;
  auto fnd = [&c](std::uint64_t k) -> Entry* {
    auto it = c.entries_.find(k);
    return it == c.entries_.end() ? nullptr : &it->second;
  };
  // Maximal run of consecutive cached dirty blocks around `key`: one
  // coalesced write_many frame instead of a narrow write per eviction.
  // Keys namespace the id space per view, so every neighbor in the run
  // belongs to the same view -- and is written back through ITS inner.
  std::uint64_t lo = key, hi = key;
  while (block_of(lo) > 0) {
    Entry* e = fnd(lo - 1);
    if (e == nullptr || !e->dirty) break;
    --lo;
  }
  for (;;) {
    Entry* e = fnd(hi + 1);
    if (e == nullptr || !e->dirty) break;
    ++hi;
  }
  CachingBackend* owner = c.entries_.at(key).owner;
  const std::size_t bw = block_words();
  const std::size_t n = static_cast<std::size_t>(hi - lo + 1);
  std::vector<std::uint64_t> ids(n);
  owner->wb_stage_.resize(n * bw);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = block_of(lo + i);
    std::memcpy(owner->wb_stage_.data() + i * bw,
                slot_data(c.entries_.at(lo + i).slot), bw * sizeof(Word));
  }
  OEM_RETURN_IF_ERROR(owner->inner_->write_many(ids, owner->wb_stage_));
  // Only mark clean once the write landed: a transient failure above leaves
  // the dirty state (and the data) untouched for the device's retry.
  for (std::uint64_t k = lo; k <= hi; ++k) c.entries_.at(k).dirty = false;
  owner->writebacks_.fetch_add(n, std::memory_order_relaxed);
  owner->writeback_ops_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status CachingBackend::evict_one(std::size_t* slot) {
  CacheCore& c = *core_;
  // Probation drains first (under kLru everything lives there); protected
  // blocks go only when probation has no eligible victim.  Ineligible:
  // batch-pinned entries (see do_write_many) and dirty entries whose owner
  // view has begun-but-incomplete split-phase ops -- a synchronous
  // write-back through that inner would land mid-flight inside its FIFO.
  for (std::list<std::uint64_t>* seg : {&c.probation_, &c.protected_}) {
    for (auto it = seg->rbegin(); it != seg->rend(); ++it) {
      const std::uint64_t victim = *it;
      Entry& e = c.entries_.at(victim);
      if (e.pinned) continue;
      if (e.dirty && !e.owner->pending_.empty()) continue;
      if (e.dirty) OEM_RETURN_IF_ERROR(write_back_run(victim));
      if (seg == &c.probation_ && c.policy_ == CachePolicy::kScanResistant)
        e.owner->admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      e.owner->evictions_.fetch_add(1, std::memory_order_relaxed);
      *slot = e.slot;
      seg->erase(e.lru);
      c.entries_.erase(victim);
      return Status::Ok();
    }
  }
  return Status::Io(
      "cache eviction blocked: every resident block is pinned or owned by a "
      "view with in-flight frames");
}

Result<CachingBackend::Entry*> CachingBackend::insert(std::uint64_t block) {
  CacheCore& c = *core_;
  std::size_t slot;
  if (!c.free_slots_.empty()) {
    slot = c.free_slots_.back();
    c.free_slots_.pop_back();
  } else {
    OEM_RETURN_IF_ERROR(evict_one(&slot));
  }
  const std::uint64_t key = key_of(block);
  c.probation_.push_front(key);
  Entry e;
  e.owner = this;
  e.slot = slot;
  e.dirty = false;
  e.prot = false;
  e.lru = c.probation_.begin();
  return &c.entries_.emplace(key, e).first->second;
}

void CachingBackend::erase_entry(std::uint64_t key) {
  CacheCore& c = *core_;
  auto it = c.entries_.find(key);
  if (it == c.entries_.end()) return;
  Entry& e = it->second;
  (e.prot ? c.protected_ : c.probation_).erase(e.lru);
  c.free_slots_.push_back(e.slot);
  c.entries_.erase(it);
}

void CachingBackend::drop_view() {
  CacheCore& c = *core_;
  std::vector<std::uint64_t> own;
  own.reserve(c.entries_.size());
  for (const auto& [key, e] : c.entries_)
    if (e.owner == this) own.push_back(key);
  for (std::uint64_t k : own) erase_entry(k);
}

Status CachingBackend::flush() {
  Status st;
  {
    std::lock_guard<std::mutex> lk(core_->mu_);
    st = flush_impl();
  }
  if (!st.ok()) {
    // Latch the failure so it cannot vanish with the destructor's
    // best-effort flush: the count and first error stay observable through
    // stats()/health() for the lifetime of the cache.
    flush_failures_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(flush_mu_);
    if (flush_error_.ok()) flush_error_ = st;
  }
  return st;
}

Status CachingBackend::flush_impl() {
  // Complete any begun ops first (callers normally already have).  Only THIS
  // view's dirty blocks are written back: a shared core's other sessions
  // flush their own data on their own schedule.
  while (!pending_.empty()) OEM_RETURN_IF_ERROR(do_complete_oldest_locked());
  CacheCore& c = *core_;
  std::vector<std::uint64_t> dirty_keys;
  for (const auto& [key, e] : c.entries_)
    if (e.owner == this && e.dirty) dirty_keys.push_back(key);
  if (dirty_keys.empty()) return inner_->flush();
  std::sort(dirty_keys.begin(), dirty_keys.end());
  const std::size_t bw = block_words();
  std::vector<std::uint64_t> ids(dirty_keys.size());
  wb_stage_.resize(dirty_keys.size() * bw);
  for (std::size_t i = 0; i < dirty_keys.size(); ++i) {
    ids[i] = block_of(dirty_keys[i]);
    std::memcpy(wb_stage_.data() + i * bw,
                slot_data(c.entries_.at(dirty_keys[i]).slot), bw * sizeof(Word));
  }
  OEM_RETURN_IF_ERROR(inner_->write_many(ids, wb_stage_));
  for (std::uint64_t k : dirty_keys) c.entries_.at(k).dirty = false;
  writebacks_.fetch_add(dirty_keys.size(), std::memory_order_relaxed);
  writeback_ops_.fetch_add(1, std::memory_order_relaxed);
  return inner_->flush();
}

Status CachingBackend::do_resize(std::uint64_t nblocks) {
  std::lock_guard<std::mutex> lk(core_->mu_);
  while (!pending_.empty()) OEM_RETURN_IF_ERROR(do_complete_oldest_locked());
  // Shrunk-away blocks are gone by contract -- dirty included -- so a later
  // re-grow reads them as zero, exactly like the store below.  Only this
  // view's namespace is affected.
  CacheCore& c = *core_;
  std::vector<std::uint64_t> doomed;
  for (const auto& [key, e] : c.entries_)
    if (e.owner == this && block_of(key) >= nblocks) doomed.push_back(key);
  for (std::uint64_t k : doomed) erase_entry(k);
  return inner_->resize(nblocks);
}

Status CachingBackend::do_read_many(std::span<const std::uint64_t> blocks,
                                    std::span<Word> out) {
  std::lock_guard<std::mutex> core_lk(core_->mu_);
  while (!pending_.empty()) OEM_RETURN_IF_ERROR(do_complete_oldest_locked());
  const std::size_t bw = block_words();
  // Stats are credited only on success: the device's retry loop re-invokes
  // the whole op on kIo, and re-served hits must not count twice.
  std::uint64_t op_hits = 0;
  std::vector<std::uint64_t> miss_ids;
  std::vector<std::size_t> miss_pos;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    Entry* e = find(blocks[i]);
    if (e != nullptr) {
      std::memcpy(out.data() + i * bw, slot_data(e->slot), bw * sizeof(Word));
      touch(*e, key_of(blocks[i]));
      ++op_hits;
    } else {
      miss_ids.push_back(blocks[i]);
      miss_pos.push_back(i);
    }
  }
  if (miss_ids.empty()) {
    hits_.fetch_add(op_hits, std::memory_order_relaxed);
    return Status::Ok();
  }
  // Zero-copy when the misses are one contiguous run of the caller's buffer
  // (the common cold-stream case: everything missed); strided misses land in
  // a staging buffer and scatter.
  if (contiguous_run(miss_pos)) {
    std::span<Word> dest = out.subspan(miss_pos[0] * bw, miss_ids.size() * bw);
    OEM_RETURN_IF_ERROR(inner_->read_many(miss_ids, dest));
    for (std::size_t j = 0; j < miss_ids.size(); ++j) {
      if (find(miss_ids[j]) != nullptr) continue;  // duplicate id in this batch
      auto e = insert(miss_ids[j]);
      OEM_RETURN_IF_ERROR(e.status());
      std::memcpy(slot_data((*e)->slot), dest.data() + j * bw, bw * sizeof(Word));
    }
    hits_.fetch_add(op_hits, std::memory_order_relaxed);
    misses_.fetch_add(miss_ids.size(), std::memory_order_relaxed);
    return Status::Ok();
  }
  ArenaBuffer staging;
  staging.resize(miss_ids.size() * bw);
  OEM_RETURN_IF_ERROR(
      inner_->read_many(miss_ids, std::span<Word>(staging.data(), staging.size())));
  for (std::size_t j = 0; j < miss_ids.size(); ++j) {
    std::memcpy(out.data() + miss_pos[j] * bw, staging.data() + j * bw,
                bw * sizeof(Word));
    if (find(miss_ids[j]) != nullptr) continue;
    auto e = insert(miss_ids[j]);
    OEM_RETURN_IF_ERROR(e.status());
    std::memcpy(slot_data((*e)->slot), staging.data() + j * bw, bw * sizeof(Word));
  }
  hits_.fetch_add(op_hits, std::memory_order_relaxed);
  misses_.fetch_add(miss_ids.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Status CachingBackend::do_write_many(std::span<const std::uint64_t> blocks,
                                     std::span<const Word> in) {
  std::lock_guard<std::mutex> core_lk(core_->mu_);
  while (!pending_.empty()) OEM_RETURN_IF_ERROR(do_complete_oldest_locked());
  CacheCore& c = *core_;
  const std::size_t bw = block_words();
  // Atomic-by-rejection, like every other backend: everything that can fail
  // (eviction write-backs, a write-through) happens BEFORE any of this
  // batch's data enters the cache, so a kIo'd write leaves no partial
  // absorption behind -- nothing of a rejected batch can ever be flushed.
  std::size_t unique = 0, fresh = 0;  // distinct ids / distinct uncached ids
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i && !seen; ++j) seen = blocks[j] == blocks[i];
    if (seen) continue;
    ++unique;
    if (find(blocks[i]) == nullptr) ++fresh;
  }
  const bool fits = unique <= c.cap_;
  Status phase1;
  if (fits) {
    // Phase 1a: pin this batch's cached entries (and front them) so the
    // slot-freeing evictions below can only pick non-batch victims (the
    // capacity argument: unique <= cap_ guarantees enough of them).
    for (std::size_t i = 0; i < blocks.size(); ++i)
      if (Entry* e = find(blocks[i])) {
        touch(*e, key_of(blocks[i]));
        e->pinned = true;
      }
    // Phase 1b: secure a slot per fresh id -- the only failure point.
    while (phase1.ok() && c.free_slots_.size() < fresh) {
      std::size_t slot;
      phase1 = evict_one(&slot);
      if (phase1.ok()) c.free_slots_.push_back(slot);
    }
    // Unpin before any return: pins only shield this batch's phase 1b.
    for (std::size_t i = 0; i < blocks.size(); ++i)
      if (Entry* e = find(blocks[i])) e->pinned = false;
    OEM_RETURN_IF_ERROR(phase1);
  } else {
    // Degenerate batch wider than the whole cache: write the uncached
    // subset through (one failable op, first), then absorb the cached
    // overwrites (infallible).
    std::vector<std::uint64_t> through_ids;
    std::vector<std::size_t> through_pos;
    for (std::size_t i = 0; i < blocks.size(); ++i)
      if (find(blocks[i]) == nullptr) {
        through_ids.push_back(blocks[i]);
        through_pos.push_back(i);
      }
    wb_stage_.resize(through_ids.size() * bw);
    for (std::size_t j = 0; j < through_ids.size(); ++j)
      std::memcpy(wb_stage_.data() + j * bw, in.data() + through_pos[j] * bw,
                  bw * sizeof(Word));
    OEM_RETURN_IF_ERROR(inner_->write_many(through_ids, wb_stage_));
  }
  // Phase 2: absorb -- infallible by construction.
  std::uint64_t op_absorbed = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    Entry* e = find(blocks[i]);
    if (e == nullptr) {
      if (!fits) continue;  // written through above
      auto inserted = insert(blocks[i]);
      assert(inserted.ok());
      e = *inserted;
    } else {
      touch(*e, key_of(blocks[i]));
    }
    std::memcpy(slot_data(e->slot), in.data() + i * bw, bw * sizeof(Word));
    e->dirty = true;
    ++op_absorbed;
  }
  absorbed_.fetch_add(op_absorbed, std::memory_order_relaxed);
  return Status::Ok();
}

// Split-phase face: cached blocks are served/absorbed at begin time and the
// remainder forwards as at most one inner frame per begun batch.  The BEGIN
// half never changes residency, so a frame begun against an uncached block
// stays consistent; residency is granted at a read's successful COMPLETION
// (the bytes are in hand -- caching them costs no inner op), with two guards
// that keep the in-flight frames coherent:
//   * a block targeted by a still-pending write-AROUND frame is skipped (the
//     cached copy would go stale the moment that frame lands below), and
//   * slot acquisition never does inner I/O (free slot or clean LRU victim
//     only; a dirty victim would need a synchronous write-back in the middle
//     of the inner store's in-flight FIFO).
// Serving hits at begin stays sound: a block cached at completion time was a
// MISS in every frame begun before, and those frames complete from the inner
// store in FIFO order -- exactly the pre-insertion data they should observe.

Status CachingBackend::do_begin_read_many(std::span<const std::uint64_t> blocks,
                                          std::span<Word> out) {
  std::lock_guard<std::mutex> core_lk(core_->mu_);
  const std::size_t bw = block_words();
  PendingOp op;
  op.is_read = true;
  op.out = out.data();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    Entry* e = find(blocks[i]);
    if (e != nullptr) {
      std::memcpy(out.data() + i * bw, slot_data(e->slot), bw * sizeof(Word));
      touch(*e, key_of(blocks[i]));
      ++op.hits;
    } else {
      op.miss_ids.push_back(blocks[i]);
      op.miss_pos.push_back(i);
    }
  }
  op.misses = op.miss_ids.size();
  if (!op.miss_ids.empty()) {
    Status st;
    if (contiguous_run(op.miss_pos)) {
      // Borrowed span: the inner store completes straight into the caller's
      // buffer; op.staging stays empty as the marker.
      st = inner_->begin_read_many(
          op.miss_ids, out.subspan(op.miss_pos[0] * bw, op.miss_ids.size() * bw));
    } else {
      op.staging.resize(op.miss_ids.size() * bw);
      st = inner_->begin_read_many(
          op.miss_ids, std::span<Word>(op.staging.data(), op.staging.size()));
    }
    if (!st.ok()) return st;  // nothing begun, nothing to unwind
    op.has_frame = true;
  }
  pending_.push_back(std::move(op));
  return Status::Ok();
}

Status CachingBackend::do_begin_write_many(std::span<const std::uint64_t> blocks,
                                           std::span<const Word> in) {
  std::lock_guard<std::mutex> core_lk(core_->mu_);
  const std::size_t bw = block_words();
  PendingOp op;
  std::vector<std::uint64_t> around_ids;
  std::vector<std::size_t> around_pos;
  for (std::size_t i = 0; i < blocks.size(); ++i)
    if (find(blocks[i]) == nullptr) {
      // Write-around: uncached blocks go to the store below as one begun
      // frame (no allocation in the split-phase path -- see above).
      around_ids.push_back(blocks[i]);
      around_pos.push_back(i);
    }
  // The failable part first (atomic-by-rejection, like the sync path): only
  // once the write-around frame is on the wire does any of this batch's
  // data enter the cache, so a refused begin absorbs nothing.
  if (!around_ids.empty()) {
    Status st;
    if (contiguous_run(around_pos)) {
      st = inner_->begin_write_many(
          around_ids, in.subspan(around_pos[0] * bw, around_ids.size() * bw));
    } else {
      // begin_write_many consumes its input before returning, so the reused
      // gather scratch is safe.
      wb_stage_.resize(around_ids.size() * bw);
      for (std::size_t j = 0; j < around_ids.size(); ++j)
        std::memcpy(wb_stage_.data() + j * bw, in.data() + around_pos[j] * bw,
                    bw * sizeof(Word));
      st = inner_->begin_write_many(around_ids, wb_stage_);
    }
    if (!st.ok()) return st;
    op.has_frame = true;
    // Remembered so read completions won't grant residency to a block whose
    // write-around frame is still in flight below.
    op.miss_ids = std::move(around_ids);
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    Entry* e = find(blocks[i]);
    if (e == nullptr) continue;  // written around above
    std::memcpy(slot_data(e->slot), in.data() + i * bw, bw * sizeof(Word));
    e->dirty = true;
    touch(*e, key_of(blocks[i]));
    ++op.absorbed;
  }
  pending_.push_back(std::move(op));
  return Status::Ok();
}

bool CachingBackend::write_around_in_flight(std::uint64_t block) const {
  for (const PendingOp& p : pending_) {
    if (p.is_read) continue;
    for (std::uint64_t b : p.miss_ids)
      if (b == block) return true;
  }
  return false;
}

Status CachingBackend::do_complete_oldest() {
  std::lock_guard<std::mutex> core_lk(core_->mu_);
  return do_complete_oldest_locked();
}

Status CachingBackend::do_complete_oldest_locked() {
  if (pending_.empty()) return Status::Ok();
  CacheCore& c = *core_;
  PendingOp op = std::move(pending_.front());
  pending_.pop_front();
  Status st;
  if (op.has_frame) st = inner_->complete_oldest();
  const std::size_t bw = block_words();
  if (st.ok() && op.is_read && !op.staging.empty()) {
    for (std::size_t j = 0; j < op.miss_ids.size(); ++j)
      std::memcpy(op.out + op.miss_pos[j] * bw, op.staging.data() + j * bw,
                  bw * sizeof(Word));
  }
  if (st.ok() && op.is_read) {
    // Grant the fetched misses residency -- the split-phase equivalent of
    // the synchronous read path's insert, deferred to the moment the bytes
    // exist.  See the guards in the section comment above: no inner I/O
    // (free slot or clean victim only) and no block with a write-around
    // frame still in flight.  Victims come from the probation tail first --
    // a fetched miss is itself probationary, so it never displaces the
    // protected set.
    for (std::size_t j = 0; j < op.miss_ids.size(); ++j) {
      const std::uint64_t b = op.miss_ids[j];
      if (find(b) != nullptr) continue;  // duplicate id or already granted
      if (write_around_in_flight(b)) continue;
      std::size_t slot = 0;
      bool have_slot = false;
      if (!c.free_slots_.empty()) {
        slot = c.free_slots_.back();
        c.free_slots_.pop_back();
        have_slot = true;
      } else {
        for (std::list<std::uint64_t>* seg : {&c.probation_, &c.protected_}) {
          for (auto it = seg->rbegin(); it != seg->rend(); ++it) {
            Entry& v = c.entries_.at(*it);
            if (v.dirty || v.pinned) continue;
            slot = v.slot;
            v.owner->evictions_.fetch_add(1, std::memory_order_relaxed);
            c.entries_.erase(*it);
            seg->erase(std::next(it).base());
            have_slot = true;
            break;
          }
          if (have_slot) break;
        }
      }
      if (!have_slot) {
        // Every resident block is dirty or pinned: granting residency would
        // need inner I/O mid-FIFO.  Decline -- the bytes are already in the
        // caller's hands, only the cache copy is skipped.
        admission_rejects_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::uint64_t key = key_of(b);
      c.probation_.push_front(key);
      Entry e;
      e.owner = this;
      e.slot = slot;
      e.dirty = false;
      e.prot = false;
      e.pinned = false;
      e.lru = c.probation_.begin();
      c.entries_.emplace(key, e);
      const Word* src = op.staging.empty() ? op.out + op.miss_pos[j] * bw
                                           : op.staging.data() + j * bw;
      std::memcpy(slot_data(slot), src, bw * sizeof(Word));
    }
  }
  if (st.ok()) {
    // Credit the op's stats only now that it completed: a failed op is
    // replayed through the synchronous path, which does its own counting.
    hits_.fetch_add(op.hits, std::memory_order_relaxed);
    misses_.fetch_add(op.misses, std::memory_order_relaxed);
    absorbed_.fetch_add(op.absorbed, std::memory_order_relaxed);
  }
  return st;
}

// ---------------------------------------------------------------------------
// Factories.

BackendFactory sharded_backend(BackendFactory inner, std::size_t shards) {
  ShardFactory per_shard = [inner = std::move(inner)](std::size_t block_words,
                                                      std::size_t) {
    return inner ? inner(block_words) : std::make_unique<MemBackend>(block_words);
  };
  return sharded_backend(std::move(per_shard), shards);
}

BackendFactory sharded_backend(ShardFactory inner, std::size_t shards) {
  assert(shards >= 1);
  return [inner = std::move(inner), shards](std::size_t block_words)
             -> std::unique_ptr<StorageBackend> {
    if (shards == 1)
      return inner ? inner(block_words, 0) : std::make_unique<MemBackend>(block_words);
    std::vector<std::unique_ptr<StorageBackend>> v;
    v.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s)
      v.push_back(inner ? inner(block_words, s)
                        : std::make_unique<MemBackend>(block_words));
    return std::make_unique<ShardedBackend>(block_words, std::move(v));
  };
}

BackendFactory async_backend(BackendFactory inner) {
  return [inner = std::move(inner)](std::size_t block_words)
             -> std::unique_ptr<StorageBackend> {
    auto base = inner ? inner(block_words) : std::make_unique<MemBackend>(block_words);
    return std::make_unique<AsyncBackend>(std::move(base));
  };
}

BackendFactory faulty_backend(BackendFactory inner, FaultProfile profile) {
  return [inner = std::move(inner),
          profile](std::size_t block_words) -> std::unique_ptr<StorageBackend> {
    auto base = inner ? inner(block_words) : std::make_unique<MemBackend>(block_words);
    return std::make_unique<FaultyBackend>(std::move(base), profile);
  };
}

BackendFactory tampering_backend(BackendFactory inner, TamperProfile profile) {
  return [inner = std::move(inner),
          profile](std::size_t block_words) -> std::unique_ptr<StorageBackend> {
    auto base = inner ? inner(block_words) : std::make_unique<MemBackend>(block_words);
    return std::make_unique<TamperingBackend>(std::move(base), profile);
  };
}

BackendFactory caching_backend(BackendFactory inner, std::size_t capacity_blocks,
                               CachePolicy policy) {
  return [inner = std::move(inner), capacity_blocks,
          policy](std::size_t block_words) -> std::unique_ptr<StorageBackend> {
    auto base = inner ? inner(block_words) : std::make_unique<MemBackend>(block_words);
    return std::make_unique<CachingBackend>(std::move(base), capacity_blocks, policy);
  };
}

BackendFactory caching_backend(BackendFactory inner, SharedCacheHandle core) {
  return [inner = std::move(inner),
          core = std::move(core)](std::size_t block_words) -> std::unique_ptr<StorageBackend> {
    auto base = inner ? inner(block_words) : std::make_unique<MemBackend>(block_words);
    return std::make_unique<CachingBackend>(std::move(base), core);
  };
}

}  // namespace oem
