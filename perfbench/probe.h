// Tracing probes for the perfbench harness.
//
// The benchmark measures every layer from outside the library: it opens a
// root span around each Session call it makes, and it slips a pass-through
// StorageBackend (ProbeBackend) over each base store through
// Session::Builder::backend().  Store calls are far too frequent for raw
// spans (millions per sort), so each probe keeps counts, busy time and a
// log-bucket latency histogram, plus one aggregate per root span: every
// store call is charged to the root span whose id the benchmark set before
// the call.  Nothing here changes what Bob sees: the probe forwards every
// call unchanged, in order, on the calling thread.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "extmem/backend.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Latency histogram over nanoseconds: 16 linear sub-buckets per power of
/// two (about 6% relative resolution), interpolated within a bucket when a
/// quantile is read.
class LogHistogram {
 public:
  static constexpr int kSub = 16;
  static constexpr int kBuckets = 64 * kSub;

  void add(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++total_;
  }
  void merge(const LogHistogram& o) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  /// Removes an earlier snapshot of this histogram (window = end - start).
  void subtract(const LogHistogram& earlier) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] -= earlier.counts_[i];
    total_ -= earlier.total_;
  }

  /// Value at quantile q in [0, 1], in nanoseconds.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_ - 1);
    double seen = 0.0;
    for (int i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(counts_[i]);
      if (c == 0.0) continue;
      if (seen + c > rank) {
        const double lo = lower(i), hi = lower(i + 1);
        return lo + (hi - lo) * ((rank - seen + 0.5) / c);
      }
      seen += c;
    }
    return lower(kBuckets);
  }

  /// Non-empty buckets as (lower bound ns, count) pairs, for the trace file.
  std::vector<std::pair<double, std::uint64_t>> buckets() const {
    std::vector<std::pair<double, std::uint64_t>> out;
    for (int i = 0; i < kBuckets; ++i)
      if (counts_[i] != 0) out.emplace_back(lower(i), counts_[i]);
    return out;
  }

 private:
  static int index(std::uint64_t ns) {
    if (ns < kSub) return static_cast<int>(ns);
    const int msb = 63 - __builtin_clzll(ns);
    const int sub = static_cast<int>((ns >> (msb - 4)) & (kSub - 1));
    return std::min(kBuckets - 1, (msb - 3) * kSub + sub);
  }
  static double lower(int i) {
    if (i < kSub) return i;
    const int msb = i / kSub + 3;
    const int sub = i % kSub;
    return std::ldexp(1.0 + sub / static_cast<double>(kSub), msb);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Root-span bookkeeping shared by the harness and its probes.
struct SpanContext {
  /// Id of the root span open on the harness's thread (0 = none).  Store calls
  /// on any thread are charged to the span current when they start.
  std::atomic<std::uint64_t> current_root{0};
};

/// Set on the harness's own thread: store calls made there block the Session
/// call in progress, while calls on I/O or shard threads overlap it.
inline thread_local bool t_harness_thread = false;

/// Store-call totals charged to one root span.
struct ChildAggregate {
  std::uint64_t root = 0;
  std::uint64_t ops = 0;
  std::uint64_t blocks = 0;
  std::uint64_t busy_ns = 0;     // inside the store, any thread
  std::uint64_t blocking_ns = 0; // inside the store, on the harness's thread
};

/// What one probe (one base store) saw.
struct ProbeStats {
  std::uint64_t ops = 0;     // data calls: read/write, batched, or begun
  std::uint64_t blocks = 0;  // blocks moved by those calls
  std::uint64_t busy_ns = 0;
  std::uint64_t blocking_ns = 0;
  LogHistogram op_latency;  // call to completion (begin to complete_oldest)
  std::vector<ChildAggregate> children;  // one entry per root span, in order
};

/// Pass-through StorageBackend over one base store.  It forwards the whole
/// face, including flush/health/inner_backend and the split-phase calls, so
/// a RemoteBackend below keeps its wire pipelining.  It must sit below any
/// AsyncBackend or CachingBackend: BlockDevice finds those by dynamic_cast
/// on the outermost layers.
class ProbeBackend : public oem::StorageBackend {
 public:
  ProbeBackend(std::unique_ptr<oem::StorageBackend> inner, const SpanContext& ctx)
      : StorageBackend(inner->block_words()), inner_(std::move(inner)), ctx_(ctx) {}

  const char* name() const override { return inner_->name(); }
  oem::Status health() const override { return inner_->health(); }
  oem::Status flush() override { return inner_->flush(); }
  const oem::StorageBackend* inner_backend() const override { return inner_.get(); }

  /// Snapshot, taken once the session is idle.
  ProbeStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 protected:
  oem::Status do_resize(std::uint64_t nblocks) override {
    return inner_->resize(nblocks);
  }
  oem::Status do_read(std::uint64_t block, std::span<oem::Word> out) override {
    const Start at = start();
    oem::Status st = inner_->read(block, out);
    record(at, 1);
    return st;
  }
  oem::Status do_write(std::uint64_t block, std::span<const oem::Word> in) override {
    const Start at = start();
    oem::Status st = inner_->write(block, in);
    record(at, 1);
    return st;
  }
  oem::Status do_read_many(std::span<const std::uint64_t> blocks,
                           std::span<oem::Word> out) override {
    const Start at = start();
    oem::Status st = inner_->read_many(blocks, out);
    record(at, blocks.size());
    return st;
  }
  oem::Status do_write_many(std::span<const std::uint64_t> blocks,
                            std::span<const oem::Word> in) override {
    const Start at = start();
    oem::Status st = inner_->write_many(blocks, in);
    record(at, blocks.size());
    return st;
  }
  std::size_t do_max_inflight() const override { return inner_->max_inflight(); }
  oem::Status do_begin_read_many(std::span<const std::uint64_t> blocks,
                                 std::span<oem::Word> out) override {
    const Start at = start();
    oem::Status st = inner_->begin_read_many(blocks, out);
    begun(at, blocks.size(), st.ok());
    return st;
  }
  oem::Status do_begin_write_many(std::span<const std::uint64_t> blocks,
                                  std::span<const oem::Word> in) override {
    const Start at = start();
    oem::Status st = inner_->begin_write_many(blocks, in);
    begun(at, blocks.size(), st.ok());
    return st;
  }
  oem::Status do_complete_oldest() override {
    const Start at = start();
    oem::Status st = inner_->complete_oldest();
    const std::uint64_t t1 = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    charge(at.root, t1 - at.ns, 0, 0);
    if (!begun_at_.empty()) {
      stats_.op_latency.add(t1 - begun_at_.front());
      begun_at_.pop_front();
    }
    return st;
  }

 private:
  /// When a call started, and the root span it is charged to.
  struct Start {
    std::uint64_t ns;
    std::uint64_t root;
  };
  Start start() const {
    return {now_ns(), ctx_.current_root.load(std::memory_order_relaxed)};
  }

  /// A synchronous call: one op whose latency is its own duration.
  void record(Start at, std::uint64_t nblocks) {
    const std::uint64_t t1 = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    charge(at.root, t1 - at.ns, 1, nblocks);
    stats_.op_latency.add(t1 - at.ns);
  }
  /// A begun split-phase op: its latency ends at the matching complete.  A
  /// begin that failed leaves nothing outstanding below, so nothing to time.
  void begun(Start at, std::uint64_t nblocks, bool outstanding) {
    const std::uint64_t t1 = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    charge(at.root, t1 - at.ns, 1, nblocks);
    if (outstanding) begun_at_.push_back(at.ns);
  }
  void charge(std::uint64_t root, std::uint64_t busy, std::uint64_t ops, std::uint64_t nblocks) {
    if (stats_.children.empty() || stats_.children.back().root != root)
      stats_.children.push_back({root, 0, 0, 0, 0});
    ChildAggregate& c = stats_.children.back();
    const std::uint64_t blocking = t_harness_thread ? busy : 0;
    c.ops += ops;
    c.blocks += nblocks;
    c.busy_ns += busy;
    c.blocking_ns += blocking;
    stats_.ops += ops;
    stats_.blocks += nblocks;
    stats_.busy_ns += busy;
    stats_.blocking_ns += blocking;
  }

  std::unique_ptr<oem::StorageBackend> inner_;
  const SpanContext& ctx_;
  mutable std::mutex mu_;
  ProbeStats stats_;                   // guarded by mu_
  std::deque<std::uint64_t> begun_at_; // guarded by mu_
};

/// Wraps every store `inner` builds in a ProbeBackend and keeps a pointer to
/// each, in construction (= shard) order, so the harness can read them after
/// the run.  The probes are owned by the session's stack; `registry` must
/// only be read while that session is alive.
inline oem::BackendFactory probe_backend(oem::BackendFactory inner, const SpanContext& ctx,
                                         std::shared_ptr<std::vector<ProbeBackend*>> registry) {
  return [inner = std::move(inner), &ctx,
          registry = std::move(registry)](std::size_t block_words) {
    auto probe = std::make_unique<ProbeBackend>(inner(block_words), ctx);
    registry->push_back(probe.get());
    return std::unique_ptr<oem::StorageBackend>(std::move(probe));
  };
}

}  // namespace perfbench
