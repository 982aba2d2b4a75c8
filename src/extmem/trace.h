// Access-trace recording: the adversary's view.
//
// Bob observes the *sequence* of block reads and writes (op + block index)
// but not plaintext contents (paper §1).  TraceRecorder captures exactly that
// view.  For large runs it can run in hash-only mode (streaming FNV-1a over
// events) so obliviousness can still be asserted via trace-hash equality
// without storing millions of events.
#pragma once

#include <cstdint>
#include <vector>

namespace oem {

enum class IoOp : std::uint8_t { kRead = 0, kWrite = 1 };

struct TraceEvent {
  IoOp op;
  std::uint64_t block;

  friend bool operator==(const TraceEvent& a, const TraceEvent& b) {
    return a.op == b.op && a.block == b.block;
  }
};

struct IoStats {
  std::uint64_t reads = 0;       // blocks read (what the paper's bounds count)
  std::uint64_t writes = 0;      // blocks written
  std::uint64_t read_ops = 0;    // backend calls: a batched read_many is one op
  std::uint64_t write_ops = 0;   // backend calls: a batched write_many is one op
  // Drained-at counters: the subset of the ops above whose physical
  // completion the device has observed (synchronous ops immediately;
  // submitted split-phase frames at the wait/drain that covered them).
  // After a drain they equal the submit-time counters, so `--prefetch` /
  // sharded bench rows report op counts comparable with synchronous rows
  // even when read mid-run.
  std::uint64_t drained_reads = 0;
  std::uint64_t drained_writes = 0;
  std::uint64_t drained_read_ops = 0;
  std::uint64_t drained_write_ops = 0;
  // Compute wall time, recorded on the caller's thread: the pipeline's
  // compute phase and the encrypt/decrypt sections of Client.  Diagnostics only -- NOT part of Bob's view (wall
  // time is not in the trace), but printed by the bench notes so
  // compute-vs-I/O bottleneck shifts are visible in every row.
  std::uint64_t compute_ns = 0;
  std::uint64_t crypto_ns = 0;
  std::uint64_t total() const { return reads + writes; }
  std::uint64_t total_ops() const { return read_ops + write_ops; }
  std::uint64_t drained_total() const { return drained_reads + drained_writes; }
  std::uint64_t drained_total_ops() const {
    return drained_read_ops + drained_write_ops;
  }
};

class TraceRecorder {
 public:
  void set_record_events(bool on) { record_events_ = on; }
  bool recording_events() const { return record_events_; }

  void on_access(IoOp op, std::uint64_t block);

  /// Streaming FNV-1a hash over all events since the last reset.
  std::uint64_t hash() const { return hash_; }
  std::uint64_t size() const { return count_; }
  const std::vector<TraceEvent>& events() const { return events_; }

  void reset();

 private:
  bool record_events_ = false;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV offset basis
  std::uint64_t count_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace oem
