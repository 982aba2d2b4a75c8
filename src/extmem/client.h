// Client: Alice's side of the outsourced-storage protocol.
//
// Owns the (simulated) remote BlockDevice, the encryption state, the private
// cache meter, and the master PRG.  All algorithm I/O flows through
// read_block/write_block (or their batched read_blocks/write_blocks
// counterparts), which (de/en)crypt and are counted + traced by the device --
// exactly the adversary's view in the paper's model.  Which physical storage
// backs the device (RAM, file, latency-modeled remote) is chosen via
// ClientParams::backend and is invisible to both the algorithms and Bob's
// trace.
//
// Parameter naming follows the paper: B = records per block, M = records of
// private cache, N = records in an input, n = ceil(N/B) blocks,
// m = floor(M/B) cache blocks.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "extmem/backend.h"
#include "extmem/cache_meter.h"
#include "extmem/device.h"
#include "extmem/encryption.h"
#include "extmem/ext_array.h"
#include "extmem/freshness.h"
#include "extmem/record.h"
#include "rng/random.h"
#include "util/math.h"

namespace oem {

struct ClientParams {
  std::size_t block_records = 16;    // B
  std::uint64_t cache_records = 1024;  // M
  std::uint64_t seed = 1;
  bool strict_cache = false;  // strict: throw when a lease exceeds M
  /// Storage backend factory; null means MemBackend (in-RAM simulation).
  BackendFactory backend;
  /// Batch window for the batched I/O helpers, in blocks.  0 = auto
  /// (max(1, m/4), so the in-flight ciphertext staging stays well under M);
  /// 1 degenerates every batched helper to the per-block path (useful for
  /// baseline benchmarks).
  std::uint64_t io_batch_blocks = 0;
  /// Total attempts per backend call before a storage failure surfaces as
  /// StatusCode::kIo (1 = no retry).  See BlockDevice's RetryPolicy: retries
  /// are below the counters and the trace.
  unsigned io_retry_attempts = 1;
  /// In-flight window ring size for run_block_pipeline (extmem/pipeline.h):
  /// 1 = strictly sequential windows, 2 = the classic double buffer
  /// (default), K = up to K-1 windows' reads prefetched ahead of the one
  /// computing.  A public scheduling parameter like B: the submission order
  /// (hence the trace) is a function of (passes, depth), never of the data.
  std::size_t pipeline_depth = 2;
  /// Durable freshness state file (extmem/freshness.h).  Empty = the PR 8
  /// behavior: the anti-rollback table lives and dies with the process.
  /// Non-empty: persist_state() (and the destructor, best-effort) seal the
  /// version table + nonce counter + store namespace here, and a restarted
  /// client restores them via `initial_state` so rollback staged while it
  /// was down is still detected.
  std::string state_path;
  /// Loaded state to restore (normally filled by hydrate_state below).
  std::shared_ptr<const FreshnessState> initial_state;
  /// Remote store-id namespace this session addresses (0 = none/mem).  Kept
  /// here so it rides into the persisted state: a restarted remote session
  /// must reach the SAME server stores its predecessor wrote.
  std::uint64_t store_namespace = 0;
};

/// Load `p->state_path` (if set and present) into `p->initial_state` and
/// restore the persisted store namespace.  Missing file (first boot) is a
/// no-op; an existing-but-corrupt file returns kIntegrity and the caller
/// must fail closed, not bootstrap over evidence of tampering.  Shared by
/// Session::Builder::build() and bench_common.
Status hydrate_state(ClientParams* p);

class Client {
 public:
  explicit Client(const ClientParams& params);
  /// Best-effort persist of the freshness state when a state_path is
  /// configured (errors are swallowed: destructors cannot report; callers
  /// that need the error call persist_state() explicitly first).
  ~Client();

  std::size_t B() const { return B_; }
  std::uint64_t M() const { return M_; }
  /// Cache capacity in blocks, m = floor(M/B).
  std::uint64_t m() const { return M_ / B_; }
  /// Effective batch window (blocks) used by the batched I/O helpers.
  std::uint64_t io_batch_blocks() const { return io_batch_; }

  BlockDevice& device() { return *dev_; }
  const BlockDevice& device() const { return *dev_; }
  CacheMeter& cache() { return meter_; }
  rng::Xoshiro& rng() { return rng_; }

  enum class Init { kUninit, kEmpty };

  /// Allocate an array of `num_records` records (ceil(num_records/B) blocks).
  /// Init::kEmpty writes all-empty blocks through the normal counted path
  /// (the paper's algorithms must pay to create their scratch arrays);
  /// Init::kUninit is for arrays the algorithm fully overwrites before
  /// reading.
  ExtArray alloc(std::uint64_t num_records, Init init = Init::kEmpty);
  /// Allocate by block count directly.
  ExtArray alloc_blocks(std::uint64_t num_blocks, Init init = Init::kEmpty);
  /// Stack-discipline release of a scratch array.
  void release(const ExtArray& a);

  // --- counted, traced I/O (the adversary sees these) ---

  void read_block(const ExtArray& a, std::uint64_t i, BlockBuf& out);
  void write_block(const ExtArray& a, std::uint64_t i, const BlockBuf& in);

  /// Batched block-range I/O: blocks [first, first+count) of `a` to/from a
  /// contiguous record buffer of count*B records.  Trace events and block
  /// counters are identical to the per-block loop; the device coalesces the
  /// transfer into one backend call per batch window (io_batch_blocks).
  void read_blocks(const ExtArray& a, std::uint64_t first, std::uint64_t count,
                   std::span<Record> out);
  void write_blocks(const ExtArray& a, std::uint64_t first, std::uint64_t count,
                    std::span<const Record> in);

  /// Re-encrypt block i in place without changing its contents.  To Bob this
  /// is indistinguishable from a content-changing write (1 read + 1 write).
  void touch_block(const ExtArray& a, std::uint64_t i);

  // --- ciphertext staging for the I/O-engine pipeline (extmem/pipeline.h) ---

  /// Decrypt a wire buffer of `dev_ids.size()` blocks (gather order, as
  /// returned by a completed device read) into records.  Fails closed on the
  /// first block, in gather order, that does not authenticate.
  void decrypt_blocks(std::span<const std::uint64_t> dev_ids,
                      std::span<const Word> wire, std::span<Record> out);
  /// Serialize + encrypt records into a wire buffer.  Nonces are drawn and
  /// versions bumped in scatter order, so every ciphertext is a function of
  /// the write sequence alone, however the transfer is dispatched.
  void encrypt_blocks(std::span<const std::uint64_t> dev_ids,
                      std::span<const Record> in, std::span<Word> wire);

  /// Read/write a record range that may straddle block boundaries.  Writes
  /// that partially cover a block do read-modify-write (counted).  The access
  /// pattern depends only on (start, count) -- never on data.  Full blocks in
  /// the middle of the range go through the batched path.
  void read_records(const ExtArray& a, std::uint64_t start, std::span<Record> out);
  void write_records(const ExtArray& a, std::uint64_t start, std::span<const Record> in);

  // --- uncounted debug/setup access (the omniscient test harness) ---

  /// Read the whole array without touching I/O counters, the trace, or the
  /// cache meter.  For test verification and workload setup only.
  std::vector<Record> peek(const ExtArray& a) const;
  /// Write records into the array without counting (test setup only).
  void poke(const ExtArray& a, std::span<const Record> records);

  const IoStats& stats() const { return dev_->stats(); }
  void reset_stats() { dev_->reset_stats(); }

  /// Seal the current freshness state (version table, nonce counter, store
  /// namespace, bumped generation) to ClientParams::state_path, atomically.
  /// kInvalidArgument when no state_path was configured.
  Status persist_state();

 private:
  void serialize(std::span<const Record> in, std::span<Word> out_words) const;
  void deserialize(std::span<const Word> in_words, std::span<Record> out) const;

  /// Serialize + encrypt + authenticate one block into `w` (block_words()
  /// wide, layout [nonce][mac][ciphertext]).  Pure given (nonce, version).
  void seal_words(std::uint64_t dev_blk, Word nonce, std::uint64_t version,
                  std::span<const Record> in, std::span<Word> w) const;
  /// Verify + decrypt one stored block.  Returns false when authentication
  /// fails (tampered ciphertext/header, swapped block, or rollback to a
  /// stale version); `out` is zeroed in that case so tampered plaintext can
  /// never leak to a caller that ignores the verdict.
  bool open_words(std::uint64_t dev_blk, std::span<const Word> w,
                  std::span<Record> out) const;
  /// Throw IntegrityError for device block `dev_blk` (fail closed: the
  /// Session facade maps it to StatusCode::kIntegrity, and RetryPolicy never
  /// sees it).
  [[noreturn]] void integrity_fail(std::uint64_t dev_blk) const;

  std::size_t B_;
  std::uint64_t M_;
  std::uint64_t io_batch_;
  std::string state_path_;
  std::uint64_t seed_;             // keys the state-file MAC (domain-separated)
  std::uint64_t store_namespace_;  // persisted so a restart reuses it
  std::uint64_t state_generation_ = 0;  // last loaded/saved generation
  std::unique_ptr<BlockDevice> dev_;
  Encryptor enc_;
  CacheMeter meter_;
  rng::Xoshiro rng_;
  // Reused scratch to avoid per-I/O allocation; sized block_words().
  mutable std::vector<Word> wire_;
  // Staging for batched I/O: ciphertext words and block ids for one window.
  std::vector<Word> wire_many_;
  std::vector<std::uint64_t> ids_;
};

}  // namespace oem
