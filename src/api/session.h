// oem::Session -- the public facade of the library.
//
// A Session is Alice's end-to-end view of the protocol: it owns the client
// (private cache, encryption, PRG) and the outsourced storage behind it, and
// exposes the paper's algorithms as typed entry points returning Result<T>.
// Callers never touch Client/BlockDevice internals:
//
//   auto built = oem::Session::Builder()
//                    .block_records(8)        // B
//                    .cache_records(512)      // M
//                    .file_backed()           // or .in_memory() / .latency(...)
//                    .build();
//   if (!built.ok()) { ... built.status() ... }
//   oem::Session session = std::move(built).value();
//   auto data = session.outsource(records);
//   auto report = session.sort(*data);
//   auto sorted = session.retrieve(*data);
//
// Layering: api (this file) -> core (the paper's algorithms) -> extmem
// (client/device/trace) -> StorageBackend (mem / file / latency).  The trace
// Bob observes is a function of (algorithm, N, M, B, seed) only -- never of
// the data and never of the storage backend.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/oblivious_sort.h"
#include "core/quantiles.h"
#include "core/select.h"
#include "extmem/client.h"
#include "extmem/io_engine.h"
#include "oram/sqrt_oram.h"
#include "util/status.h"

namespace oem {

struct SortReport {
  core::SortStats stats;
  std::uint64_t ios = 0;  // block I/Os spent by this call
};

struct CompactReport {
  /// The kept records sit densely, in order, in the prefix of `out`; the
  /// extent spans the full n+1-block allocation so Session::discard(out)
  /// reclaims the storage.
  ExtArray out;
  std::uint64_t kept = 0;    // non-empty records compacted
  std::uint64_t ios = 0;
};

/// Handle to a square-root ORAM opened through a Session.
class Oram {
 public:
  Result<std::uint64_t> access(std::uint64_t index);
  std::uint64_t expected_value(std::uint64_t index) const;
  const oram::SqrtOramStats& stats() const { return impl_->stats(); }
  std::uint64_t epoch_length() const { return impl_->epoch_length(); }

 private:
  friend class Session;
  explicit Oram(std::unique_ptr<oram::SqrtOram> impl) : impl_(std::move(impl)) {}
  std::unique_ptr<oram::SqrtOram> impl_;
};

class Session {
 public:
  class Builder {
   public:
    Builder& block_records(std::size_t b);     // B
    Builder& cache_records(std::uint64_t m);   // M
    Builder& seed(std::uint64_t s);
    Builder& strict_cache(bool on);
    /// Batch window for coalesced I/O (blocks); 0 = auto, 1 = per-block.
    Builder& io_batch_blocks(std::uint64_t blocks);
    /// Storage selection; the last call wins.  Default is in_memory().
    Builder& in_memory();
    Builder& file_backed(FileBackendOptions opts = {});
    Builder& backend(BackendFactory factory);
    /// With file_backed() storage, use the kernel-async O_DIRECT engine
    /// (DirectFileBackend on io_uring) instead of blocking pread/pwrite --
    /// with graceful per-instance fallback to the threaded path when the
    /// kernel or filesystem refuses (see DirectFileBackend).  Sharded
    /// sessions get one ring per shard (per-shard ".shard<i>" paths, like
    /// plain file_backed()).  Rejected at build() with any other storage:
    /// mem/remote/custom stores have no file to open directly.
    Builder& direct_io(bool on = true);
    /// Outsource the blocks to a RemoteServer (extmem/remote.h) over
    /// loopback/LAN TCP -- the paper's Bob as a real process boundary.
    /// Every build() draws a fresh private namespace of server store ids
    /// (store id = namespace | shard, one store and one connection per
    /// shard), so concurrent Sessions against one server never alias each
    /// other's blocks.  Combining remote() with any other storage selection
    /// (in_memory()/file_backed()/backend()) is rejected at build(): where
    /// the server keeps the bytes is the server's choice
    /// (RemoteServerOptions::store_factory), not the client's.  A dropped
    /// connection surfaces as StatusCode::kIo and is retried by reconnect
    /// under io_retries().
    Builder& remote(const std::string& host, std::uint16_t port);
    /// In-flight window ring size for the hot-loop pipeline (1 = strictly
    /// sequential windows, 2 = double buffer, default).  With remote() +
    /// async_prefetch(), depth K amortizes the wire round trip across K
    /// windows (the AsyncBackend streams frames on the split-phase remote
    /// connection) -- and sharded(k), fault_injection() and cache() forward
    /// the split-phase seam, so striping MULTIPLIES with depth: sharded(S)
    /// at depth K keeps S x K frames on the wire (one connection per
    /// shard, each carrying its own in-flight window).  Depth is a public
    /// scheduling parameter: the recorded trace is a function of
    /// (algorithm, N, M, B, seed, depth), never of data.
    Builder& pipeline_depth(std::size_t k);
    /// LRU write-back block cache of `blocks` blocks (CachingBackend):
    /// re-touched reads are served client-side, writes are absorbed and
    /// reach the store below only on eviction (dirty neighbors coalesced
    /// into one batched write-back).  Needs blocks >= 1 -- cache(0) is
    /// rejected at build() (drop the call to disable).  The recorded trace
    /// is untouched (the device records above the cache); only the traffic
    /// that still reaches the wire shrinks, a function of the
    /// data-independent block-id sequence alone.
    ///
    /// The legal decorator stack, outermost first -- build() composes
    /// exactly this order and rejects combinations that would break it:
    ///
    ///   async_prefetch          (outermost: the device drives submission)
    ///     cache                 (above latency/sharding: a hit costs no
    ///                            round trip; it holds each block exactly
    ///                            once, as the Client sealed it)
    ///       latency             (the simulated wire)
    ///         sharded           (striping; forwards split-phase, so depth
    ///                            and striping multiply on a remote store)
    ///           fault_injection (per-shard failures)
    ///             tampering     (the malicious server, mutating what the
    ///                            base store serves -- innermost, so the
    ///                            Client's MAC above it must catch it)
    ///               mem | file | backend(...) | remote  (the base store)
    Builder& cache(std::size_t blocks);
    /// Attach this session's cache layer to a cache SHARED with other
    /// sessions (make_shared_cache in extmem/io_engine.h): one scan-resistant
    /// slab of capacity_blocks behind N sessions, internally synchronized,
    /// with per-session hit/miss/admission stats (Session::cache_stats()).
    /// The multi-session oem-server workload uses this so K concurrent
    /// clients share one memory budget instead of K private ones.  Each
    /// session's blocks live in a private key namespace -- sharing the slab
    /// never shares (or leaks) data between sessions.  Mutually exclusive
    /// with cache(); all sharing sessions must use the same block geometry
    /// (B), checked at build().
    Builder& shared_cache(SharedCacheHandle core);
    /// Wrap the (possibly striped) store in a LatencyBackend.  With
    /// sharding, the profile's `lanes` is set to the shard count: the
    /// parallel-disk model, where striping divides streaming time but not
    /// the round trip, so simulated delays to different shards overlap.
    Builder& latency(LatencyProfile profile);
    /// Stripe blocks round-robin over k independent stores with parallel
    /// batch dispatch (k = 1 disables).  File-backed sessions with an
    /// explicit path get per-shard ".shard<i>" files; custom factories are
    /// invoked once per shard and must yield independent stores.
    Builder& sharded(std::size_t k);
    /// Overlap storage I/O with computation: algorithms prefetch the next
    /// I/O window through an AsyncBackend while the current one computes.
    /// Never changes the recorded trace -- only when the bytes move.
    Builder& async_prefetch(bool on = true);
    /// Inject deterministic, seed-reproducible storage faults: each shard's
    /// base store is wrapped in a FaultyBackend (distinct per-shard sub-seed
    /// derived from `seed`) failing ops with probability `rate`, and the
    /// device gets a bounded retry policy (io_retries below).  Fault firing
    /// and recovery are invisible in the recorded trace; an unrecovered
    /// failure surfaces as StatusCode::kIo through Result<T>.  rate = 0
    /// disables.  Fine-grained control (fail-N): pass a profile.
    Builder& fault_injection(std::uint64_t seed, double rate);
    Builder& fault_injection(FaultProfile profile);
    /// Simulate a MALICIOUS server (TamperingBackend): each shard's base
    /// store is wrapped innermost -- under every other layer, so only the
    /// Client's seal stands between it and the data -- with a distinct
    /// per-shard sub-seed, mutating served blocks and silently dropping
    /// writes with probability `rate`.  Every mounted
    /// attack is either harmless (the run completes with identical output)
    /// or surfaces as StatusCode::kIntegrity through Result<T>; never a
    /// silent wrong answer, and never a retry.  rate = 0 disables.
    /// Fine-grained control (which attacks to mount): pass a profile.
    Builder& tampering(std::uint64_t seed, double rate);
    Builder& tampering(TamperProfile profile);
    /// Total attempts per backend call before kIo surfaces (default 4 when
    /// fault injection is on, else 1 = no retry).  With fault_injection()
    /// UNDER sharded(k), one batch touches up to k independently-faulted
    /// shards and each attempt re-rolls the shards that already recovered,
    /// so budget the worst case at roughly k + a few -- e.g. io_retries(8)
    /// for sharded(4) -- where the single-shard default of 4 suffices.
    Builder& io_retries(unsigned attempts);
    /// Durable freshness: persist the anti-rollback version table (plus the
    /// nonce counter, the remote store namespace and a Merkle root over the
    /// table) to `p`, sealed with a MAC under the session key and a
    /// monotonic generation counter -- written temp+fsync+rename, so the
    /// visible file is always a complete snapshot.  build() reloads it: a
    /// missing file bootstraps fresh (first run), an existing-but-corrupt
    /// or wrong-key file FAILS CLOSED with kIntegrity, and a restarted
    /// session keeps detecting rollback staged while it was down.  Persist
    /// explicitly with Session::persist_freshness(); the session destructor
    /// also saves best-effort.  See docs/THREAT_MODEL.md.
    Builder& state_path(const std::string& p);
    /// Per-frame wire deadline (ms) for remote() storage: a dead or
    /// byzantine-slow server surfaces as retryable StatusCode::kTimeout
    /// (connection torn down, next attempt reconnects under io_retries())
    /// instead of hanging the session.  0 = no deadline (the default).
    /// Rejected at build() without remote().
    Builder& io_deadline_ms(std::uint64_t ms);
    /// Pre-shared key authenticating the HELLO/PING control frames with
    /// remote() storage (both ends default to key 0, which still fails
    /// closed on mismatch -- see RemoteBackendOptions::auth_key).  Rejected
    /// at build() without remote().
    Builder& wire_auth(Word key);

    /// Validates parameters (kInvalidArgument) and opens the backend (kIo).
    Result<Session> build() const;

   private:
    enum class Storage { kMem, kFile, kCustom, kRemote };

    ClientParams params_;
    Storage storage_ = Storage::kMem;
    FileBackendOptions file_opts_;
    BackendFactory custom_;
    bool local_storage_seen_ = false;  // explicit in_memory/file_backed/backend
    bool remote_seen_ = false;
    std::string remote_host_;
    std::uint16_t remote_port_ = 0;
    bool wrap_latency_ = false;
    LatencyProfile profile_;
    std::size_t shards_ = 1;
    bool prefetch_ = false;
    bool inject_faults_ = false;
    FaultProfile fault_profile_;
    bool tamper_ = false;
    TamperProfile tamper_profile_;
    bool cache_seen_ = false;
    std::size_t cache_blocks_ = 0;
    SharedCacheHandle shared_cache_;
    bool direct_io_ = false;
    unsigned io_retries_ = 0;  // 0 = auto (4 with faults, else 1)
    std::uint64_t io_deadline_ms_ = 0;  // 0 = no wire deadline
    bool wire_auth_seen_ = false;
    Word wire_auth_key_ = 0;
  };

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  // --- data management ---

  /// Upload records into a fresh outsourced array (uncounted setup path:
  /// Alice encrypts and ships her input once).
  Result<ExtArray> outsource(std::span<const Record> records);
  /// Download and decrypt an array (uncounted; the analyst's own copy).
  Result<std::vector<Record>> retrieve(const ExtArray& a) const;
  /// Release a scratch/result array (stack discipline).
  Status discard(const ExtArray& a);
  /// Bob's view of one block: the raw ciphertext words.
  Result<std::vector<Word>> raw_block(const ExtArray& a, std::uint64_t i) const;

  // --- the paper's algorithms, typed ---
  // seed = 0 draws a fresh deterministic per-call seed from the session seed.

  /// Theorem 21: in-place randomized oblivious sort by key.  The core sort
  /// allocates scratch append-only in the device arena; when the call
  /// returns, that scratch is recorded as discarded, and compact_arena()
  /// releases it back to the backend -- a service sorting indefinitely
  /// should call compact_arena() between batches of work.
  Result<SortReport> sort(const ExtArray& a, std::uint64_t seed = 0,
                          const core::ObliviousSortOptions& opts = {});
  /// Theorem 13: k-th smallest record (1-based rank, all records non-empty).
  Result<Record> select(const ExtArray& a, std::uint64_t k, std::uint64_t seed = 0,
                        const core::SelectOptions& opts = {});
  /// Theorem 17: the q quantiles (all records non-empty).
  Result<std::vector<Record>> quantiles(const ExtArray& a, std::uint64_t q,
                                        std::uint64_t seed = 0,
                                        const core::QuantilesOptions& opts = {});
  /// Lemma 3 + Theorem 6: dense order-preserving compaction of the non-empty
  /// records of `a` into a fresh array.
  Result<CompactReport> compact(const ExtArray& a);
  /// §1 application: square-root ORAM over n_items, reshuffled by either
  /// sort.  The Oram borrows this Session's client: keep the Session alive
  /// and do not run other algorithms between accesses of a strict trace.
  Result<Oram> open_oram(std::uint64_t n_items, oram::ShuffleKind kind,
                         std::uint64_t seed = 0);

  // --- introspection (what Bob saw) ---

  const IoStats& stats() const { return client_->stats(); }
  void reset_stats() { client_->reset_stats(); }
  TraceRecorder& trace() { return client_->device().trace(); }
  const TraceRecorder& trace() const { return client_->device().trace(); }
  const char* backend_name() const { return client_->device().backend().name(); }

  std::size_t block_records() const { return client_->B(); }
  std::uint64_t cache_records() const { return client_->M(); }
  const ClientParams& params() const { return params_; }

  // --- storage arena management ---

  /// Blocks currently held by the backend: live arrays plus scratch that
  /// completed algorithm calls have discarded but not yet compacted.
  std::uint64_t arena_blocks() const { return client_->device().num_blocks(); }
  /// Release trailing discarded extents back to the backend; returns the
  /// number of blocks freed.  With compact_arena() between calls, a sort
  /// loop's storage footprint stays bounded instead of growing per call.
  std::uint64_t compact_arena() { return client_->device().trim(); }

  /// Flush the storage stack (write-back cache write-backs included) and
  /// return the outcome.  Call before relying on the store below holding
  /// every write: the destructor's flush is best-effort and can only report
  /// failure through storage_health()/CacheStats::flush_failures after the
  /// fact.
  Status flush_storage() { return client_->device().backend().flush(); }
  /// Health of the storage stack, including a CachingBackend's latched
  /// flush failures: non-ok means dirty data may not have reached the store.
  Status storage_health() const { return client_->device().backend().health(); }
  /// Seal the current freshness state to the Builder's state_path (bumped
  /// generation, atomic replace).  kInvalidArgument without a state_path.
  /// The destructor also persists best-effort; call this when the error
  /// matters (e.g. before a planned handover).
  Status persist_freshness() { return client_->persist_state(); }
  /// This session's block-cache counters (hits/misses/write-backs/admission
  /// rejections) -- per-SESSION even on a shared cache, where each session's
  /// view keeps its own tallies.  All-zero when the session has no cache
  /// layer.  Format for humans with describe_cache_stats (cache_meter.h).
  CacheStats cache_stats() const;

  /// Escape hatch for benches/tests that need the raw protocol objects.
  Client& client() { return *client_; }
  const Client& client() const { return *client_; }

 private:
  explicit Session(const ClientParams& params);
  std::uint64_t next_seed(std::uint64_t requested);

  ClientParams params_;
  std::unique_ptr<Client> client_;
  std::uint64_t op_counter_ = 0;
};

}  // namespace oem
