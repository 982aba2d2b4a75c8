#include "api/session.h"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/butterfly.h"
#include "core/consolidate.h"
#include "extmem/io_engine.h"
#include "extmem/remote.h"

namespace oem {

namespace {

/// Everything a sort/select/quantiles call allocates above the entry
/// watermark is scratch the moment the call returns (results are in-place or
/// plain values); record it as discarded so compact_arena() can reclaim it.
class ArenaScratchGuard {
 public:
  explicit ArenaScratchGuard(BlockDevice& dev)
      : dev_(dev), watermark_(dev.num_blocks()) {}
  ~ArenaScratchGuard() {
    if (dev_.num_blocks() > watermark_)
      dev_.mark_discarded({watermark_, dev_.num_blocks() - watermark_});
  }

 private:
  BlockDevice& dev_;
  std::uint64_t watermark_;
};

/// Backend failures surface as exceptions below the algorithm layer (see
/// device.cc); every facade entry point that touches storage runs its body
/// through here so callers get a Result instead of a crash.  The
/// IntegrityError/TimeoutError catches must come FIRST: both are-a
/// runtime_error, and mapping either to kIo would lose its meaning --
/// kIntegrity must fail closed, unretried, at the API boundary, and kTimeout
/// must stay distinguishable from a failed disk so callers can tell a dead
/// peer from a bad sector.
template <class F>
auto guarded(F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (const IntegrityError& e) {
    return Status::Integrity(e.what());
  } catch (const TimeoutError& e) {
    return Status::Timeout(e.what());
  } catch (const std::runtime_error& e) {
    return Status::Io(e.what());
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Oram handle.

Result<std::uint64_t> Oram::access(std::uint64_t index) {
  return guarded([&]() -> Result<std::uint64_t> {
    const std::uint64_t value = impl_->access(index);
    if (!impl_->status().ok()) return impl_->status();
    return value;
  });
}

std::uint64_t Oram::expected_value(std::uint64_t index) const {
  return impl_->expected_value(index);
}

// ---------------------------------------------------------------------------
// Builder.

Session::Builder& Session::Builder::block_records(std::size_t b) {
  params_.block_records = b;
  return *this;
}

Session::Builder& Session::Builder::cache_records(std::uint64_t m) {
  params_.cache_records = m;
  return *this;
}

Session::Builder& Session::Builder::seed(std::uint64_t s) {
  params_.seed = s;
  return *this;
}

Session::Builder& Session::Builder::strict_cache(bool on) {
  params_.strict_cache = on;
  return *this;
}

Session::Builder& Session::Builder::io_batch_blocks(std::uint64_t blocks) {
  params_.io_batch_blocks = blocks;
  return *this;
}

Session::Builder& Session::Builder::in_memory() {
  storage_ = Storage::kMem;
  local_storage_seen_ = true;
  return *this;
}

Session::Builder& Session::Builder::file_backed(FileBackendOptions opts) {
  storage_ = Storage::kFile;
  file_opts_ = std::move(opts);
  local_storage_seen_ = true;
  return *this;
}

Session::Builder& Session::Builder::backend(BackendFactory factory) {
  storage_ = Storage::kCustom;
  custom_ = std::move(factory);
  local_storage_seen_ = true;
  return *this;
}

Session::Builder& Session::Builder::direct_io(bool on) {
  direct_io_ = on;
  return *this;
}

Session::Builder& Session::Builder::remote(const std::string& host, std::uint16_t port) {
  storage_ = Storage::kRemote;
  remote_seen_ = true;
  remote_host_ = host;
  remote_port_ = port;
  return *this;
}

Session::Builder& Session::Builder::pipeline_depth(std::size_t k) {
  params_.pipeline_depth = k;
  return *this;
}

Session::Builder& Session::Builder::compute_threads(std::size_t n) {
  params_.compute_threads = n;
  return *this;
}

Session::Builder& Session::Builder::cache(std::size_t blocks) {
  cache_seen_ = true;
  cache_blocks_ = blocks;
  return *this;
}

Session::Builder& Session::Builder::shared_cache(SharedCacheHandle core) {
  shared_cache_ = std::move(core);
  return *this;
}

Session::Builder& Session::Builder::latency(LatencyProfile profile) {
  wrap_latency_ = true;
  profile_ = profile;
  return *this;
}

Session::Builder& Session::Builder::sharded(std::size_t k) {
  shards_ = k;
  return *this;
}

Session::Builder& Session::Builder::async_prefetch(bool on) {
  prefetch_ = on;
  return *this;
}

Session::Builder& Session::Builder::fault_injection(std::uint64_t seed, double rate) {
  FaultProfile profile;
  profile.seed = seed;
  profile.fail_rate = rate;
  return fault_injection(profile);
}

Session::Builder& Session::Builder::fault_injection(FaultProfile profile) {
  inject_faults_ = profile.fail_rate > 0.0;
  fault_profile_ = profile;
  return *this;
}

Session::Builder& Session::Builder::tampering(std::uint64_t seed, double rate) {
  TamperProfile profile;
  profile.seed = seed;
  profile.tamper_rate = rate;
  return tampering(profile);
}

Session::Builder& Session::Builder::tampering(TamperProfile profile) {
  tamper_ = profile.tamper_rate > 0.0;
  tamper_profile_ = profile;
  return *this;
}

Session::Builder& Session::Builder::io_retries(unsigned attempts) {
  io_retries_ = attempts;
  return *this;
}

Session::Builder& Session::Builder::state_path(const std::string& p) {
  params_.state_path = p;
  return *this;
}

Session::Builder& Session::Builder::io_deadline_ms(std::uint64_t ms) {
  io_deadline_ms_ = ms;
  return *this;
}

Session::Builder& Session::Builder::wire_auth(Word key) {
  wire_auth_seen_ = true;
  wire_auth_key_ = key;
  return *this;
}

Result<Session> Session::Builder::build() const {
  ClientParams params = params_;
  if (params.block_records < 1)
    return Status::InvalidArgument("block_records (B) must be >= 1");
  if (params.cache_records < 2 * params.block_records)
    return Status::InvalidArgument(
        "cache_records (M) must be >= 2 * block_records (B): the paper assumes "
        "M >= 2B everywhere");
  if (shards_ < 1 || shards_ > 1024)
    return Status::InvalidArgument("sharded(k) needs 1 <= k <= 1024");
  if (fault_profile_.fail_rate < 0.0 || fault_profile_.fail_rate > 1.0)
    return Status::InvalidArgument("fault_injection rate must be in [0, 1]");
  if (tamper_profile_.tamper_rate < 0.0 || tamper_profile_.tamper_rate > 1.0)
    return Status::InvalidArgument("tampering rate must be in [0, 1]");
  if (params.pipeline_depth < 1 || params.pipeline_depth > 64)
    return Status::InvalidArgument(
        "pipeline_depth(k) needs 1 <= k <= 64 (1 = sequential windows, "
        "2 = double buffer)");
  if (params.compute_threads > 256)
    return Status::InvalidArgument(
        "compute_threads(n) needs n <= 256 (0 and 1 both mean serial)");
  if (cache_seen_ && (cache_blocks_ < 1 || cache_blocks_ > (1u << 20)))
    return Status::InvalidArgument(
        "cache(blocks) needs 1 <= blocks <= 1048576; to disable the cache, "
        "drop the cache() call instead of passing 0");
  if (cache_seen_ && shared_cache_ != nullptr)
    return Status::InvalidArgument(
        "cache(blocks) and shared_cache(core) are mutually exclusive: a "
        "session attaches either its own cache or the shared one");
  if (direct_io_ && storage_ != Storage::kFile)
    return Status::InvalidArgument(
        "direct_io() needs file_backed() storage: mem/remote/custom stores "
        "have no file to open with O_DIRECT");
  if (remote_seen_ && local_storage_seen_)
    return Status::InvalidArgument(
        "remote() cannot be combined with in_memory()/file_backed()/"
        "backend(...): the server's store_factory decides where the bytes "
        "live");
  if (remote_seen_ && (remote_host_.empty() || remote_port_ == 0))
    return Status::InvalidArgument(
        "remote() needs a non-empty host and a non-zero port");
  if (io_deadline_ms_ != 0 && !remote_seen_)
    return Status::InvalidArgument(
        "io_deadline_ms() needs remote() storage: only the wire has "
        "deadlines");
  if (wire_auth_seen_ && !remote_seen_)
    return Status::InvalidArgument(
        "wire_auth() needs remote() storage: only the wire's control frames "
        "are authenticated");
  params.io_retry_attempts =
      io_retries_ != 0 ? io_retries_ : (inject_faults_ ? 4u : 1u);

  // Durable freshness: reload a persisted state file before composing the
  // stack.  Missing = first boot, bootstrap fresh; existing-but-corrupt =
  // kIntegrity, fail closed here rather than run blind over evidence of
  // tampering.
  OEM_RETURN_IF_ERROR(hydrate_state(&params));

  // Each built session claims a fresh random namespace of server store ids
  // (low bits carry the shard index; sharded(k) caps at 1024 = 10 bits), so
  // two Sessions pointed at one RemoteServer can never alias -- and
  // therefore never silently overwrite -- each other's stores.  A RESTARTED
  // session (nonzero namespace reloaded from the state file) reuses its
  // predecessor's namespace instead: it must reach the same server stores
  // to find the blocks whose versions it remembers.
  std::uint64_t store_namespace = params.store_namespace;
  if (storage_ == Storage::kRemote && store_namespace == 0) {
    std::random_device rd;
    store_namespace =
        ((static_cast<std::uint64_t>(rd()) << 32) ^ rd()) & ~std::uint64_t{0x3ff};
    params.store_namespace = store_namespace;
  }

  // Compose the storage stack inside-out (the legal order documented on
  // Builder::cache): per-shard base stores (remote shards get their own
  // store namespace + connection; each optionally wrapped INNERMOST in a
  // TamperingBackend -- the malicious server mutates what the base store
  // serves, so the Client's MAC above the whole stack is what must catch
  // the lie -- then optionally wrapped in a FaultyBackend with its own
  // sub-seed, so failures hit individual shards), striping, one latency
  // model over the striped store (lanes = k, the parallel-disk model:
  // simulated round trips to different shards overlap by construction), the
  // write-back cache above everything that costs a round trip, async
  // submission -- async(cache(latency(sharded(faulty(tamper(base)) x k)))).
  ShardFactory per_shard =
      [storage = storage_, file_opts = file_opts_, custom = custom_,
       host = remote_host_, port = remote_port_, store_namespace,
       shards = shards_, inject = inject_faults_, fault = fault_profile_,
       tamper = tamper_, tamper_profile = tamper_profile_,
       direct = direct_io_, io_deadline = io_deadline_ms_,
       auth_key = wire_auth_key_](std::size_t block_words,
                                  std::size_t shard) -> std::unique_ptr<StorageBackend> {
    BackendFactory base;
    switch (storage) {
      case Storage::kFile: {
        if (direct) {
          DirectFileOptions opts;
          opts.path = file_opts.path;
          opts.keep_file = file_opts.keep_file;
          if (!opts.path.empty() && shards > 1)
            opts.path += ".shard" + std::to_string(shard);
          base = direct_file_backend(std::move(opts));
          break;
        }
        FileBackendOptions opts = file_opts;
        if (!opts.path.empty() && shards > 1)
          opts.path += ".shard" + std::to_string(shard);
        base = file_backend(std::move(opts));
        break;
      }
      case Storage::kCustom:
        base = custom;
        break;
      case Storage::kRemote: {
        RemoteBackendOptions opts;
        opts.host = host;
        opts.port = port;
        opts.store_id = store_namespace | shard;
        opts.io_deadline_ms = io_deadline;
        opts.auth_key = auth_key;
        base = remote_backend(opts);
        break;
      }
      case Storage::kMem:
        base = mem_backend();
        break;
    }
    if (!base) base = mem_backend();  // backend(nullptr) means in-memory
    if (tamper) {
      TamperProfile p = tamper_profile;
      p.seed =
          rng::mix64(tamper_profile.seed ^ (0x9e3779b97f4a7c15ULL * (shard + 1)));
      base = tampering_backend(std::move(base), p);
    }
    if (inject) {
      FaultProfile p = fault;
      p.seed = rng::mix64(fault.seed ^ (0x9e3779b97f4a7c15ULL * (shard + 1)));
      return std::make_unique<FaultyBackend>(base(block_words), p);
    }
    return base(block_words);
  };
  BackendFactory factory = sharded_backend(std::move(per_shard), shards_);
  if (wrap_latency_) {
    LatencyProfile profile = profile_;
    if (shards_ > 1) profile.lanes = shards_;
    factory = latency_backend(std::move(factory), profile);
  }
  if (cache_seen_) factory = caching_backend(std::move(factory), cache_blocks_);
  if (shared_cache_ != nullptr)
    factory = caching_backend(std::move(factory), shared_cache_);
  if (prefetch_) factory = async_backend(std::move(factory));
  params.backend = std::move(factory);

  Session session(params);
  // Backend construction cannot throw usefully; probe its health so a bad
  // file path comes back as a Status instead of failing the first I/O.
  Status health = session.client_->device().backend().health();
  if (!health.ok()) return health;
  return session;
}

// ---------------------------------------------------------------------------
// Session.

Session::Session(const ClientParams& params)
    : params_(params), client_(std::make_unique<Client>(params)) {}

CacheStats Session::cache_stats() const {
  const CachingBackend* cb = client_->device().cache_backend();
  return cb != nullptr ? cb->stats() : CacheStats{};
}

std::uint64_t Session::next_seed(std::uint64_t requested) {
  if (requested != 0) return requested;
  return rng::mix64(params_.seed ^ (0x9e3779b97f4a7c15ULL + ++op_counter_));
}

Result<ExtArray> Session::outsource(std::span<const Record> records) {
  return guarded([&]() -> Result<ExtArray> {
    ExtArray a = client_->alloc(records.size(), Client::Init::kUninit);
    client_->poke(a, records);
    return a;
  });
}

Result<std::vector<Record>> Session::retrieve(const ExtArray& a) const {
  if (!a.valid() && a.num_records() > 0)
    return Status::InvalidArgument("retrieve: invalid array handle");
  return guarded([&]() -> Result<std::vector<Record>> { return client_->peek(a); });
}

Status Session::discard(const ExtArray& a) {
  if (!a.valid()) return Status::InvalidArgument("discard: invalid array handle");
  client_->release(a);
  return Status::Ok();
}

Result<std::vector<Word>> Session::raw_block(const ExtArray& a, std::uint64_t i) const {
  if (!a.valid() || i >= a.num_blocks())
    return Status::InvalidArgument("raw_block: block index out of range");
  return guarded([&]() -> Result<std::vector<Word>> {
    return client_->device().raw(a.device_block(i));
  });
}

Result<SortReport> Session::sort(const ExtArray& a, std::uint64_t seed,
                                 const core::ObliviousSortOptions& opts) {
  if (!a.valid()) return Status::InvalidArgument("sort: invalid array handle");
  const std::uint64_t before = client_->stats().total();
  ArenaScratchGuard scratch(client_->device());
  return guarded([&]() -> Result<SortReport> {
    core::ObliviousSortResult res =
        core::oblivious_sort(*client_, a, next_seed(seed), opts);
    if (!res.status.ok()) return res.status;
    SortReport report;
    report.stats = res.stats;
    report.ios = client_->stats().total() - before;
    return report;
  });
}

Result<Record> Session::select(const ExtArray& a, std::uint64_t k, std::uint64_t seed,
                               const core::SelectOptions& opts) {
  if (!a.valid()) return Status::InvalidArgument("select: invalid array handle");
  if (k < 1 || k > a.num_records())
    return Status::InvalidArgument("select: rank k must be in [1, N]");
  ArenaScratchGuard scratch(client_->device());
  return guarded([&]() -> Result<Record> {
    core::SelectResult res =
        core::oblivious_select(*client_, a, k, next_seed(seed), opts);
    if (!res.status.ok()) return res.status;
    return res.value;
  });
}

Result<std::vector<Record>> Session::quantiles(const ExtArray& a, std::uint64_t q,
                                               std::uint64_t seed,
                                               const core::QuantilesOptions& opts) {
  if (!a.valid()) return Status::InvalidArgument("quantiles: invalid array handle");
  if (q < 1 || q >= a.num_records())  // q+1 <= N, written overflow-safe
    return Status::InvalidArgument("quantiles: need 1 <= q and q+1 <= N");
  ArenaScratchGuard scratch(client_->device());
  return guarded([&]() -> Result<std::vector<Record>> {
    core::QuantilesResult res =
        core::oblivious_quantiles(*client_, a, q, next_seed(seed), opts);
    if (!res.status.ok()) return res.status;
    return std::move(res.quantiles);
  });
}

Result<CompactReport> Session::compact(const ExtArray& a) {
  if (!a.valid()) return Status::InvalidArgument("compact: invalid array handle");
  const std::uint64_t before = client_->stats().total();
  return guarded([&]() -> Result<CompactReport> {
    const std::size_t B = client_->B();
    const std::uint64_t n1 = a.num_blocks() + 1;
    // The result array is allocated before the scratch so that the scratch
    // can be released LIFO afterwards -- a long-lived Session must not grow
    // the backing storage on every compact call.
    ExtArray result = client_->alloc_blocks(n1, Client::Init::kUninit);
    // Lemma 3: full-or-empty blocks, order preserved.
    core::ConsolidateResult cons =
        core::consolidate(*client_, a, core::nonempty_pred());
    // Theorem 6: route the full blocks (plus the final partial one) to a
    // dense prefix, deterministically and obliviously.
    core::TightCompactResult tight =
        core::tight_compact_blocks(*client_, cons.out, core::block_nonempty_pred());
    // Copy ALL n+1 blocks into the result (the copy size is public, so the
    // trace stays independent of the private distinguished count), then
    // reclaim the scratch.
    {
      const std::uint64_t W = std::max<std::uint64_t>(1, client_->io_batch_blocks());
      CacheLease lease(client_->cache(), W * B);
      std::vector<Record> buf;
      for (std::uint64_t i = 0; i < n1; i += W) {
        const std::uint64_t k = std::min(W, n1 - i);
        buf.resize(static_cast<std::size_t>(k) * B);
        client_->read_blocks(tight.out, i, k, buf);
        client_->write_blocks(result, i, k, buf);
      }
    }
    client_->release(tight.out);
    client_->release(cons.out);
    CompactReport report;
    report.kept = cons.distinguished;
    // The handle spans the whole n+1-block allocation (so discard() can
    // reclaim it) but exposes only the `kept` records of the dense prefix.
    report.out = ExtArray(result.extent(), cons.distinguished, B);
    report.ios = client_->stats().total() - before;
    return report;
  });
}

Result<Oram> Session::open_oram(std::uint64_t n_items, oram::ShuffleKind kind,
                                std::uint64_t seed) {
  if (n_items < 1) return Status::InvalidArgument("open_oram: need n_items >= 1");
  return guarded([&]() -> Result<Oram> {
    auto impl = std::make_unique<oram::SqrtOram>(*client_, n_items, kind,
                                                 next_seed(seed));
    if (!impl->status().ok()) return impl->status();
    return Oram(std::move(impl));
  });
}

}  // namespace oem
