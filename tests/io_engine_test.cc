// IoEngine suite: ShardedBackend striping and fan-out, AsyncBackend
// FIFO submission semantics, and the tentpole guarantee -- for every
// algorithm the recorded per-block trace is byte-identical across
// {mem, sharded(4), sharded(4)+prefetch, faulty(seed)+retry, remote
// combinations including split-phase sharded depth-4 and the write-back
// cache}: parallel placement, overlapped dispatch, striping x depth wire
// pipelining, client-side caching and fault recovery never change what Bob
// observes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/session.h"
#include "core/logstar_compact.h"
#include "core/loose_compact.h"
#include "extmem/io_engine.h"
#include "extmem/pipeline.h"
#include "extmem/remote.h"
#include "server/server.h"
#include "server/subprocess.h"
#include "obliv/trace_check.h"
#include "test_util.h"

namespace oem {
namespace {

LatencyProfile fast_profile() {
  LatencyProfile p;
  p.per_op_ns = 1000;
  p.per_word_ns = 10;
  p.real_sleep = false;
  return p;
}

// ---------------------------------------------------------------------------
// ShardedBackend.

TEST(ShardedBackend, StripesRoundRobinAcrossShards) {
  constexpr std::size_t kBw = 4;
  auto factory = sharded_backend(mem_backend(), 4);
  auto backend = factory(kBw);
  auto* sharded = dynamic_cast<ShardedBackend*>(backend.get());
  ASSERT_NE(sharded, nullptr);
  ASSERT_TRUE(backend->resize(10).ok());

  // Capacity splits as ceil((10 - s) / 4) per shard.
  EXPECT_EQ(sharded->shard(0).num_blocks(), 3u);  // 0, 4, 8
  EXPECT_EQ(sharded->shard(1).num_blocks(), 3u);  // 1, 5, 9
  EXPECT_EQ(sharded->shard(2).num_blocks(), 2u);  // 2, 6
  EXPECT_EQ(sharded->shard(3).num_blocks(), 2u);  // 3, 7

  // Block b lands on shard b mod 4 at inner index b div 4.
  for (std::uint64_t b = 0; b < 10; ++b) {
    std::vector<Word> in(kBw, 100 + b);
    ASSERT_TRUE(backend->write(b, in).ok());
  }
  for (std::uint64_t b = 0; b < 10; ++b) {
    std::vector<Word> out(kBw);
    ASSERT_TRUE(sharded->shard(b % 4).read(b / 4, out).ok());
    EXPECT_EQ(out[0], 100 + b) << "block " << b;
  }
}

TEST(ShardedBackend, MultiShardBatchIsOneOpPerShard) {
  constexpr std::size_t kBw = 4;
  auto factory = sharded_backend(latency_backend(mem_backend(), fast_profile()), 4);
  auto backend = factory(kBw);
  auto* sharded = dynamic_cast<ShardedBackend*>(backend.get());
  ASSERT_NE(sharded, nullptr);
  ASSERT_TRUE(backend->resize(64).ok());

  std::vector<std::uint64_t> ids(32);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  std::vector<Word> buf(ids.size() * kBw, 7);
  ASSERT_TRUE(backend->write_many(ids, buf).ok());
  ASSERT_TRUE(backend->read_many(ids, buf).ok());

  // Each shard's LatencyBackend saw exactly one op per batch: a striped
  // batch costs one round trip per shard, not one per block.
  for (std::size_t s = 0; s < 4; ++s) {
    auto* lat = dynamic_cast<LatencyBackend*>(&sharded->shard(s));
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->ops(), 2u) << "shard " << s;
    EXPECT_EQ(lat->simulated_ns(), 2 * (1000u + 10u * 8 * kBw)) << "shard " << s;
  }

  // A single-shard batch is one op on that shard and none elsewhere.
  const std::vector<std::uint64_t> one_shard = {0, 4, 8};
  std::vector<Word> small(one_shard.size() * kBw);
  ASSERT_TRUE(backend->read_many(one_shard, small).ok());
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_EQ(dynamic_cast<LatencyBackend*>(&sharded->shard(s))->ops(), s == 0 ? 3u : 2u)
        << "shard " << s;
}

TEST(ShardedBackend, AlternatingDisjointShardBatchesKeepFifoOrder) {
  // Back-to-back batches that touch disjoint shard subsets: each batch must
  // apply in full, in call order, with no state carried over from the last.
  constexpr std::size_t kBw = 2;
  auto backend = sharded_backend(mem_backend(), 4)(kBw);
  ASSERT_TRUE(backend->resize(64).ok());
  std::vector<Word> buf(2 * kBw);
  for (int iter = 0; iter < 5000; ++iter) {
    // Shards {0, 1} then shards {2, 3}.
    const std::vector<std::uint64_t> a = {0, 1}, b = {2, 3};
    buf.assign(2 * kBw, static_cast<Word>(iter));
    ASSERT_TRUE(backend->write_many(a, buf).ok());
    ASSERT_TRUE(backend->write_many(b, buf).ok());
  }
  std::vector<Word> out(kBw);
  ASSERT_TRUE(backend->read(3, out).ok());
  EXPECT_EQ(out[0], 4999u);
}

TEST(ShardedBackend, SplitPhaseFifoWithSyncOpsInterleaved) {
  // Synchronous ops on a stripe of split-capable shards while batches are in
  // flight: the begun batches are retired first, so every op applies in call
  // order and each complete_oldest still reports its own batch.
  constexpr std::size_t kBw = 4;
  auto backend = sharded_backend(direct_file_backend(), 4)(kBw);
  ASSERT_TRUE(backend->health().ok()) << backend->health();
  ASSERT_TRUE(backend->resize(32).ok());
  ASSERT_GE(backend->max_inflight(), 2u);
  // Shards 3, 1, 3: shard 3's slice is strided (staged, scattered at
  // completion), shard 1's is one borrowed block.
  const std::vector<std::uint64_t> ids = {3, 9, 7};
  std::vector<Word> w1(ids.size() * kBw), w2(ids.size() * kBw);
  for (std::size_t i = 0; i < w1.size(); ++i) {
    w1[i] = 1000 + i;
    w2[i] = 2000 + i;
  }
  ASSERT_TRUE(backend->begin_write_many(ids, w1).ok());
  // A sync read with the write in flight observes it.
  std::vector<Word> seen(ids.size() * kBw, 0);
  ASSERT_TRUE(backend->read_many(ids, seen).ok());
  EXPECT_EQ(seen, w1);
  const std::vector<Word> other(kBw, 5);
  ASSERT_TRUE(backend->write(20, other).ok());
  std::vector<Word> r(ids.size() * kBw, 0);
  ASSERT_TRUE(backend->begin_read_many(ids, r).ok());
  ASSERT_TRUE(backend->begin_write_many(ids, w2).ok());
  ASSERT_TRUE(backend->complete_oldest().ok());  // first write (retired early)
  ASSERT_TRUE(backend->complete_oldest().ok());  // the read
  ASSERT_TRUE(backend->complete_oldest().ok());  // second write
  ASSERT_TRUE(backend->complete_oldest().ok());  // nothing left: Ok
  EXPECT_EQ(r, w1) << "the read must not observe the later write";
  std::vector<Word> out(kBw);
  ASSERT_TRUE(backend->read(20, out).ok());
  EXPECT_EQ(out, other);
  ASSERT_TRUE(backend->read_many(ids, seen).ok());
  EXPECT_EQ(seen, w2);
}

TEST(ShardedBackend, DuplicateIdsInOneBatchKeepSequentialSemantics) {
  constexpr std::size_t kBw = 2;
  auto backend = sharded_backend(mem_backend(), 4)(kBw);
  ASSERT_TRUE(backend->resize(8).ok());
  // Same block written twice in one batch: the later entry must win, exactly
  // like the sequential per-block loop.
  const std::vector<std::uint64_t> ids = {5, 2, 5};
  const std::vector<Word> in = {1, 1, 2, 2, 3, 3};
  ASSERT_TRUE(backend->write_many(ids, in).ok());
  std::vector<Word> out(kBw);
  ASSERT_TRUE(backend->read(5, out).ok());
  EXPECT_EQ(out, (std::vector<Word>{3, 3}));
}

// ---------------------------------------------------------------------------
// AsyncBackend.

TEST(AsyncBackend, ExecutesSubmissionsInFifoOrder) {
  constexpr std::size_t kBw = 2;
  auto backend_owner = async_backend(mem_backend())(kBw);
  auto* async = dynamic_cast<AsyncBackend*>(backend_owner.get());
  ASSERT_NE(async, nullptr);
  ASSERT_TRUE(backend_owner->resize(4).ok());

  // write -> read -> write -> read on the same block: each read must observe
  // exactly the preceding write (FIFO makes the hazard impossible).
  std::vector<Word> r1(kBw), r2(kBw);
  async->submit_write_many({0}, {11, 11});
  auto t1 = async->submit_read_many(std::vector<std::uint64_t>{0}, r1);
  async->submit_write_many({0}, {22, 22});
  auto t2 = async->submit_read_many(std::vector<std::uint64_t>{0}, r2);
  ASSERT_TRUE(async->wait(t2).ok());
  ASSERT_TRUE(async->wait(t1).ok());  // waiting out of order is fine
  EXPECT_EQ(r1, (std::vector<Word>{11, 11}));
  EXPECT_EQ(r2, (std::vector<Word>{22, 22}));
  EXPECT_EQ(async->submitted(), 4u);
}

TEST(AsyncBackend, SynchronousOpsDrainTheQueueFirst) {
  constexpr std::size_t kBw = 2;
  auto backend_owner = async_backend(mem_backend())(kBw);
  auto* async = dynamic_cast<AsyncBackend*>(backend_owner.get());
  ASSERT_TRUE(backend_owner->resize(4).ok());

  for (Word v = 0; v < 64; ++v) async->submit_write_many({1}, {v, v});
  // A plain read must see the last submitted write.
  std::vector<Word> out(kBw);
  ASSERT_TRUE(backend_owner->read(1, out).ok());
  EXPECT_EQ(out, (std::vector<Word>{63, 63}));
  ASSERT_TRUE(async->drain().ok());
}

// ---------------------------------------------------------------------------
// The tentpole guarantee: for every algorithm the event-level trace is
// byte-identical across {mem, sharded(4), sharded(4)+prefetch,
// faulty(seed)+retry, remote, remote+sharded4+prefetch, remote+faulty+retry,
// remote+sharded4+depth4 (split-phase striping x depth -- compared against
// mem at the same depth, since depth is a public scheduling parameter the
// schedule legitimately depends on), remote+sharded4+cache (the write-back
// cache absorbs wire traffic below the recorder), and
// faulty+sharded4+prefetch+remote (per-shard faults firing at begin time in
// the split-phase path, recovered by drain-and-replay under the retry
// budget), and oem_server_process{,_sharded4_prefetch} (the same workloads
// through the spawned stand-alone oem-server binary -- a real exec
// boundary)}.  None of it may change what Bob observes.

struct EngineCase {
  std::string name;
  std::size_t shards;
  bool prefetch;
  bool faulty;
  bool remote = false;
  std::size_t depth = 2;
  std::size_t cache_blocks = 0;
  /// Route through the real oem-server binary (fork/exec, separate address
  /// space) instead of the in-process loopback server.
  bool out_of_process = false;
  /// Compute-plane lanes.  The references all run at 1 (serial), so a row
  /// with compute_threads > 1 pins the worker pool byte-identical to the
  /// serial compute path.
  std::size_t compute_threads = 1;
  /// io_uring + O_DIRECT file store (DirectFileBackend; threaded fallback on
  /// refusing kernels).  Engine choice is pure mechanism: same trace.
  bool direct_file = false;
  /// Attach the session to a shared CacheCore and keep a sibling session's
  /// residency parked in the same slab for the whole run: cross-session
  /// eviction pressure must be invisible in Bob's view.
  bool shared_cache = false;
};

std::vector<EngineCase> engine_cases() {
  return {{"mem", 1, false, false},
          {"sharded4", 4, false, false},
          {"sharded4_prefetch", 4, true, false},
          {"faulty_retry", 1, false, true},
          {"remote", 1, false, false, true},
          {"remote_sharded4_prefetch", 4, true, false, true},
          {"remote_faulty_retry", 1, false, true, true},
          {"remote_sharded4_depth4", 4, true, false, true, /*depth=*/4},
          {"remote_sharded4_cache", 4, true, false, true, 2, /*cache=*/32},
          {"faulty_sharded4_splitphase_retry", 4, true, true, true, /*depth=*/4},
          // The exec boundary: the same workloads through the stand-alone
          // oem-server process.  Crossing into another address space (and a
          // real kernel socket pair) must be just as invisible to Bob's view
          // as the in-process loopback is.
          {"oem_server_process", 1, false, false, true, 2, 0, /*oop=*/true},
          {"oem_server_sharded4_prefetch", 4, true, false, true, 2, 0, true},
          // The compute plane: chunk-parallel pass compute + parallel crypto
          // on 4 lanes, pinned against the serial mem reference -- alone and
          // stacked on the deepest wire pipeline in the matrix.
          {"compute4", 1, false, false, false, 2, 0, false, /*threads=*/4},
          {"compute4_remote_sharded4_depth4", 4, true, false, true, 4, 0, false,
           4},
          // The O_DIRECT/io_uring disk engine at pipeline depth 4: real
          // kernel-queued I/O (or its threaded fallback) pinned against mem
          // at the same depth.
          {"direct_file_depth4", 1, true, false, false, /*depth=*/4, 0, false,
           1, /*direct=*/true},
          // A remote session whose write-back cache is one VIEW of a shared
          // CacheCore under live cross-session residency pressure.
          {"shared_cache_remote", 1, true, false, true, 2, 0, false, 1, false,
           /*shared_cache=*/true}};
}

struct AlgoRun {
  std::vector<TraceEvent> events;
  std::vector<Record> result;
};

template <typename AlgoFn>
void run_engine_case(const EngineCase& ec, std::span<const Record> input,
                     std::size_t depth, AlgoRun* run, AlgoFn&& algo) {
  // Each remote run gets a fresh server (fresh stores): in-process loopback
  // by default, the spawned oem-server binary for out_of_process rows.
  std::unique_ptr<RemoteServer> server;
  std::unique_ptr<server::SpawnedServer> spawned;
  auto builder = Session::Builder()
                     .block_records(4)
                     .cache_records(64)
                     .seed(5)
                     .sharded(ec.shards)
                     .async_prefetch(ec.prefetch)
                     .pipeline_depth(depth)
                     .compute_threads(ec.compute_threads)
                     .fault_injection(ec.faulty ? 77 : 0, ec.faulty ? 0.02 : 0.0);
  // A striped faulty store needs a budget that covers every shard firing
  // once across consecutive attempts (each shard rolls its own decisions;
  // split-phase begin gates and sync replays roll separately), so the
  // sharded fault rows get headroom above the single-shard default of 4.
  if (ec.faulty) builder.io_retries(8);
  if (ec.cache_blocks > 0) builder.cache(ec.cache_blocks);
  if (ec.direct_file) builder.file_backed().direct_io();
  SharedCacheHandle shared_core;
  if (ec.shared_cache) {
    shared_core = make_shared_cache(32);
    builder.shared_cache(shared_core);
  }
  if (ec.remote && ec.out_of_process) {
    spawned = std::make_unique<server::SpawnedServer>();
    ASSERT_TRUE(spawned->health().ok()) << ec.name << ": " << spawned->health();
    builder.remote(spawned->host(), spawned->port());
  } else if (ec.remote) {
    server = std::make_unique<RemoteServer>();
    ASSERT_TRUE(server->health().ok()) << server->health();
    builder.remote(server->host(), server->port());
  }
  auto built = builder.build();
  ASSERT_TRUE(built.ok()) << ec.name << ": " << built.status();
  Session session = std::move(built).value();
  // The sibling session for shared_cache rows: it parks its own residency in
  // the SAME CacheCore slab and stays alive for the whole run, so the row
  // under test constantly evicts around another session's blocks.
  std::optional<Session> sibling;
  if (ec.shared_cache) {
    auto sib = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .seed(6)
                   .shared_cache(shared_core)
                   .build();
    ASSERT_TRUE(sib.ok()) << ec.name << ": " << sib.status();
    sibling.emplace(std::move(sib).value());
    auto parked = sibling->outsource(test::random_records(32, 31));
    ASSERT_TRUE(parked.ok()) << ec.name;
  }
  auto data = session.outsource(std::vector<Record>(input.begin(), input.end()));
  ASSERT_TRUE(data.ok()) << ec.name;
  session.trace().set_record_events(true);
  session.trace().reset();
  algo(session, *data, &run->result);
  run->events = session.trace().events();
}

template <typename AlgoFn>
void expect_trace_invariant(const char* what, std::uint64_t n_records, AlgoFn&& algo) {
  const auto input = test::random_records(n_records, 29);
  // Reference runs: plain mem at each depth the matrix uses, built lazily
  // (the matrix's own "mem" case doubles as the depth-2 reference, so no
  // run is duplicated).  Depth is a public scheduling parameter the
  // submission schedule legitimately depends on, so a depth-4 engine case
  // is pinned against mem AT depth 4, not against the depth-2 default.
  std::map<std::size_t, AlgoRun> mem_ref;
  const std::size_t mem_depth = engine_cases().front().depth;  // "mem"'s own run
  for (const auto& ec : engine_cases()) {
    if (ec.depth == mem_depth || mem_ref.count(ec.depth) != 0) continue;
    AlgoRun run;
    run_engine_case({"mem", 1, false, false}, input, ec.depth, &run, algo);
    if (::testing::Test::HasFatalFailure()) return;
    mem_ref.emplace(ec.depth, std::move(run));
  }
  for (const auto& ec : engine_cases()) {
    AlgoRun run;
    run_engine_case(ec, input, ec.depth, &run, algo);
    if (::testing::Test::HasFatalFailure()) return;
    if (ec.name == "mem") {
      mem_ref.emplace(ec.depth, std::move(run));
      continue;  // the reference itself: nothing to compare against
    }
    const AlgoRun& ref = mem_ref.at(ec.depth);
    EXPECT_EQ(run.events.size(), ref.events.size()) << what << ": " << ec.name;
    EXPECT_TRUE(run.events == ref.events)
        << what << ": " << ec.name
        << " trace diverged from mem -- sharding/prefetch/remote/cache leaked "
           "into Bob's view";
    EXPECT_EQ(run.result, ref.result) << what << ": " << ec.name;
  }
}

// For each pipeline depth k, the trace over the remote backend (prefetching,
// wire-pipelined) must be byte-identical to the in-memory trace at the same
// k, and the TOTAL block I/O volume must not depend on k at all: depth only
// reorders submissions within the hazard rules, it never adds or removes an
// access.  k = 2 must also reproduce the default-depth schedule exactly
// (today's double buffer, bit for bit).
template <typename AlgoFn>
void expect_depth_sweep_invariant(const char* what, std::uint64_t n_records,
                                  AlgoFn&& algo) {
  const auto input = test::random_records(n_records, 29);
  const EngineCase mem_case{"mem", 1, false, false, false};
  const EngineCase remote_case{"remote_prefetch", 1, true, false, true};

  AlgoRun default_run;
  run_engine_case(mem_case, input, /*depth=*/2, &default_run, algo);
  if (::testing::Test::HasFatalFailure()) return;

  for (std::size_t k : {1, 2, 4, 8}) {
    AlgoRun mem_run, remote_run;
    run_engine_case(mem_case, input, k, &mem_run, algo);
    run_engine_case(remote_case, input, k, &remote_run, algo);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_TRUE(remote_run.events == mem_run.events)
        << what << ": depth " << k
        << " remote trace diverged from mem -- the wire leaked into Bob's view";
    EXPECT_EQ(remote_run.result, mem_run.result) << what << ": depth " << k;
    EXPECT_EQ(mem_run.events.size(), default_run.events.size())
        << what << ": depth " << k << " changed the block I/O volume";
    EXPECT_EQ(mem_run.result, default_run.result) << what << ": depth " << k;
    if (k == 2) {
      EXPECT_TRUE(mem_run.events == default_run.events)
          << what << ": depth 2 must reproduce the default schedule bit for bit";
    }
  }
}

// The seven algorithm drivers, shared by the engine matrix and the depth
// sweep below.

void sort_algo(Session& s, const ExtArray& a, std::vector<Record>* out) {
  auto rep = s.sort(a, /*seed=*/11);
  ASSERT_TRUE(rep.ok()) << rep.status();
  auto data = s.retrieve(a);
  ASSERT_TRUE(data.ok());
  *out = std::move(*data);
}

void select_algo(Session& s, const ExtArray& a, std::vector<Record>* out) {
  auto r = s.select(a, a.num_records() / 2, /*seed=*/11);
  ASSERT_TRUE(r.ok()) << r.status();
  *out = {*r};
}

void quantiles_algo(Session& s, const ExtArray& a, std::vector<Record>* out) {
  auto r = s.quantiles(a, 3, /*seed=*/11);
  ASSERT_TRUE(r.ok()) << r.status();
  *out = std::move(*r);
}

void compact_algo(Session& s, const ExtArray& a, std::vector<Record>* out) {
  auto r = s.compact(a);
  ASSERT_TRUE(r.ok()) << r.status();
  auto data = s.retrieve(r->out);
  ASSERT_TRUE(data.ok());
  *out = std::move(*data);
}

void loose_algo(Session& s, const ExtArray& a, std::vector<Record>* out) {
  auto res = core::loose_compact_blocks(
      s.client(), a, a.num_blocks() / 5,
      [](std::uint64_t, const BlockBuf& blk) {
        return !blk[0].is_empty() && blk[0].key % 5 == 0;
      },
      /*seed=*/13);
  auto data = s.retrieve(res.out);
  ASSERT_TRUE(data.ok());
  *out = std::move(*data);
}

void logstar_algo(Session& s, const ExtArray& a, std::vector<Record>* out) {
  auto res = core::logstar_compact_blocks(
      s.client(), a, a.num_blocks() / 5,
      [](std::uint64_t, const BlockBuf& blk) {
        return !blk[0].is_empty() && blk[0].key % 3 == 0;
      },
      /*seed=*/13);
  auto data = s.retrieve(res.out);
  ASSERT_TRUE(data.ok());
  *out = std::move(*data);
}

void oram_algo(Session& s, const ExtArray&, std::vector<Record>* out) {
  // Build + one epoch of accesses + the epoch reshuffle, as one sequence.
  auto oram = s.open_oram(64, oram::ShuffleKind::kRandomized, /*seed=*/23);
  ASSERT_TRUE(oram.ok()) << oram.status();
  for (std::uint64_t i = 0; i <= oram->epoch_length(); ++i) {
    auto v = oram->access((i * 7) % 64);
    ASSERT_TRUE(v.ok()) << v.status();
    out->push_back({i, *v});
  }
}

TEST(IoEngineTraceEquivalence, Sort) { expect_trace_invariant("sort", 48 * 4, sort_algo); }

TEST(IoEngineTraceEquivalence, Select) {
  expect_trace_invariant("select", 40 * 4, select_algo);
}

TEST(IoEngineTraceEquivalence, Quantiles) {
  expect_trace_invariant("quantiles", 40 * 4, quantiles_algo);
}

TEST(IoEngineTraceEquivalence, Compact) {
  expect_trace_invariant("compact", 32 * 4, compact_algo);
}

TEST(IoEngineTraceEquivalence, LooseCompaction) {
  expect_trace_invariant("loose", 128 * 4, loose_algo);
}

TEST(IoEngineTraceEquivalence, LogstarCompaction) {
  expect_trace_invariant("logstar", 128 * 4, logstar_algo);
}

TEST(IoEngineTraceEquivalence, OramAccessSequence) {
  expect_trace_invariant("oram", 4, oram_algo);
}

// ---------------------------------------------------------------------------
// The depth sweep: k in {1, 2, 4, 8} pinned byte-identical between mem and
// the wire-pipelined remote backend at every k, with the block I/O volume
// independent of k, for every algorithm.

TEST(PipelineDepthSweep, Sort) { expect_depth_sweep_invariant("sort", 48 * 4, sort_algo); }

TEST(PipelineDepthSweep, Select) {
  expect_depth_sweep_invariant("select", 40 * 4, select_algo);
}

TEST(PipelineDepthSweep, Quantiles) {
  expect_depth_sweep_invariant("quantiles", 40 * 4, quantiles_algo);
}

TEST(PipelineDepthSweep, Compact) {
  expect_depth_sweep_invariant("compact", 32 * 4, compact_algo);
}

TEST(PipelineDepthSweep, LooseCompaction) {
  expect_depth_sweep_invariant("loose", 128 * 4, loose_algo);
}

TEST(PipelineDepthSweep, LogstarCompaction) {
  expect_depth_sweep_invariant("logstar", 128 * 4, logstar_algo);
}

TEST(PipelineDepthSweep, OramAccessSequence) {
  expect_depth_sweep_invariant("oram", 4, oram_algo);
}

// ---------------------------------------------------------------------------
// Obliviousness regression for the migrated loops: the pipeline migration
// must never introduce data-dependent I/O.  Strict form: for a fixed seed the
// trace is bit-identical across data-identical-shaped adversarial inputs.

TEST(PipelineObliviousness, ObliviousSortCopyLoops) {
  core::ObliviousSortOptions opts;
  opts.min_recursive_blocks = 32;   // force recursion: level assembly runs
  opts.paper_dense_rule = false;    // the dense shortcut would skip it at lab scale
  auto result = obliv::check_oblivious(
      test::params(4, 64), 512, obliv::canonical_inputs(4),
      [&](Client& c, const ExtArray& a) { core::oblivious_sort(c, a, 5, opts); });
  EXPECT_TRUE(result.oblivious) << result.diagnosis;
}

TEST(PipelineObliviousness, LooseCompaction) {
  auto result = obliv::check_oblivious(
      test::params(4, 512), 512, obliv::canonical_inputs(5),
      [](Client& c, const ExtArray& a) {
        core::loose_compact_blocks(c, a, a.num_blocks() / 5,
                                   core::block_nonempty_pred(), 11);
      });
  EXPECT_TRUE(result.oblivious) << result.diagnosis;
}

TEST(PipelineObliviousness, LogstarCompaction) {
  auto result = obliv::check_oblivious(
      test::params(4, 32), 256, obliv::canonical_inputs(6),
      [](Client& c, const ExtArray& a) {
        core::logstar_compact_blocks(c, a, a.num_blocks() / 5,
                                     core::block_nonempty_pred(), 11);
      });
  EXPECT_TRUE(result.oblivious) << result.diagnosis;
}

TEST(PipelineObliviousness, OramReshuffleIsDataIndependent) {
  // The reshuffle's trace is a function of (N, M, B, seed) only.  Two ORAMs
  // with the same seed but different access patterns must spend identical
  // I/O, and the construction-time reshuffle must record identical events.
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint64_t> lengths;
  std::vector<std::uint64_t> reshuffle_ios;
  for (int pattern = 0; pattern < 2; ++pattern) {
    Client client(test::params(4, 64));
    client.device().trace().reset();
    oram::SqrtOram o(client, 64, oram::ShuffleKind::kRandomized, /*seed=*/9);
    hashes.push_back(client.device().trace().hash());  // ctor reshuffle only
    for (std::uint64_t i = 0; i < 2 * o.epoch_length(); ++i)
      o.access(pattern == 0 ? 0 : (i * 13) % 64);  // degenerate vs spread
    lengths.push_back(client.device().trace().size());
    reshuffle_ios.push_back(o.stats().reshuffle_ios);
  }
  EXPECT_EQ(hashes[0], hashes[1]) << "construction reshuffle trace diverged";
  EXPECT_EQ(lengths[0], lengths[1]) << "access-sequence I/O volume leaked data";
  EXPECT_EQ(reshuffle_ios[0], reshuffle_ios[1]);
}

// ---------------------------------------------------------------------------
// The pipeline helper itself, driven directly.

TEST(BlockPipeline, OverlappingWindowsStayCoherentUnderPrefetch) {
  // A chain of passes where pass t reads the block pass t-1 wrote (never
  // eligible for early prefetch): FIFO submission must keep every pass
  // reading the freshest data, sync and async alike.
  for (bool prefetch : {false, true}) {
    ClientParams params = test::params(4, 64);
    if (prefetch) params.backend = async_backend(mem_backend());
    Client client(params);
    ExtArray a = client.alloc_blocks(9, Client::Init::kEmpty);
    run_block_pipeline(
        client, 8,
        [&](std::uint64_t t, PipelinePass& io) {
          io.read_from = &a;
          io.write_to = &a;
          io.reads.push_back(t);
          io.writes.push_back(t + 1);
        },
        [&](std::uint64_t, std::span<Record> buf) {
          for (Record& r : buf) r.value += 1;  // increment the running block
        });
    auto all = client.peek(a);
    // Block 8's records carry 8 increments each.
    for (std::size_t r = 0; r < 4; ++r)
      EXPECT_EQ(all[8 * 4 + r].value, 8u) << (prefetch ? "async" : "sync");
  }
}

TEST(BlockPipeline, ComputeThrowWithPrefetchInFlightIsSafe) {
  // Regression: a compute() exception used to unwind the pipeline's wire
  // buffers while the async I/O thread still held a pointer into them
  // (write-after-free).  The pipeline must flush the device before its
  // buffers die, propagate the exception, and leave the client usable.
  ClientParams params = test::params(4, 64);
  params.backend = async_backend(mem_backend());
  Client client(params);
  ExtArray a = client.alloc_blocks(32, Client::Init::kEmpty);
  struct Boom {};
  EXPECT_THROW(
      run_block_pipeline(
          client, 8,
          [&](std::uint64_t t, PipelinePass& io) {
            io.read_from = &a;
            io.write_to = &a;
            for (std::uint64_t j = 0; j < 4; ++j) {
              io.reads.push_back(t * 4 + j);
              io.writes.push_back(t * 4 + j);
            }
          },
          [&](std::uint64_t t, std::span<Record>) {
            if (t == 2) throw Boom{};  // while pass 3's prefetch is in flight
          }),
      Boom);
  // The device drained on unwind: normal synchronous access still works.
  auto all = client.peek(a);
  EXPECT_EQ(all.size(), 32u * 4);
}

TEST(BlockPipeline, DisjointPassesPrefetchWithIdenticalTrace) {
  // Trace (and results) must not depend on whether the backend is async.
  std::vector<std::uint64_t> hashes;
  std::vector<std::vector<Record>> outs;
  for (bool prefetch : {false, true}) {
    ClientParams params = test::params(4, 64);
    if (prefetch) params.backend = async_backend(mem_backend());
    Client client(params);
    ExtArray src = client.alloc_blocks(16, Client::Init::kUninit);
    ExtArray dst = client.alloc_blocks(16, Client::Init::kUninit);
    client.poke(src, test::random_records(16 * 4, 3));
    client.device().trace().reset();
    run_block_pipeline(
        client, 4,
        [&](std::uint64_t t, PipelinePass& io) {
          io.read_from = &src;
          io.write_to = &dst;
          for (std::uint64_t j = 0; j < 4; ++j) {
            io.reads.push_back(t * 4 + j);
            io.writes.push_back(t * 4 + j);
          }
        },
        [](std::uint64_t, std::span<Record>) {});
    hashes.push_back(client.device().trace().hash());
    outs.push_back(client.peek(dst));
  }
  EXPECT_EQ(hashes[0], hashes[1]) << "prefetch changed the adversary's view";
  EXPECT_EQ(outs[0], outs[1]);
}

}  // namespace
}  // namespace oem
