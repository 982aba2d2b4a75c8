// CachingBackend suite: LRU write-back semantics (hits absorb inner ops,
// writes reach the store below only on eviction or flush, dirty neighbors
// coalesce into one batched write-back), split-phase forwarding over a
// remote store, and the Session::Builder::cache validation satellites.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "api/session.h"
#include "extmem/backend.h"
#include "extmem/io_engine.h"
#include "extmem/remote.h"
#include "server/server.h"
#include "test_util.h"

namespace oem {
namespace {

constexpr std::size_t kBw = 4;

LatencyProfile counting_profile() {
  LatencyProfile p;
  p.per_op_ns = 1;
  p.per_word_ns = 0;
  p.real_sleep = false;  // pure op counter, no delay
  return p;
}

/// cache(capacity) over a counting latency decorator over mem: the latency
/// layer's ops() counter is exactly "inner ops the cache did not absorb".
struct CacheRig {
  explicit CacheRig(std::size_t capacity) {
    auto counted = latency_backend(mem_backend(), counting_profile());
    backend = caching_backend(std::move(counted), capacity)(kBw);
    cache = dynamic_cast<CachingBackend*>(backend.get());
    counter = dynamic_cast<LatencyBackend*>(&cache->inner());
  }
  std::vector<Word> block(Word salt) const { return std::vector<Word>(kBw, salt); }

  std::unique_ptr<StorageBackend> backend;
  CachingBackend* cache = nullptr;
  LatencyBackend* counter = nullptr;
};

TEST(CachingBackend, ReadsHitAfterFirstTouchAndAbsorbInnerOps) {
  CacheRig rig(8);
  ASSERT_TRUE(rig.backend->resize(8).ok());
  const std::vector<std::uint64_t> ids = {0, 1, 2, 3};
  std::vector<Word> buf(ids.size() * kBw);
  ASSERT_TRUE(rig.backend->read_many(ids, buf).ok());
  const std::uint64_t cold_ops = rig.counter->ops();
  EXPECT_EQ(rig.cache->stats().misses, 4u);

  // Same blocks again: served from the cache, the inner store sees nothing.
  ASSERT_TRUE(rig.backend->read_many(ids, buf).ok());
  EXPECT_EQ(rig.counter->ops(), cold_ops) << "a re-touched read reached the inner store";
  EXPECT_EQ(rig.cache->stats().hits, 4u);
  EXPECT_DOUBLE_EQ(rig.cache->stats().hit_rate(), 0.5);
}

TEST(CachingBackend, WritesAbsorbedUntilEvictionThenWrittenBack) {
  CacheRig rig(4);
  ASSERT_TRUE(rig.backend->resize(16).ok());
  for (std::uint64_t b = 0; b < 4; ++b)
    ASSERT_TRUE(rig.backend->write(b, rig.block(100 + b)).ok());
  EXPECT_EQ(rig.counter->ops(), 0u) << "absorbed writes must not reach the inner store";
  EXPECT_EQ(rig.cache->stats().absorbed_writes, 4u);

  // The inner store still reads zero for an absorbed block (probed through
  // the mem BELOW the op counter, so the probe itself is not counted).
  std::vector<Word> raw(kBw, 99);
  ASSERT_TRUE(rig.counter->inner().read(0, raw).ok());
  EXPECT_EQ(raw, std::vector<Word>(kBw, 0));

  // A fifth distinct block evicts the LRU victim (block 0) -- and because
  // blocks 1..3 are consecutive dirty neighbors, the whole run {0,1,2,3}
  // goes back in ONE coalesced inner write.
  ASSERT_TRUE(rig.backend->write(8, rig.block(200)).ok());
  EXPECT_EQ(rig.cache->stats().evictions, 1u);
  EXPECT_EQ(rig.cache->stats().writebacks, 4u);
  EXPECT_EQ(rig.cache->stats().writeback_ops, 1u);
  EXPECT_EQ(rig.counter->ops(), 1u);

  // The written-back victim re-reads correctly (a fresh miss from inner).
  std::vector<Word> out(kBw);
  ASSERT_TRUE(rig.backend->read(0, out).ok());
  EXPECT_EQ(out, rig.block(100));

  // Blocks 2..3 stayed cached and CLEAN after the coalesced write-back (the
  // read of 0 evicted clean block 1 already): cycling them out with two more
  // cold reads must not write anything again.
  for (std::uint64_t b = 9; b < 11; ++b)
    ASSERT_TRUE(rig.backend->read(b, out).ok());
  EXPECT_EQ(rig.cache->stats().writeback_ops, 1u)
      << "clean survivors of a coalesced write-back were written again";
}

TEST(CachingBackend, FlushWritesBackAllDirtyOnceAndIsIdempotent) {
  CacheRig rig(8);
  ASSERT_TRUE(rig.backend->resize(8).ok());
  ASSERT_TRUE(rig.backend->write(2, rig.block(7)).ok());
  ASSERT_TRUE(rig.backend->write(5, rig.block(8)).ok());
  ASSERT_TRUE(rig.cache->flush().ok());
  EXPECT_EQ(rig.cache->stats().writebacks, 2u);
  EXPECT_EQ(rig.counter->ops(), 1u) << "flush must batch all dirty blocks";

  std::vector<Word> raw(kBw);
  ASSERT_TRUE(rig.counter->inner().read(5, raw).ok());  // uncounted probe
  EXPECT_EQ(raw, rig.block(8));

  // Nothing dirty left: a second flush is free, and the blocks stay cached.
  ASSERT_TRUE(rig.cache->flush().ok());
  EXPECT_EQ(rig.counter->ops(), 1u);
  const std::uint64_t hits = rig.cache->stats().hits;
  std::vector<Word> out(kBw);
  ASSERT_TRUE(rig.backend->read(2, out).ok());
  EXPECT_EQ(out, rig.block(7));
  EXPECT_EQ(rig.cache->stats().hits, hits + 1);
}

TEST(CachingBackend, DestructorFlushesDirtyBlocksToTheStoreBelow) {
  // The server outlives the cache, so it can witness the farewell flush.
  RemoteServer server;
  ASSERT_TRUE(server.health().ok()) << server.health();
  RemoteBackendOptions ropts;
  ropts.host = server.host();
  ropts.port = server.port();
  ropts.store_id = 9;
  {
    auto cache = caching_backend(remote_backend(ropts), 4)(kBw);
    ASSERT_TRUE(cache->resize(4).ok());
    ASSERT_TRUE(cache->write(3, std::vector<Word>(kBw, 77)).ok());
    std::vector<Word> server_view;
    ASSERT_TRUE(server.peek_store(9, 3, &server_view).ok());
    EXPECT_EQ(server_view, std::vector<Word>(kBw, 0)) << "write was not absorbed";
  }
  std::vector<Word> server_view;
  ASSERT_TRUE(server.peek_store(9, 3, &server_view).ok());
  EXPECT_EQ(server_view, std::vector<Word>(kBw, 77))
      << "the destructor did not flush the dirty block";
}

TEST(CachingBackend, ShrinkDropsCachedBlocksSoRegrowReadsZero) {
  CacheRig rig(8);
  ASSERT_TRUE(rig.backend->resize(8).ok());
  ASSERT_TRUE(rig.backend->write(6, rig.block(5)).ok());  // dirty, cached
  ASSERT_TRUE(rig.backend->resize(4).ok());               // 6 is shrunk away
  ASSERT_TRUE(rig.backend->resize(8).ok());
  std::vector<Word> out(kBw, 1);
  ASSERT_TRUE(rig.backend->read(6, out).ok());
  EXPECT_EQ(out, std::vector<Word>(kBw, 0))
      << "a shrunk-away dirty block resurfaced from the cache";
}

TEST(CachingBackend, CapacityZeroIsRejectedAtHealth) {
  auto backend = caching_backend(mem_backend(), 0)(kBw);
  EXPECT_EQ(backend->health().code(), StatusCode::kInvalidArgument);
  std::vector<Word> out(kBw);
  EXPECT_FALSE(backend->resize(4).ok()) << "an unhealthy backend must fail every op";
}

TEST(CachingBackend, SplitPhaseForwardsMissesAndAbsorbsHitsOverRemote) {
  RemoteServer server;
  ASSERT_TRUE(server.health().ok()) << server.health();
  RemoteBackendOptions ropts;
  ropts.host = server.host();
  ropts.port = server.port();
  ropts.store_id = 1;
  auto cache_owner = caching_backend(remote_backend(ropts), 8)(kBw);
  auto* cache = dynamic_cast<CachingBackend*>(cache_owner.get());
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->max_inflight(), 1u)
      << "the cache must forward the inner store's split-phase window";
  ASSERT_TRUE(cache_owner->resize(8).ok());

  // Warm blocks 0..3, leave 4..7 cold.
  std::vector<std::uint64_t> warm = {0, 1, 2, 3};
  std::vector<Word> data(warm.size() * kBw, 11);
  ASSERT_TRUE(cache_owner->write_many(warm, data).ok());

  // Begin two batches back to back (both frames on the wire before either
  // completes): one all-hit (no inner frame), one miss (one inner frame).
  std::vector<Word> hit_out(warm.size() * kBw, 0);
  ASSERT_TRUE(cache_owner->begin_read_many(warm, hit_out).ok());
  const std::vector<std::uint64_t> cold = {4, 6};
  std::vector<Word> cold_out(cold.size() * kBw, 9);
  ASSERT_TRUE(cache_owner->begin_read_many(cold, cold_out).ok());
  // Hits were served at begin time already.
  EXPECT_EQ(hit_out, data);
  ASSERT_TRUE(cache_owner->complete_oldest().ok());
  ASSERT_TRUE(cache_owner->complete_oldest().ok());
  EXPECT_EQ(cold_out, std::vector<Word>(cold.size() * kBw, 0));  // fresh = zero

  // Split-phase writes: cached blocks absorbed, uncached written around.
  const std::uint64_t frames_before = server.frames_served();
  std::vector<Word> wdata(2 * kBw, 33);
  const std::vector<std::uint64_t> cached_ids = {0, 1};
  ASSERT_TRUE(cache_owner->begin_write_many(cached_ids, wdata).ok());  // all cached
  ASSERT_TRUE(cache_owner->complete_oldest().ok());
  EXPECT_EQ(server.frames_served(), frames_before)
      << "an all-hit begun write must not produce a wire frame";
  const std::vector<std::uint64_t> uncached_ids = {5, 7};
  ASSERT_TRUE(cache_owner->begin_write_many(uncached_ids, wdata).ok());
  ASSERT_TRUE(cache_owner->complete_oldest().ok());
  EXPECT_EQ(server.frames_served(), frames_before + 1);

  // The absorbed writes (both the warm-up 11s and the begun 33s) are visible
  // through the cache but never reached the server, which still reads zero.
  std::vector<Word> out(kBw);
  ASSERT_TRUE(cache_owner->read(0, out).ok());
  EXPECT_EQ(out, std::vector<Word>(kBw, 33));
  std::vector<Word> server_view;
  ASSERT_TRUE(server.peek_store(1, 0, &server_view).ok());
  EXPECT_EQ(server_view, std::vector<Word>(kBw, 0))
      << "an absorbed write leaked to the wire";
  // The write-around IS on the server.
  ASSERT_TRUE(server.peek_store(1, 5, &server_view).ok());
  EXPECT_EQ(server_view, std::vector<Word>(kBw, 33));
}

TEST(CachingBackend, CachedSessionSpendsFewerWireOpsOnReTouchingWork) {
  // End-to-end absorption proof at the Session level: one ORAM epoch's
  // access phase against a remote server, cached vs uncached -- identical
  // results, >= 30% fewer wire frames (the E13 bench claim, in miniature).
  std::uint64_t frames[2] = {0, 0};
  std::vector<std::uint64_t> values[2];
  for (int cached = 0; cached < 2; ++cached) {
    RemoteServer server;
    ASSERT_TRUE(server.health().ok());
    auto builder = Session::Builder()
                       .block_records(4)
                       .cache_records(64)
                       .seed(5)
                       .sharded(4)
                       .async_prefetch(true)
                       .pipeline_depth(4)
                       .remote(server.host(), server.port());
    if (cached) builder.cache(64);
    auto built = builder.build();
    ASSERT_TRUE(built.ok()) << built.status();
    Session session = std::move(built).value();
    auto oram = session.open_oram(64, oram::ShuffleKind::kRandomized, /*seed=*/23);
    ASSERT_TRUE(oram.ok()) << oram.status();
    const std::uint64_t before = server.frames_served();
    for (std::uint64_t i = 0; i + 1 < oram->epoch_length(); ++i) {
      auto v = oram->access((i * 5) % 64);
      ASSERT_TRUE(v.ok()) << v.status();
      values[cached].push_back(*v);
    }
    // Charge the cached run its deferred write-backs before counting, so
    // the comparison is end-to-end fair (same as bench_remote E13).
    session.client().device().drain();
    if (CachingBackend* cb = session.client().device().cache_backend())
      ASSERT_TRUE(cb->flush().ok());
    frames[cached] = server.frames_served() - before;
  }
  EXPECT_EQ(values[0], values[1]) << "the cache changed ORAM results";
  EXPECT_LE(frames[1] * 10, frames[0] * 7)
      << "cached epoch spent " << frames[1] << " wire frames vs " << frames[0]
      << " uncached -- less than 30% saved";
}

TEST(CachingBackend, SplitPhaseMissesGainResidencyAtCompletion) {
  // Satellite regression: begun read misses used to scatter into the
  // caller's buffer and vanish -- a split-phase re-touch stream hit 0% while
  // the synchronous path hit 100%.  Misses must be inserted when their
  // completion lands, so the second begun pass over the same blocks is
  // all-hit (no inner frame).
  RemoteServer server;
  ASSERT_TRUE(server.health().ok()) << server.health();
  RemoteBackendOptions ropts;
  ropts.host = server.host();
  ropts.port = server.port();
  ropts.store_id = 2;
  auto cache_owner = caching_backend(remote_backend(ropts), 8)(kBw);
  auto* cache = dynamic_cast<CachingBackend*>(cache_owner.get());
  ASSERT_NE(cache, nullptr);
  ASSERT_TRUE(cache_owner->resize(8).ok());

  const std::vector<std::uint64_t> ids = {0, 1, 2, 3};
  std::vector<Word> out(ids.size() * kBw, 9);
  ASSERT_TRUE(cache_owner->begin_read_many(ids, out).ok());
  ASSERT_TRUE(cache_owner->complete_oldest().ok());
  EXPECT_EQ(cache->stats().misses, 4u);
  EXPECT_EQ(cache->cached_blocks(), 4u)
      << "completed split-phase misses must gain cache residency";

  // The same blocks again, still through the split-phase face: all hits,
  // served at begin, no wire frame.
  const std::uint64_t frames_before = server.frames_served();
  ASSERT_TRUE(cache_owner->begin_read_many(ids, out).ok());
  ASSERT_TRUE(cache_owner->complete_oldest().ok());
  EXPECT_EQ(cache->stats().hits, 4u);
  EXPECT_EQ(server.frames_served(), frames_before)
      << "a re-touched begun read reached the wire";
  EXPECT_DOUBLE_EQ(cache->stats().hit_rate(), 0.5)
      << "split-phase re-touch must hit like the synchronous path";

  // Strided misses (positions interleaved with hits) insert too.
  const std::vector<std::uint64_t> mixed = {1, 5, 2, 7};  // 5 and 7 cold
  std::vector<Word> mixed_out(mixed.size() * kBw, 9);
  ASSERT_TRUE(cache_owner->begin_read_many(mixed, mixed_out).ok());
  ASSERT_TRUE(cache_owner->complete_oldest().ok());
  EXPECT_EQ(cache->cached_blocks(), 6u);

  // Guard: a block whose write-around frame is still in flight must NOT be
  // granted residency by a read completion behind it (the cached copy would
  // go stale when the around-frame lands).
  const std::vector<std::uint64_t> around = {4};
  std::vector<Word> wdata(kBw, 55);
  ASSERT_TRUE(cache_owner->begin_write_many(around, wdata).ok());
  std::vector<Word> readback(kBw, 0);
  ASSERT_TRUE(cache_owner->begin_read_many(around, readback).ok());
  ASSERT_TRUE(cache_owner->complete_oldest().ok());  // the write-around
  ASSERT_TRUE(cache_owner->complete_oldest().ok());  // the read
  EXPECT_EQ(readback, wdata) << "FIFO: the read began after the write";
  // Block 4 may have been skipped (write-around in flight at the read's
  // completion is impossible here since FIFO completed the write first --
  // but residency, if granted, must hold the POST-write bytes).
  std::vector<Word> again(kBw, 0);
  ASSERT_TRUE(cache_owner->read(4, again).ok());
  EXPECT_EQ(again, wdata);
}

TEST(CachingBackend, FlushFailureIsCountedAndLatchedInHealth) {
  // Satellite regression: the destructor's best-effort flush used to drop
  // write-back errors on the floor -- dirty data silently never reached the
  // store.  A failed flush must bump CacheStats::flush_failures and latch
  // the error in health().
  FaultProfile fp;
  fp.seed = 3;
  fp.fail_rate = 1.0;        // every op fails...
  fp.fail_times = 1000000;   // ...and keeps failing past any retry budget
  fp.fail_reads = false;     // only write-backs are interesting here
  auto backend = caching_backend(faulty_backend(mem_backend(), fp), 4)(kBw);
  auto* cache = dynamic_cast<CachingBackend*>(backend.get());
  ASSERT_NE(cache, nullptr);
  ASSERT_TRUE(backend->resize(4).ok());
  ASSERT_TRUE(backend->write(1, std::vector<Word>(kBw, 7)).ok());  // absorbed
  ASSERT_TRUE(cache->health().ok());

  Status st = cache->flush();
  EXPECT_EQ(st.code(), StatusCode::kIo);
  EXPECT_EQ(cache->stats().flush_failures, 1u);
  EXPECT_EQ(cache->health().code(), StatusCode::kIo)
      << "a failed flush must latch into health()";

  // The latch keeps the FIRST error and the count keeps climbing.
  EXPECT_EQ(cache->flush().code(), StatusCode::kIo);
  EXPECT_EQ(cache->stats().flush_failures, 2u);
}

TEST(SessionBuilderCache, FlushStorageSurfacesWriteBackFailures) {
  // The Session-level face of the same satellite: flush_storage() returns
  // the write-back failure and storage_health() stays non-ok after it.
  FaultProfile fp;
  fp.seed = 3;
  fp.fail_rate = 1.0;
  fp.fail_times = 1000000;
  fp.fail_reads = false;
  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .backend(faulty_backend(nullptr, fp))
                   .cache(16)
                   .build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session session = std::move(built).value();
  ASSERT_TRUE(session.storage_health().ok());
  auto data = session.outsource(test::random_records(16, 3));
  ASSERT_TRUE(data.ok());
  // outsource pokes through the cache; the dirty blocks are still absorbed.
  EXPECT_EQ(session.flush_storage().code(), StatusCode::kIo);
  EXPECT_EQ(session.storage_health().code(), StatusCode::kIo);
}

TEST(SessionBuilderCache, RejectsCacheZero) {
  auto built = Session::Builder().block_records(4).cache_records(64).cache(0).build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionBuilderCache, ComposesAboveShardsUnderPrefetchAndBuilds) {
  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .cache(16)
                   .sharded(2)
                   .async_prefetch(true)
                   .build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session session = std::move(built).value();
  auto data = session.outsource(test::random_records(64, 3));
  ASSERT_TRUE(data.ok());
  auto rep = session.sort(*data, 7);
  ASSERT_TRUE(rep.ok()) << rep.status();
  auto out = session.retrieve(*data);
  ASSERT_TRUE(out.ok());
  for (std::size_t i = 1; i < out->size(); ++i)
    EXPECT_LE((*out)[i - 1].key, (*out)[i].key);
}

}  // namespace
}  // namespace oem
