// Remote block store suite: the wire protocol round-trips, per-store
// namespacing, connection-drop recovery (kIo + reconnect under the device's
// RetryPolicy), split-phase wire pipelining, and the Client-seal guarantee
// that the server only ever holds fresh ciphertext.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "api/session.h"
#include "extmem/backend.h"
#include "extmem/client.h"
#include "extmem/io_engine.h"
#include "extmem/remote.h"
#include "server/server.h"
#include "test_util.h"

namespace oem {
namespace {

constexpr std::size_t kBw = 5;

std::vector<Word> pattern(std::uint64_t block, Word salt = 0) {
  std::vector<Word> w(kBw);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = block * 1000 + i + salt;
  return w;
}

// ---------------------------------------------------------------------------
// Protocol basics.

TEST(RemoteBackend, ConformsLikeAnyBackend) {
  RemoteServer server;
  ASSERT_TRUE(server.health().ok()) << server.health();
  RemoteBackendOptions opts;
  opts.port = server.port();
  RemoteBackend backend(kBw, opts);
  ASSERT_TRUE(backend.health().ok()) << backend.health();

  ASSERT_TRUE(backend.resize(8).ok());
  EXPECT_EQ(backend.num_blocks(), 8u);
  std::vector<Word> out(kBw, 123);
  ASSERT_TRUE(backend.read(7, out).ok());
  for (Word w : out) EXPECT_EQ(w, 0u) << "fresh blocks must read as zero";

  for (std::uint64_t b = 0; b < 8; ++b)
    ASSERT_TRUE(backend.write(b, pattern(b)).ok());
  // Batched, scattered, partly duplicate ids: sequential semantics.
  const std::vector<std::uint64_t> ids = {7, 2, 3, 2, 0};
  std::vector<Word> flat(ids.size() * kBw);
  ASSERT_TRUE(backend.read_many(ids, flat).ok());
  for (std::size_t i = 0; i < ids.size(); ++i)
    for (std::size_t j = 0; j < kBw; ++j)
      EXPECT_EQ(flat[i * kBw + j], pattern(ids[i])[j]) << "batch slot " << i;

  // Shrink then regrow zeroes the shrunk-away region (server-side resize).
  ASSERT_TRUE(backend.resize(2).ok());
  ASSERT_TRUE(backend.resize(8).ok());
  ASSERT_TRUE(backend.read(5, out).ok());
  for (Word w : out) EXPECT_EQ(w, 0u);
  ASSERT_TRUE(backend.read(1, out).ok());
  EXPECT_EQ(out, pattern(1));

  // Out-of-range is a client-side kInvalidArgument (same as every backend).
  EXPECT_EQ(backend.read(8, out).code(), StatusCode::kInvalidArgument);

  // STAT sees the server's geometry.
  std::uint64_t nblocks = 0, bw = 0;
  ASSERT_TRUE(backend.stat(&nblocks, &bw).ok());
  EXPECT_EQ(nblocks, 8u);
  EXPECT_EQ(bw, kBw);
}

TEST(RemoteBackend, StoreIdsAreIndependentNamespaces) {
  RemoteServer server;
  RemoteBackendOptions a_opts, b_opts;
  a_opts.port = b_opts.port = server.port();
  a_opts.store_id = 0;
  b_opts.store_id = 1;
  RemoteBackend a(kBw, a_opts), b(kBw, b_opts);
  ASSERT_TRUE(a.resize(4).ok());
  ASSERT_TRUE(b.resize(4).ok());
  ASSERT_TRUE(a.write(2, pattern(2, 100)).ok());
  ASSERT_TRUE(b.write(2, pattern(2, 200)).ok());
  std::vector<Word> out(kBw);
  ASSERT_TRUE(a.read(2, out).ok());
  EXPECT_EQ(out, pattern(2, 100)) << "store 1's write leaked into store 0";
  ASSERT_TRUE(b.read(2, out).ok());
  EXPECT_EQ(out, pattern(2, 200));
}

TEST(RemoteBackend, HelloRejectsBlockWordsMismatch) {
  RemoteServer server;
  RemoteBackendOptions opts;
  opts.port = server.port();
  RemoteBackend first(kBw, opts);
  ASSERT_TRUE(first.health().ok());
  RemoteBackend second(kBw + 2, opts);  // same store id, different geometry
  Status st = second.health();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
}

TEST(RemoteBackend, ConnectFailureIsIoNotCrash) {
  RemoteBackendOptions opts;
  opts.port = 1;  // nothing listens on port 1
  RemoteBackend backend(kBw, opts);
  EXPECT_EQ(backend.health().code(), StatusCode::kIo);
  std::vector<Word> out(kBw);
  EXPECT_EQ(backend.resize(2).code(), StatusCode::kIo);
}

// ---------------------------------------------------------------------------
// Connection drops: kIo now, transparent reconnect on the next attempt.

TEST(RemoteBackend, ReconnectsAfterDroppedConnection) {
  RemoteServer server;
  RemoteBackendOptions opts;
  opts.port = server.port();
  RemoteBackend backend(kBw, opts);
  ASSERT_TRUE(backend.resize(4).ok());
  ASSERT_TRUE(backend.write(1, pattern(1)).ok());

  server.drop_connections();
  // The drop surfaces as kIo exactly once...
  std::vector<Word> out(kBw);
  Status st = backend.read(1, out);
  EXPECT_EQ(st.code(), StatusCode::kIo) << st;
  // ...and the next attempt reconnects; the store survived server-side.
  ASSERT_TRUE(backend.read(1, out).ok());
  EXPECT_EQ(out, pattern(1));
  EXPECT_GE(backend.reconnects(), 1u);
}

TEST(RemoteBackend, DeviceRetryPolicyAbsorbsTheDrop) {
  RemoteServer server;
  ClientParams p = test::params(4, 64);
  RemoteBackendOptions opts;
  opts.port = server.port();
  p.backend = remote_backend(opts);
  p.io_retry_attempts = 3;  // drop -> kIo -> retry reconnects
  Client client(p);
  ExtArray a = client.alloc_blocks(8, Client::Init::kEmpty);
  client.poke(a, test::iota_records(8 * 4));

  server.drop_connections();
  // The very next counted read succeeds through the retry loop: the failure
  // and the reconnect are both invisible to the caller AND to the trace.
  BlockBuf buf;
  client.read_block(a, 3, buf);
  EXPECT_EQ(buf[0].key, 12u);
  auto* remote = dynamic_cast<RemoteBackend*>(&client.device().backend());
  ASSERT_NE(remote, nullptr);
  EXPECT_GE(remote->reconnects(), 1u);
  EXPECT_GE(client.device().retries(), 1u);
}

// ---------------------------------------------------------------------------
// Split-phase wire pipelining.

TEST(RemoteBackend, PipelinesMultipleFramesInFlight) {
  RemoteServer server;
  RemoteBackendOptions opts;
  opts.port = server.port();
  opts.max_inflight = 8;
  RemoteBackend backend(kBw, opts);
  ASSERT_TRUE(backend.resize(16).ok());
  EXPECT_EQ(backend.max_inflight(), 8u);

  // Begin 4 writes + 4 reads without completing any; FIFO completion must
  // observe the writes (single connection = server applies in frame order).
  std::vector<std::uint64_t> ids(4);
  std::vector<Word> win(4 * kBw);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ids[i] = i;
    const auto w = pattern(i, 7);
    std::copy(w.begin(), w.end(), win.begin() + i * kBw);
  }
  ASSERT_TRUE(backend.begin_write_many(ids, win).ok());
  std::vector<Word> r1(4 * kBw), r2(4 * kBw);
  ASSERT_TRUE(backend.begin_read_many(ids, r1).ok());
  // Overwrite, then read again -- all four frames on the wire at once.
  std::vector<Word> win2 = win;
  for (Word& w : win2) w += 1000;
  ASSERT_TRUE(backend.begin_write_many(ids, win2).ok());
  ASSERT_TRUE(backend.begin_read_many(ids, r2).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(backend.complete_oldest().ok()) << i;
  EXPECT_EQ(r1, win) << "first read must see the first write";
  EXPECT_EQ(r2, win2) << "second read must see the overwrite";
  EXPECT_TRUE(backend.complete_oldest().ok()) << "no outstanding op is a no-op";
}

TEST(RemoteBackend, TransportDeathFailsAllOutstandingThenRecovers) {
  // Responses are held 50ms server-side, so the drop is guaranteed to beat
  // them: BOTH outstanding ops must fail out, in order.
  RemoteServerOptions sopts;
  sopts.response_delay_ns = 50'000'000;
  RemoteServer server(sopts);
  RemoteBackendOptions opts;
  opts.port = server.port();
  opts.max_inflight = 8;
  RemoteBackend backend(kBw, opts);
  ASSERT_TRUE(backend.resize(8).ok());

  std::vector<Word> r1(kBw), r2(kBw), r3(kBw);
  const std::vector<std::uint64_t> one = {1};
  ASSERT_TRUE(backend.begin_read_many(one, r1).ok());
  ASSERT_TRUE(backend.begin_read_many(one, r2).ok());
  server.drop_connections();
  EXPECT_EQ(backend.complete_oldest().code(), StatusCode::kIo);
  EXPECT_EQ(backend.complete_oldest().code(), StatusCode::kIo);
  // With everything failed out, a fresh synchronous op reconnects.
  ASSERT_TRUE(backend.read_many(one, r3).ok());
  EXPECT_GE(backend.reconnects(), 1u);
}

TEST(AsyncRemote, SubmittedOpsPipelineAndReplayAfterDrop) {
  RemoteServer server;
  RemoteBackendOptions opts;
  opts.port = server.port();
  opts.max_inflight = 8;
  auto owner = async_backend(remote_backend(opts))(kBw);
  auto* async = dynamic_cast<AsyncBackend*>(owner.get());
  ASSERT_NE(async, nullptr);
  async->set_retry_attempts(3);
  ASSERT_TRUE(owner->resize(64).ok());

  // A long FIFO chain of dependent writes/reads with a mid-stream drop: the
  // replay path must preserve order, so every read sees its predecessor.
  std::vector<std::vector<Word>> reads(16, std::vector<Word>(kBw));
  AsyncBackend::Ticket last = 0;
  for (std::uint64_t i = 0; i < 16; ++i) {
    std::vector<Word> w(kBw, 100 + i);
    async->submit_write_many({i % 4}, std::move(w));
    last = async->submit_read_many(std::vector<std::uint64_t>{i % 4}, reads[i]);
    if (i == 7) server.drop_connections();
  }
  ASSERT_TRUE(async->wait(last).ok()) << "bounded retries must absorb the drop";
  for (std::uint64_t i = 0; i < 16; ++i)
    EXPECT_EQ(reads[i][0], 100 + i) << "read " << i << " saw a stale write";
  EXPECT_GE(async->retries(), 1u);
}

/// Split-phase store in which the server side is the in-memory array: a
/// begun write is applied at once, a begun read snapshots its blocks at once,
/// and responses arrive at complete_oldest() in begin order.  Arming
/// `lose_read_of` drops the response of the next read of that block with
/// kIo (the request itself was served).  While `hold` is set, every begin
/// waits, so a test can queue several ops before the I/O thread starts any.
class SplitPhaseFake : public MemBackend {
 public:
  explicit SplitPhaseFake(std::size_t bw) : MemBackend(bw) {}

  std::uint64_t lose_read_of = ~0ULL;

  void set_hold(bool on) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      hold_ = on;
    }
    cv_.notify_all();
  }

 protected:
  std::size_t do_max_inflight() const override { return 8; }
  Status do_begin_read_many(std::span<const std::uint64_t> blocks,
                            std::span<Word> out) override {
    wait_for_release();
    Pending p{out, std::vector<Word>(out.size()), Status::Ok()};
    OEM_RETURN_IF_ERROR(MemBackend::do_read_many(blocks, p.data));
    if (blocks.size() == 1 && blocks[0] == lose_read_of) {
      p.st = Status::Io("response lost");
      lose_read_of = ~0ULL;
    }
    pending_.push_back(std::move(p));
    return Status::Ok();
  }
  Status do_begin_write_many(std::span<const std::uint64_t> blocks,
                             std::span<const Word> in) override {
    wait_for_release();
    pending_.push_back({{}, {}, MemBackend::do_write_many(blocks, in)});
    return Status::Ok();
  }
  Status do_complete_oldest() override {
    if (pending_.empty()) return Status::Ok();
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    if (p.st.ok()) std::copy(p.data.begin(), p.data.end(), p.out.begin());
    return p.st;
  }

 private:
  struct Pending {
    std::span<Word> out;
    std::vector<Word> data;
    Status st;
  };
  void wait_for_release() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !hold_; });
  }
  std::deque<Pending> pending_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool hold_ = false;
};

// A replayed read must not observe a write that follows it in the window:
// the server may already have applied that write when the read's response
// was lost.  Deterministic: the I/O thread is held inside the first begin
// until the read and the later write of the same block are both queued.
TEST(AsyncRemote, ReplayedReadNeverSeesALaterWrite) {
  auto fake_owner = std::make_unique<SplitPhaseFake>(kBw);
  SplitPhaseFake* fake = fake_owner.get();
  AsyncBackend async(std::move(fake_owner));
  async.set_retry_attempts(3);
  ASSERT_TRUE(async.resize(8).ok());

  async.submit_write_many({3}, std::vector<Word>(kBw, 107));
  ASSERT_TRUE(async.drain().ok());

  fake->lose_read_of = 3;
  fake->set_hold(true);
  async.submit_write_many({1}, std::vector<Word>(kBw, 1));  // holds the I/O thread
  std::vector<Word> seen(kBw);
  const AsyncBackend::Ticket read = async.submit_read_many(std::vector<std::uint64_t>{3}, seen);
  async.submit_write_many({3}, std::vector<Word>(kBw, 111));
  fake->set_hold(false);

  ASSERT_TRUE(async.wait(read).ok()) << "the retry budget must absorb the lost response";
  ASSERT_TRUE(async.drain().ok());
  EXPECT_EQ(seen[0], 107u) << "the replayed read saw the write queued after it";
  EXPECT_GE(async.retries(), 1u);
  std::vector<Word> final_state(kBw);
  ASSERT_TRUE(async.read_many(std::vector<std::uint64_t>{3}, final_state).ok());
  EXPECT_EQ(final_state[0], 111u);
}

// ---------------------------------------------------------------------------
// The Client's seal over the wire: the server only ever holds fresh
// ciphertext, and blocks the client never wrote still read back as zero.

constexpr std::size_t kSealB = 2;  // records per block

ClientParams remote_client_params(const RemoteServer& server,
                                  std::uint64_t store_id) {
  ClientParams p = test::params(kSealB, /*M=*/16);
  RemoteBackendOptions opts;
  opts.port = server.port();
  opts.store_id = store_id;
  p.backend = remote_backend(opts);
  return p;
}

TEST(ClientOverRemote, RewritingSamePlaintextYieldsFreshServerBytes) {
  RemoteServer server;
  Client client(remote_client_params(server, 9));
  ASSERT_TRUE(client.device().backend().health().ok());
  const ExtArray a = client.alloc(4 * kSealB, Client::Init::kUninit);
  const std::uint64_t blk = a.device_block(2);

  const BlockBuf plain = {{4201, 4202}, {4203, 4204}};
  client.write_block(a, 2, plain);
  std::vector<Word> held1;
  ASSERT_TRUE(server.peek_store(9, blk, &held1).ok());
  client.write_block(a, 2, plain);  // same plaintext again
  std::vector<Word> held2;
  ASSERT_TRUE(server.peek_store(9, blk, &held2).ok());

  ASSERT_EQ(held1.size(), kBlockHeaderWords + kSealB * kWordsPerRecord)
      << "stored block = [nonce][mac] header + payload";
  EXPECT_NE(held1, held2) << "re-encryption of the same value must be fresh";
  for (std::size_t r = 0; r < kSealB; ++r) {
    for (const std::vector<Word>* held : {&held1, &held2}) {
      const Word* payload = held->data() + kBlockHeaderWords + r * kWordsPerRecord;
      EXPECT_NE(payload[0], plain[r].key) << "server held plaintext key " << r;
      EXPECT_NE(payload[1], plain[r].value) << "server held plaintext value " << r;
    }
  }
  BlockBuf out;
  client.read_block(a, 2, out);
  EXPECT_EQ(out, plain) << "decryption must invert the seal";
}

TEST(ClientOverRemote, NeverWrittenAndRegrownBlocksReadAsZero) {
  // The server zero-fills fresh storage and the client's version table says
  // "never written", so those blocks open as all-zero-word records.
  RemoteServer server;
  Client client(remote_client_params(server, 10));
  const std::vector<Record> zero(4 * kSealB, Record{0, 0});
  const ExtArray a = client.alloc(4 * kSealB, Client::Init::kUninit);
  EXPECT_EQ(client.peek(a), zero) << "never-written blocks";

  // Shrink (LIFO release) then regrow: the server must re-zero the region and
  // the client must forget the old versions, on both sides of the wire.
  client.poke(a, test::iota_records(4 * kSealB));
  client.release(a);
  const ExtArray b = client.alloc(4 * kSealB, Client::Init::kUninit);
  ASSERT_EQ(b.device_block(0), a.device_block(0));
  EXPECT_EQ(client.peek(b), zero) << "shrunk-then-regrown blocks";
}

// ---------------------------------------------------------------------------
// End to end through the Session facade.

TEST(RemoteSession, SortsIdenticallyToMemAtDepth8) {
  RemoteServer server;
  const auto input = test::random_records(40 * 4, 3);
  std::vector<std::vector<Record>> results;
  std::vector<std::vector<TraceEvent>> traces;
  for (int remote = 0; remote < 2; ++remote) {
    auto builder = Session::Builder()
                       .block_records(4)
                       .cache_records(64)
                       .seed(5)
                       .pipeline_depth(8)
                       .async_prefetch(remote == 1);
    if (remote) builder.remote(server.host(), server.port());
    auto built = builder.build();
    ASSERT_TRUE(built.ok()) << built.status();
    Session session = std::move(built).value();
    auto data = session.outsource(input);
    ASSERT_TRUE(data.ok());
    session.trace().set_record_events(true);
    session.trace().reset();
    auto rep = session.sort(*data, /*seed=*/11);
    ASSERT_TRUE(rep.ok()) << rep.status();
    auto sorted = session.retrieve(*data);
    ASSERT_TRUE(sorted.ok());
    EXPECT_TRUE(test::padded_sorted(*sorted));
    results.push_back(std::move(*sorted));
    traces.push_back(session.trace().events());
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_TRUE(traces[0] == traces[1])
      << "remote+prefetch at depth 8 diverged from the in-memory trace";
}

TEST(RemoteSession, ConcurrentSessionsNeverAliasServerStores) {
  // Two sessions with identical geometry against ONE server: each build()
  // draws its own store-id namespace, so their blocks must stay disjoint.
  RemoteServer server;
  auto make = [&] {
    auto built = Session::Builder()
                     .block_records(4)
                     .cache_records(64)
                     .remote(server.host(), server.port())
                     .build();
    EXPECT_TRUE(built.ok()) << built.status();
    return std::move(built).value();
  };
  Session a = make(), b = make();
  auto da = a.outsource(test::iota_records(8 * 4));
  auto db = b.outsource(test::random_records(8 * 4, 99));
  ASSERT_TRUE(da.ok() && db.ok());
  auto ra = a.retrieve(*da);
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(*ra, test::iota_records(8 * 4))
      << "session b's writes leaked into session a's store";
}

TEST(RemoteSession, ShardedRemoteUsesOneConnectionPerShard) {
  RemoteServer server;
  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .sharded(4)
                   .remote(server.host(), server.port())
                   .build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session session = std::move(built).value();
  auto data = session.outsource(test::random_records(24 * 4, 9));
  ASSERT_TRUE(data.ok());
  auto rep = session.sort(*data);
  ASSERT_TRUE(rep.ok()) << rep.status();
  auto sorted = session.retrieve(*data);
  ASSERT_TRUE(sorted.ok());
  EXPECT_TRUE(test::padded_sorted(*sorted));
  EXPECT_GE(server.connections_accepted(), 4u)
      << "each shard must hold its own connection";
}

}  // namespace
}  // namespace oem
