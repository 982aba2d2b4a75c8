// Malicious-server conformance suite.
//
// The fail-closed contract: against a server that LIES -- mutated reads
// served with Status::Ok, acknowledged-but-dropped writes, replayed stale
// blocks -- every algorithm either completes with output identical to a
// tamper-free run, or surfaces StatusCode::kIntegrity cleanly through
// Result<T>.  Never silent corruption, never a crash, and never a retry:
// RetryPolicy absorbs kIo (an honest fault may pass on re-ask), but a
// failed MAC is proof of tampering, so kIntegrity bypasses the retry loop
// by construction.  Tampering is deterministic and seed-reproducible, so
// every trial replays exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "api/session.h"
#include "extmem/backend.h"
#include "extmem/device.h"
#include "extmem/encryption.h"
#include "extmem/io_engine.h"
#include "test_util.h"
#include "util/status.h"

namespace oem {
namespace {

TamperProfile tamper(std::uint64_t seed, double rate) {
  TamperProfile p;
  p.seed = seed;
  p.tamper_rate = rate;
  return p;
}

/// Rollback-only adversary: writes are ACKed and dropped, reads untouched.
TamperProfile rollback_only(std::uint64_t seed, double rate) {
  TamperProfile p = tamper(seed, rate);
  p.corrupt = p.bit_flip = p.swap = false;
  return p;
}

/// Read-mutation-only adversary: every write lands, reads are garbled.
TamperProfile corrupt_only(std::uint64_t seed, double rate) {
  TamperProfile p = tamper(seed, rate);
  p.bit_flip = p.swap = p.rollback = false;
  return p;
}

// ---------------------------------------------------------------------------
// Encryptor freshness: the nonce stream must never repeat (a reused nonce
// re-keys two sealings identically, which both leaks plaintext XORs and
// lets a replayed block carry a valid-looking tag).

TEST(Encryptor, FreshNoncesNeverRepeatAndNeverZero) {
  Encryptor enc(0x5eedULL, /*nonce_seed=*/42);
  std::unordered_set<Word> seen;
  for (int i = 0; i < 50000; ++i) {
    const Word n = enc.fresh_nonce();
    ASSERT_NE(n, 0u) << "0 is the never-written sentinel";
    ASSERT_TRUE(seen.insert(n).second) << "nonce repeated at draw " << i;
  }
}

TEST(Encryptor, NonceStreamIsSeedDeterministic) {
  Encryptor a(0x5eedULL, 7), b(0x5eedULL, 7), c(0x5eedULL, 8);
  std::vector<Word> sa, sb, sc;
  for (int i = 0; i < 64; ++i) {
    sa.push_back(a.fresh_nonce());
    sb.push_back(b.fresh_nonce());
    sc.push_back(c.fresh_nonce());
  }
  EXPECT_EQ(sa, sb) << "same (key, seed) must replay the same stream";
  EXPECT_NE(sa, sc);
}

TEST(Encryptor, MacBindsIndexNonceVersionAndCiphertext) {
  Encryptor enc(0x5eedULL, 1);
  std::vector<Word> ct = {11, 22, 33, 44};
  const Word m = enc.mac(/*block=*/3, /*nonce=*/9, /*version=*/2, ct);
  EXPECT_NE(m, enc.mac(4, 9, 2, ct)) << "tag must bind the block index";
  EXPECT_NE(m, enc.mac(3, 10, 2, ct)) << "tag must bind the nonce";
  EXPECT_NE(m, enc.mac(3, 9, 3, ct)) << "tag must bind the version";
  std::vector<Word> other = ct;
  other[2] ^= 1;
  EXPECT_NE(m, enc.mac(3, 9, 2, other)) << "tag must bind the ciphertext";
  EXPECT_EQ(m, Encryptor(0x5eedULL, 99).mac(3, 9, 2, ct))
      << "the tag is a pure function of (key, index, nonce, version, ct)";
}

// ---------------------------------------------------------------------------
// TamperingBackend unit semantics.

TEST(TamperingBackend, DeterministicAcrossRuns) {
  constexpr std::size_t kBw = 4;
  std::vector<std::vector<Word>> runs;
  for (int run = 0; run < 2; ++run) {
    auto backend = tampering_backend(mem_backend(), corrupt_only(9, 0.5))(kBw);
    ASSERT_TRUE(backend->resize(8).ok());
    for (std::uint64_t b = 0; b < 8; ++b)
      ASSERT_TRUE(backend->write(b, std::vector<Word>(kBw, b + 1)).ok());
    std::vector<Word> out(8 * kBw);
    const std::vector<std::uint64_t> ids = {0, 1, 2, 3, 4, 5, 6, 7};
    ASSERT_TRUE(backend->read_many(ids, out).ok());
    runs.push_back(std::move(out));
  }
  EXPECT_EQ(runs[0], runs[1]) << "same seed, same call sequence, same lies";

  auto other = tampering_backend(mem_backend(), corrupt_only(10, 0.5))(kBw);
  ASSERT_TRUE(other->resize(8).ok());
  for (std::uint64_t b = 0; b < 8; ++b)
    ASSERT_TRUE(other->write(b, std::vector<Word>(kBw, b + 1)).ok());
  std::vector<Word> out(8 * kBw);
  const std::vector<std::uint64_t> all = {0, 1, 2, 3, 4, 5, 6, 7};
  ASSERT_TRUE(other->read_many(all, out).ok());
  EXPECT_NE(out, runs[0]) << "a different seed mounts different attacks";
}

TEST(TamperingBackend, RollbackAcksTheWriteButDropsIt) {
  constexpr std::size_t kBw = 3;
  auto backend = tampering_backend(mem_backend(), rollback_only(5, 1.0))(kBw);
  auto* tb = dynamic_cast<TamperingBackend*>(backend.get());
  ASSERT_NE(tb, nullptr);
  ASSERT_TRUE(backend->resize(4).ok());
  EXPECT_TRUE(backend->write(2, std::vector<Word>(kBw, 77)).ok())
      << "the malicious server ACKs the write it is about to drop";
  EXPECT_EQ(tb->tampered(), 1u);
  std::vector<Word> raw(kBw, 1);
  ASSERT_TRUE(tb->inner().read(2, raw).ok());
  EXPECT_EQ(raw, std::vector<Word>(kBw, 0)) << "the dropped write landed";
  // Reads are untouched by a rollback-only profile: the stale bytes come
  // back with Status::Ok -- indistinguishable from honest storage without
  // a client-side freshness check.
  std::vector<Word> out(kBw, 1);
  ASSERT_TRUE(backend->read(2, out).ok());
  EXPECT_EQ(out, std::vector<Word>(kBw, 0));
}

TEST(TamperingBackend, SplitPhaseDropsAtBeginAndMutatesAtCompletion) {
  constexpr std::size_t kBw = 4;
  auto backend = tampering_backend(mem_backend(), rollback_only(6, 1.0))(kBw);
  auto* tb = dynamic_cast<TamperingBackend*>(backend.get());
  ASSERT_NE(tb, nullptr);
  ASSERT_TRUE(backend->resize(4).ok());
  // A dropped begun write: ACKed at begin, no frame below, no-op completion.
  const std::vector<std::uint64_t> wids = {0, 1};
  ASSERT_TRUE(backend->begin_write_many(wids, std::vector<Word>(2 * kBw, 9)).ok());
  ASSERT_TRUE(backend->complete_oldest().ok());
  std::vector<Word> raw(kBw, 1);
  ASSERT_TRUE(tb->inner().read(0, raw).ok());
  EXPECT_EQ(raw, std::vector<Word>(kBw, 0));

  // Begun read mutations land at completion time, when the bytes exist.
  auto reader = tampering_backend(mem_backend(), corrupt_only(6, 1.0))(kBw);
  auto* rb = dynamic_cast<TamperingBackend*>(reader.get());
  ASSERT_TRUE(reader->resize(4).ok());
  ASSERT_TRUE(reader->write(0, std::vector<Word>(kBw, 42)).ok());
  std::vector<Word> out(kBw, 0);
  const std::vector<std::uint64_t> rids = {0};
  ASSERT_TRUE(reader->begin_read_many(rids, out).ok());
  const std::uint64_t fired_before = rb->tampered();
  ASSERT_TRUE(reader->complete_oldest().ok());
  EXPECT_GT(rb->tampered(), fired_before);
  EXPECT_NE(out, std::vector<Word>(kBw, 42)) << "rate-1.0 read served honestly";
}

// ---------------------------------------------------------------------------
// The Client's seal: every stored block is [nonce][mac][ciphertext], the MAC
// binding the device block index, the nonce and a client-side version
// counter.  Every attack class becomes a clean IntegrityError at the read
// that observes it.  The attacks go straight at the stored words through
// the device's uncounted raw path.

constexpr std::size_t kSealB = 2;  // records per block: 2 + 2*2 stored words

TEST(ClientSeal, RoundTripsAndServesNeverWrittenAsZero) {
  Client client(test::params(kSealB, 16));
  EXPECT_EQ(client.device().block_words(),
            kBlockHeaderWords + kSealB * kWordsPerRecord);  // [nonce][mac]
  const ExtArray a = client.alloc(4 * kSealB, Client::Init::kUninit);
  BlockBuf out;
  client.read_block(a, 1, out);
  EXPECT_EQ(out, BlockBuf(kSealB, Record{0, 0})) << "never-written reads as zero";
  const BlockBuf data = {{10, 20}, {30, 40}};
  client.write_block(a, 1, data);
  client.read_block(a, 1, out);
  EXPECT_EQ(out, data);
  // Any bytes other than all-zero in a block the client never wrote were
  // fabricated by the server.
  std::vector<Word> forged(client.device().block_words(), 0);
  forged.back() = 1;
  client.device().write_raw(a.device_block(3), forged);
  EXPECT_THROW(client.read_block(a, 3, out), IntegrityError);
}

TEST(ClientSeal, BitFlipInEveryStoredWordIsIntegrity) {
  Client client(test::params(kSealB, 16));
  const ExtArray a = client.alloc(4 * kSealB, Client::Init::kUninit);
  const BlockBuf data = {{1, 2}, {3, 4}};
  client.write_block(a, 0, data);
  BlockDevice& dev = client.device();
  const std::uint64_t blk = a.device_block(0);
  // Flip one bit of each stored word in turn -- header or payload, any
  // single-bit mutation must be caught.
  const std::vector<Word> good = dev.raw(blk);
  for (std::size_t w = 0; w < good.size(); ++w) {
    std::vector<Word> bad = good;
    bad[w] ^= Word{1} << (w % 64);
    dev.write_raw(blk, bad);
    BlockBuf out;
    EXPECT_THROW(client.read_block(a, 0, out), IntegrityError)
        << "flip in stored word " << w << " went undetected";
    dev.write_raw(blk, good);  // restore for the next round
  }
  BlockBuf out;
  client.read_block(a, 0, out);
  EXPECT_EQ(out, data) << "restored block must verify again";
}

TEST(ClientSeal, ReplayOfAStaleSnapshotIsIntegrity) {
  // The rollback attack: Bob serves an old (ciphertext, nonce, MAC) triple
  // that was once valid.  Only the client-side version counter folded into
  // the tag can catch it.
  Client client(test::params(kSealB, 16));
  const ExtArray a = client.alloc(4 * kSealB, Client::Init::kUninit);
  const std::uint64_t blk = a.device_block(2);
  client.write_block(a, 2, BlockBuf{{5, 5}, {5, 5}});
  const std::vector<Word> snapshot = client.device().raw(blk);  // valid at v1
  client.write_block(a, 2, BlockBuf{{6, 6}, {6, 6}});
  client.device().write_raw(blk, snapshot);  // roll back to v1
  BlockBuf out;
  EXPECT_THROW(client.read_block(a, 2, out), IntegrityError)
      << "a replayed stale-but-once-valid block must fail freshness";
}

TEST(ClientSeal, DroppedWriteIsIntegrityOnReadBack) {
  // Rollback via TamperingBackend underneath: the write is ACKed but never
  // lands, so the store still holds the never-written sentinel while the
  // client-side version table says "sealed once".
  ClientParams p = test::params(kSealB, 16);
  p.backend = tampering_backend(mem_backend(), rollback_only(11, 1.0));
  Client client(p);
  const ExtArray a = client.alloc(4 * kSealB, Client::Init::kUninit);
  client.write_block(a, 0, BlockBuf{{9, 9}, {9, 9}});
  BlockBuf out;
  EXPECT_THROW(client.read_block(a, 0, out), IntegrityError);
}

TEST(ClientSeal, BlockTransplantIsIntegrity) {
  // Bob serves block 0's (valid!) sealed bytes for block 1: the index baked
  // into the tag catches the transplant.
  Client client(test::params(kSealB, 16));
  const ExtArray a = client.alloc(4 * kSealB, Client::Init::kUninit);
  client.write_block(a, 0, BlockBuf{{1, 1}, {1, 1}});
  client.write_block(a, 1, BlockBuf{{2, 2}, {2, 2}});
  BlockDevice& dev = client.device();
  dev.write_raw(a.device_block(1), dev.raw(a.device_block(0)));
  BlockBuf out;
  EXPECT_THROW(client.read_block(a, 1, out), IntegrityError);
  EXPECT_NO_THROW(client.read_block(a, 0, out)) << "the untouched block still verifies";
}

// ---------------------------------------------------------------------------
// kIntegrity bypasses RetryPolicy.  A failed MAC is proof of tampering, not
// a transient fault: retrying hands the adversary more oracle queries and
// can never succeed honestly, so the retry loop must pass it straight
// through -- zero retries burned, IntegrityError (not the generic kIo path)
// surfacing from the device.

/// A store that reports every read as a failed authentication, as a store
/// verifying what it serves would on tampering.
class IntegrityFailingBackend : public MemBackend {
 public:
  using MemBackend::MemBackend;
  int reads = 0;

 protected:
  Status do_read_many(std::span<const std::uint64_t>, std::span<Word>) override {
    return fail();
  }

 private:
  Status fail() {
    ++reads;
    return Status::Integrity("forged block");
  }
};

TEST(RetryBypass, DeviceDoesNotRetryIntegrityFailures) {
  constexpr std::size_t kBw = 4;
  IntegrityFailingBackend* store = nullptr;
  BlockDevice dev(kBw,
                  [&store](std::size_t bw) {
                    auto b = std::make_unique<IntegrityFailingBackend>(bw);
                    store = b.get();
                    return b;
                  },
                  RetryPolicy{8});
  ASSERT_NE(store, nullptr);
  dev.allocate(4);
  dev.write(0, std::vector<Word>(kBw, 3));
  std::vector<Word> out(kBw);
  EXPECT_THROW(dev.read(0, out), IntegrityError);
  EXPECT_EQ(dev.retries(), 0u)
      << "RetryPolicy burned attempts on a tampering proof";
  EXPECT_EQ(store->reads, 1) << "the device re-asked the store";
}

TEST(RetryBypass, SessionSurfacesIntegrityWithZeroRetries) {
  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .seed(3)
                   .tampering(17, 1.0)
                   .io_retries(8)
                   .build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session session = std::move(built).value();
  // Writes are ACKed (and dropped); the first read that opens a block sees
  // the tampering and fails closed.
  auto data = session.outsource(test::random_records(32, 2));
  if (data.ok()) {
    auto back = session.retrieve(*data);
    ASSERT_FALSE(back.ok()) << "rate-1.0 tampering went unnoticed";
    EXPECT_EQ(back.status().code(), StatusCode::kIntegrity);
  } else {
    EXPECT_EQ(data.status().code(), StatusCode::kIntegrity);
  }
  EXPECT_EQ(session.client().device().retries(), 0u);
}

// ---------------------------------------------------------------------------
// Algorithm-level conformance: 100 seeded trials per algorithm on the plain
// stack (plus a smaller matrix on sharded / cached stacks).
// Exactly two outcomes are allowed per trial: identical output + identical
// trace, or clean kIntegrity.  Anything else -- wrong output with Ok, a
// crash, kIo, a burned retry -- is a conformance failure.

struct StackConfig {
  const char* name;
  std::size_t shards;
  std::uint64_t cache_blocks;
  int trials;
};

constexpr StackConfig kStacks[] = {
    {"plain", 1, 0, 100},
    {"sharded4", 4, 0, 20},
    {"cached", 1, 16, 20},
    {"sharded4_cached", 4, 16, 20},
};

Result<Session> build_session(const StackConfig& cfg, std::uint64_t tamper_seed,
                              double rate) {
  Session::Builder b;
  b.block_records(4).cache_records(64).seed(11).io_retries(4);
  if (cfg.shards > 1) b.sharded(cfg.shards);
  if (cfg.cache_blocks > 0) b.cache(cfg.cache_blocks);
  if (rate > 0.0) b.tampering(tamper_seed, rate);
  return b.build();
}

/// Trial rate schedule: the early trials tamper rarely enough that many runs
/// complete (exercising the identical-output arm); the rest tamper often
/// enough that detection dominates (exercising the fail-closed arm).  Both
/// arms stay deterministic per (config, trial).
double trial_rate(int trial) { return trial % 5 == 0 ? 0.0005 : 0.02; }

template <typename AlgoFn>
void run_tamper_trials(const char* what, AlgoFn&& algo) {
  for (const StackConfig& cfg : kStacks) {
    auto clean = build_session(cfg, 0, 0.0);
    ASSERT_TRUE(clean.ok()) << clean.status();
    std::vector<Record> expected;
    Status ref = algo(*clean, &expected);
    ASSERT_TRUE(ref.ok()) << what << "/" << cfg.name
                          << " tamper-free run failed: " << ref;
    const std::uint64_t expected_trace = clean->trace().hash();

    const int trials = cfg.trials;
    int completed = 0, detected = 0;
    for (int trial = 0; trial < trials; ++trial) {
      auto tampered = build_session(cfg, 5000 + trial, trial_rate(trial));
      ASSERT_TRUE(tampered.ok()) << tampered.status();
      std::vector<Record> got;
      Status st = algo(*tampered, &got);
      if (st.ok()) {
        ++completed;
        EXPECT_EQ(got, expected)
            << what << "/" << cfg.name << " trial " << trial
            << ": SILENT CORRUPTION -- tampered run completed with wrong output";
        EXPECT_EQ(tampered->trace().hash(), expected_trace)
            << what << "/" << cfg.name << " trial " << trial
            << ": tampering leaked into the trace";
      } else {
        ++detected;
        EXPECT_EQ(st.code(), StatusCode::kIntegrity)
            << what << "/" << cfg.name << " trial " << trial
            << ": tampering must fail closed as kIntegrity, got " << st;
      }
      EXPECT_EQ(tampered->client().device().retries(), 0u)
          << what << "/" << cfg.name << " trial " << trial
          << ": kIntegrity must bypass RetryPolicy";
    }
    // Sanity on the schedule itself: the fail-closed arm fired.  (The
    // identical-output arm is exercised on the low-rate trials whenever the
    // seed leaves them untouched; it needs no floor to be meaningful.)
    EXPECT_GT(detected, 0) << what << "/" << cfg.name;
    EXPECT_EQ(completed + detected, trials);
  }
}

TEST(TamperConformance, SortCompletesIdenticallyOrFailsClosed) {
  run_tamper_trials("sort", [](Session& s, std::vector<Record>* out) -> Status {
    auto data = s.outsource(test::random_records(32 * 4, 7));
    if (!data.ok()) return data.status();
    auto rep = s.sort(*data, /*seed=*/5);
    if (!rep.ok()) return rep.status();
    auto result = s.retrieve(*data);
    if (!result.ok()) return result.status();
    *out = std::move(*result);
    return Status::Ok();
  });
}

TEST(TamperConformance, SelectCompletesIdenticallyOrFailsClosed) {
  run_tamper_trials("select", [](Session& s, std::vector<Record>* out) -> Status {
    auto data = s.outsource(test::random_records(24 * 4, 9));
    if (!data.ok()) return data.status();
    auto r = s.select(*data, /*k=*/17, /*seed=*/5);
    if (!r.ok()) return r.status();
    out->push_back(*r);
    return Status::Ok();
  });
}

TEST(TamperConformance, QuantilesCompleteIdenticallyOrFailClosed) {
  run_tamper_trials("quantiles", [](Session& s, std::vector<Record>* out) -> Status {
    auto data = s.outsource(test::random_records(24 * 4, 13));
    if (!data.ok()) return data.status();
    auto r = s.quantiles(*data, /*q=*/4, /*seed=*/5);
    if (!r.ok()) return r.status();
    *out = std::move(*r);
    return Status::Ok();
  });
}

TEST(TamperConformance, CompactCompletesIdenticallyOrFailsClosed) {
  run_tamper_trials("compact", [](Session& s, std::vector<Record>* out) -> Status {
    std::vector<Record> v(24 * 4);
    for (std::uint64_t i = 0; i < v.size(); i += 3) v[i] = {i, i};
    auto data = s.outsource(v);
    if (!data.ok()) return data.status();
    auto rep = s.compact(*data);
    if (!rep.ok()) return rep.status();
    auto result = s.retrieve(rep->out);
    if (!result.ok()) return result.status();
    *out = std::move(*result);
    return Status::Ok();
  });
}

TEST(TamperConformance, OramEpochCompletesIdenticallyOrFailsClosed) {
  run_tamper_trials("oram", [](Session& s, std::vector<Record>* out) -> Status {
    auto oram = s.open_oram(64, oram::ShuffleKind::kDeterministic, /*seed=*/17);
    if (!oram.ok()) return oram.status();
    for (std::uint64_t i = 0; i <= oram->epoch_length(); ++i) {
      auto v = oram->access((i * 5) % 64);
      if (!v.ok()) return v.status();
      EXPECT_EQ(*v, oram->expected_value((i * 5) % 64))
          << "SILENT CORRUPTION in ORAM access " << i;
      out->push_back({i, *v});
    }
    return Status::Ok();
  });
}

}  // namespace
}  // namespace oem
