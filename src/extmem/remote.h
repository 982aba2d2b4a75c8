// Remote block store, client side: the paper's trusted client (Alice)
// talking to the untrusted server (Bob) across a real process boundary.
//
// The paper's model is a trusted client running oblivious algorithms against
// outsourced storage; every obliviousness argument is about the request
// sequence Bob observes, so the storage may as well be on the other end of a
// socket.  RemoteBackend is a StorageBackend whose ops are request/response
// frames over the wire protocol in extmem/wire.h (see docs/WIRE_PROTOCOL.md).
// The server side -- the in-process RemoteServer and the stand-alone
// oem-server binary -- lives in server/server.h.
//
// RemoteBackend composes under the existing ShardedBackend/AsyncBackend/
// FaultyBackend/CachingBackend stack unchanged: per-shard connections,
// prefetch, fault injection and the BlockDevice RetryPolicy all apply.  A
// dropped connection surfaces as StatusCode::kIo and the next attempt
// reconnects, so the device's bounded retries recover transparently.  When
// consecutive CONNECT attempts keep failing (the server is down or flapping),
// reconnects back off exponentially with jitter up to backoff_max_us, so the
// retry budget is spent waiting for the server to come back instead of being
// burned in a microseconds-long spin of doomed connect() calls.
//
// Wire pipelining: RemoteBackend implements the split-phase
// begin_*/complete_oldest API (see backend.h), keeping up to
// RemoteBackendOptions::max_inflight request frames outstanding on the
// connection.  The server processes a connection's frames strictly in
// arrival order, so sequential read/write semantics (and all hazard
// arguments) are preserved with any number of frames in flight -- this is
// what lets a depth-K block pipeline hide the round trip instead of paying
// it once per window.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <span>
#include <string>

#include "extmem/backend.h"
#include "extmem/wire.h"

namespace oem {

struct RemoteBackendOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Server-side namespace; Session::Builder gives each shard its own.
  std::uint64_t store_id = 0;
  /// Request frames kept in flight on the connection by the split-phase API
  /// (1 = classic synchronous round trips).
  std::size_t max_inflight = 16;
  /// Reconnect backoff: after the k-th consecutive FAILED connect attempt the
  /// next attempt waits ~ min(backoff_max_us, backoff_initial_us << (k-1))
  /// microseconds (uniformly jittered to half that on average, so a fleet of
  /// shard connections does not stampede a recovering server in lockstep).
  /// A successful connect resets the streak, and losing an ESTABLISHED
  /// connection never waits -- the first reconnect attempt is immediate, only
  /// a server that keeps refusing pays the ramp.  backoff_initial_us = 0
  /// disables the backoff entirely.
  std::uint64_t backoff_initial_us = 500;
  std::uint64_t backoff_max_us = 200'000;
  /// Per-frame send/receive deadline in milliseconds (0 = none: blocking
  /// I/O, the pre-PR 10 behavior).  One deadline bounds each WHOLE frame, so
  /// a dead, hung, or byzantine-slow (slow-loris) server surfaces as
  /// StatusCode::kTimeout -- retryable: the connection is torn down and the
  /// next attempt reconnects -- instead of hanging the session forever.
  std::uint64_t io_deadline_ms = 0;
  /// Pre-shared key authenticating the HELLO/PING control frames (see
  /// wire::control_mac).  0 -- the default on both ends -- still computes and
  /// checks the tags, so a key mismatch between deployments fails closed as
  /// kIntegrity; a nonzero shared secret is what buys active-attacker
  /// resistance.
  std::uint64_t auth_key = 0;
};

class RemoteBackend : public StorageBackend {
 public:
  RemoteBackend(std::size_t block_words, RemoteBackendOptions opts);
  ~RemoteBackend() override;
  const char* name() const override { return "remote"; }
  /// Probes the connection (connect + HELLO on first use) so a bad address
  /// surfaces at Session build time instead of on the first I/O.
  Status health() const override;

  const RemoteBackendOptions& options() const { return opts_; }
  /// Request frames completed (one per round trip) and reconnects performed.
  std::uint64_t round_trips() const { return round_trips_.load(std::memory_order_relaxed); }
  std::uint64_t reconnects() const { return reconnects_.load(std::memory_order_relaxed); }
  /// Backoff sleeps taken before reconnect attempts, and their total length;
  /// tests assert the ramp without timing the sleeps themselves.
  std::uint64_t backoff_waits() const { return backoff_waits_.load(std::memory_order_relaxed); }
  std::uint64_t backoff_waited_us() const {
    return backoff_waited_us_.load(std::memory_order_relaxed);
  }
  /// STAT round trip: the server's view of this store's geometry.
  Status stat(std::uint64_t* num_blocks, std::uint64_t* block_words_out);
  /// Keep-alive heartbeat: a PING round trip carrying a token the server must
  /// echo.  Resets the server's idle clock for this connection, so a client
  /// that pings inside the server's idle timeout is never evicted.  Must not
  /// be called with split-phase frames in flight (it is a synchronous RPC).
  Status ping();

 protected:
  Status do_resize(std::uint64_t nblocks) override;
  Status do_read_many(std::span<const std::uint64_t> blocks, std::span<Word> out) override;
  Status do_write_many(std::span<const std::uint64_t> blocks,
                       std::span<const Word> in) override;
  std::size_t do_max_inflight() const override { return opts_.max_inflight; }
  Status do_begin_read_many(std::span<const std::uint64_t> blocks,
                            std::span<Word> out) override;
  Status do_begin_write_many(std::span<const std::uint64_t> blocks,
                             std::span<const Word> in) override;
  Status do_complete_oldest() override;

 private:
  /// One outstanding request frame awaiting its response.
  struct Pending {
    bool is_write = false;
    bool dead = false;  // connection died before the response arrived
    Word* dest = nullptr;
    std::size_t dest_words = 0;
  };

  /// Connect + HELLO when there is no live connection.  Refuses (kIo) while
  /// responses are still owed on a dead connection -- those must be failed
  /// out via complete_oldest first, so no response can be mis-matched.
  /// Honors (and on failure advances) the reconnect backoff schedule.
  Status ensure_connected() const;
  /// One connect + HELLO attempt, no backoff bookkeeping.
  Status try_connect() const;
  /// Records a failed connect attempt: grows the capped, jittered delay the
  /// next attempt must wait out.
  void note_connect_failure() const;
  /// Close the socket and mark every outstanding request dead.
  void kill_connection(const char* why) const;
  Status send_frame(wire::Op op, std::span<const std::uint64_t> head,
                    std::span<const Word> payload) const;
  /// Receives one response frame; an ok response must carry exactly
  /// `payload_dest.size()` words, copied out.
  Status recv_response(std::span<Word> payload_dest) const;
  /// Synchronous round trip with no outstanding pipeline traffic.
  Status rpc(wire::Op op, std::span<const std::uint64_t> head,
             std::span<const Word> payload, std::span<Word> response);
  /// Fails out any dead leftovers so a fresh synchronous op can reconnect.
  void drain_dead();

  RemoteBackendOptions opts_;
  mutable int fd_ = -1;
  mutable bool was_connected_ = false;
  mutable std::string last_error_;
  mutable std::deque<Pending> pending_;
  // Reconnect backoff state (mutable: health() const probes the connection).
  mutable unsigned connect_failures_ = 0;
  mutable std::chrono::steady_clock::time_point next_connect_at_{};
  std::uint64_t ping_token_ = 0;
  mutable std::uint64_t hello_token_ = 0;  // fresh per handshake (anti-replay)
  mutable std::atomic<std::uint64_t> round_trips_{0};
  mutable std::atomic<std::uint64_t> reconnects_{0};
  mutable std::atomic<std::uint64_t> backoff_waits_{0};
  mutable std::atomic<std::uint64_t> backoff_waited_us_{0};
};

/// Backend factory for a remote store.  With sharding, use the ShardFactory
/// form so each shard gets its own store id (and hence its own connection):
/// Session::Builder::remote does exactly that.
BackendFactory remote_backend(RemoteBackendOptions opts);

}  // namespace oem
