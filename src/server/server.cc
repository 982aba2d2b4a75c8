#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <utility>

namespace oem {

using wire::get_u64;
using wire::put_u64;

namespace {

void set_nonblocking(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl >= 0) ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

timespec until(std::chrono::steady_clock::time_point deadline,
               std::chrono::steady_clock::time_point now) {
  timespec ts{0, 0};
  if (deadline > now) {
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(deadline - now).count();
    ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  }
  return ts;
}

}  // namespace

// ---------------------------------------------------------------------------
// Setup / teardown.

RemoteServer::RemoteServer(RemoteServerOptions opts) : opts_(std::move(opts)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    init_status_ = Status::Io(std::string("remote server socket: ") + std::strerror(errno));
    return;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    init_status_ = Status::InvalidArgument("remote server host '" + opts_.host +
                                           "' is not an IPv4 address");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    init_status_ = Status::Io("remote server bind/listen on " + opts_.host + ":" +
                              std::to_string(opts_.port) + ": " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  socklen_t alen = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);

  std::size_t n = opts_.worker_threads;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  if (n > 64) n = 64;
  for (std::size_t i = 0; i < n; ++i) {
    auto w = std::make_unique<Worker>();
    int p[2];
    if (::pipe2(p, O_NONBLOCK | O_CLOEXEC) != 0) {
      init_status_ = Status::Io(std::string("remote server wake pipe: ") +
                                std::strerror(errno));
      for (auto& prev : workers_) {
        ::close(prev->wake_rd);
        ::close(prev->wake_wr);
      }
      workers_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return;
    }
    w->wake_rd = p[0];
    w->wake_wr = p[1];
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_)
    w->th = std::thread([this, raw = w.get()] { serve_loop(*raw); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

RemoteServer::~RemoteServer() { shutdown(); }

Status RemoteServer::shutdown() {
  if (shut_.exchange(true, std::memory_order_acq_rel))
    return Status::Ok();  // already shut down (idempotent)
  stop_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& w : workers_) wake(*w);
  for (auto& w : workers_) {
    if (w->th.joinable()) w->th.join();
    ::close(w->wake_rd);
    ::close(w->wake_wr);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  return flush_stores();
}

Status RemoteServer::flush_stores() {
  Status first;
  std::lock_guard<std::mutex> lk(stores_mu_);
  for (auto& [id, store] : stores_) {
    std::lock_guard<std::mutex> slk(store->mu);
    first.Update(store->backend->flush());
  }
  return first;
}

// ---------------------------------------------------------------------------
// Accept thread.

void RemoteServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load(std::memory_order_relaxed)) return;  // shut down
      // Transient accept failures (an aborted handshake, a brief fd or
      // buffer shortage during a reconnect storm) must not retire the
      // listener for good -- back off briefly and keep serving.
      const bool transient = errno == EINTR || errno == ECONNABORTED ||
                             errno == EMFILE || errno == ENFILE ||
                             errno == ENOBUFS || errno == ENOMEM ||
                             errno == EAGAIN || errno == EWOULDBLOCK;
      if (transient) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      return;  // listening socket is genuinely gone
    }
    if (stop_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    set_nonblocking(fd);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    Worker& w = *workers_[next_worker_++ % workers_.size()];
    {
      std::lock_guard<std::mutex> lk(w.mu);
      w.incoming.push_back(fd);
    }
    wake(w);
  }
}

void RemoteServer::wake(Worker& w) {
  const char b = 1;
  // A full pipe means a wake-up is already pending; EAGAIN is success here.
  [[maybe_unused]] const ssize_t r = ::write(w.wake_wr, &b, 1);
}

void RemoteServer::drop_connections() {
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->mu);
    // Only shutdown() here, never close(): the owning worker closes under
    // this same mutex when it retires the connection, so an fd number the
    // kernel recycled can never be hit.  Not-yet-adopted fds are dropped
    // the same way.
    for (auto& c : w->conns) ::shutdown(c->fd, SHUT_RDWR);
    for (int fd : w->incoming) ::shutdown(fd, SHUT_RDWR);
    wake(*w);
  }
}

// ---------------------------------------------------------------------------
// Stores.

Status RemoteServer::peek_store(std::uint64_t store_id, std::uint64_t block,
                                std::vector<Word>* out) {
  Store* store = nullptr;
  {
    std::lock_guard<std::mutex> lk(stores_mu_);
    auto it = stores_.find(store_id);
    if (it == stores_.end())
      return Status::InvalidArgument("peek_store: unknown store " +
                                     std::to_string(store_id));
    store = it->second.get();
  }
  std::lock_guard<std::mutex> lk(store->mu);
  out->assign(store->backend->block_words(), 0);
  return store->backend->read(block, *out);
}

Status RemoteServer::poke_store(std::uint64_t store_id, std::uint64_t block,
                                std::span<const Word> in) {
  Store* store = nullptr;
  {
    std::lock_guard<std::mutex> lk(stores_mu_);
    auto it = stores_.find(store_id);
    if (it == stores_.end())
      return Status::InvalidArgument("poke_store: unknown store " +
                                     std::to_string(store_id));
    store = it->second.get();
  }
  std::lock_guard<std::mutex> lk(store->mu);
  if (in.size() != store->backend->block_words())
    return Status::InvalidArgument("poke_store: wrong block size");
  return store->backend->write(block, in);
}

Result<RemoteServer::Store*> RemoteServer::bind_store(std::uint64_t store_id,
                                                      std::uint64_t block_words) {
  // A block must fit many times over into one frame, or no batched op could
  // ever be served; the bound also keeps a hostile HELLO from sizing
  // staging/stores by 2^60-word blocks.
  if (block_words < 1 || block_words > wire::kMaxFrameBytes / sizeof(Word) / 64)
    return Status::InvalidArgument("HELLO: block_words " +
                                   std::to_string(block_words) + " out of range");
  std::lock_guard<std::mutex> lk(stores_mu_);
  auto it = stores_.find(store_id);
  if (it != stores_.end()) {
    if (it->second->backend->block_words() != block_words)
      return Status::InvalidArgument(
          "HELLO: store " + std::to_string(store_id) + " already serves block_words=" +
          std::to_string(it->second->backend->block_words()) + ", client asked for " +
          std::to_string(block_words));
    return it->second.get();
  }
  auto store = std::make_unique<Store>();
  const auto bw = static_cast<std::size_t>(block_words);
  store->backend = opts_.store_factory_by_id ? opts_.store_factory_by_id(store_id, bw)
                   : opts_.store_factory     ? opts_.store_factory(bw)
                                             : std::make_unique<MemBackend>(bw);
  Status health = store->backend->health();
  if (!health.ok()) return health;
  Store* raw = store.get();
  stores_.emplace(store_id, std::move(store));
  return raw;
}

// ---------------------------------------------------------------------------
// Worker loop.

void RemoteServer::serve_loop(Worker& w) {
#ifdef __linux__
  // Default timer slack rounds short ppoll timeouts up by ~50us; that skew
  // would land on every simulated response delay.  1us keeps them honest.
  ::prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);
#endif
  std::vector<pollfd> pfds;
  std::vector<Conn*> polled;
  bool draining = false;
  Clock::time_point drain_deadline{};

  for (;;) {
    // Adopt newly accepted connections.
    {
      std::lock_guard<std::mutex> lk(w.mu);
      for (int fd : w.incoming) {
        auto c = std::make_unique<Conn>();
        c->fd = fd;
        c->last_activity = Clock::now();
        w.conns.push_back(std::move(c));
      }
      w.incoming.clear();
    }

    if (!draining && stop_.load(std::memory_order_acquire)) {
      // Graceful drain: every fully-received frame was already dispatched
      // (dispatch happens as frames arrive), so all that remains is pushing
      // queued responses out.  Remaining simulated propagation delay is
      // waived -- shutdown must not hang clients for response_delay_ns per
      // queued frame -- and a bounded deadline keeps a wedged peer from
      // holding the process open.
      draining = true;
      drain_deadline = Clock::now() + std::chrono::seconds(2);
      for (auto& c : w.conns)
        for (OutFrame& f : c->out) f.due = Clock::time_point{};
    }

    auto now = Clock::now();

    // Push due responses; a send error retires the connection.
    for (auto& c : w.conns)
      if (!c->dead && !flush_out(*c, now)) c->dead = true;

    // Idle eviction (PINGs and any other frame reset last_activity).
    if (opts_.idle_timeout_ms > 0 && !draining) {
      const auto idle = std::chrono::milliseconds(opts_.idle_timeout_ms);
      for (auto& c : w.conns)
        if (!c->dead && now - c->last_activity > idle) {
          c->dead = true;
          evicted_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    // Retire dead connections.  close() under the worker mutex: once close
    // returns the kernel may recycle the fd number, and drop_connections
    // (which walks this list under the same mutex) must never shutdown() a
    // descriptor this server no longer owns.
    {
      std::lock_guard<std::mutex> lk(w.mu);
      std::erase_if(w.conns, [](const std::unique_ptr<Conn>& c) {
        if (!c->dead) return false;
        ::close(c->fd);
        return true;
      });
    }

    if (draining) {
      bool flushed = true;
      for (auto& c : w.conns)
        if (!c->out.empty()) {
          flushed = false;
          break;
        }
      if (flushed || Clock::now() > drain_deadline) {
        std::lock_guard<std::mutex> lk(w.mu);
        for (auto& c : w.conns) ::close(c->fd);
        w.conns.clear();
        for (int fd : w.incoming) ::close(fd);
        w.incoming.clear();
        return;
      }
    }

    // Build the poll set: the wake pipe, every live socket for input (unless
    // draining), and for output while a due response is still queued.  The
    // timeout lands on the nearest deadline: a response coming due, an idle
    // eviction, or a coarse housekeeping tick.
    now = Clock::now();
    auto wake_at = now + (draining ? std::chrono::milliseconds(2)
                                   : std::chrono::milliseconds(100));
    pfds.clear();
    polled.clear();
    pfds.push_back({w.wake_rd, POLLIN, 0});
    polled.push_back(nullptr);
    for (auto& c : w.conns) {
      short ev = draining ? 0 : POLLIN;
      if (!c->out.empty()) {
        if (c->out.front().due <= now)
          ev |= POLLOUT;
        else if (c->out.front().due < wake_at)
          wake_at = c->out.front().due;
      }
      if (opts_.idle_timeout_ms > 0 && !draining) {
        const auto deadline =
            c->last_activity + std::chrono::milliseconds(opts_.idle_timeout_ms);
        if (deadline < wake_at) wake_at = deadline;
      }
      pfds.push_back({c->fd, ev, 0});
      polled.push_back(c.get());
    }
    const timespec ts = until(wake_at, now);
    ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);

    if (pfds[0].revents & POLLIN) {
      char sink[64];
      while (::read(w.wake_rd, sink, sizeof(sink)) > 0) {
      }
    }
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      Conn* c = polled[i];
      if (c->dead) continue;
      if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Let a final pump observe whatever the peer left behind; EOF or a
        // hard error then retires the connection.
        if (draining || !pump_in(*c)) c->dead = true;
        continue;
      }
      if (!draining && (pfds[i].revents & POLLIN) && !pump_in(*c)) c->dead = true;
    }
  }
}

bool RemoteServer::pump_in(Conn& c) {
  for (;;) {
    std::uint8_t chunk[64 * 1024];
    const ssize_t got = ::recv(c.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    if (got == 0) return false;  // peer closed
    c.last_activity = Clock::now();
    c.in.insert(c.in.end(), chunk, chunk + got);
    if (!drain_frames(c)) return false;
    // A short read usually means the socket is drained; yield to the next
    // connection and let ppoll re-arm rather than spinning on one peer.
    if (static_cast<std::size_t>(got) < sizeof(chunk)) return true;
  }
}

bool RemoteServer::drain_frames(Conn& c) {
  std::size_t off = 0;
  for (;;) {
    if (c.in.size() - off < sizeof(std::uint64_t)) break;
    const std::uint64_t len = get_u64(c.in.data() + off);
    if (len < sizeof(std::uint64_t) || len > wire::kMaxFrameBytes) return false;
    if (c.in.size() - off < sizeof(std::uint64_t) + len) break;  // partial: keep buffering
    if (!handle_frame(c, c.in.data() + off + sizeof(std::uint64_t),
                      static_cast<std::size_t>(len)))
      return false;
    off += sizeof(std::uint64_t) + static_cast<std::size_t>(len);
  }
  if (off > 0) c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
  return true;
}

void RemoteServer::enqueue_response(Conn& c, std::vector<std::uint8_t> body) {
  OutFrame f;
  if (opts_.response_delay_ns > 0)
    f.due = Clock::now() + std::chrono::nanoseconds(opts_.response_delay_ns);
  f.bytes.reserve(sizeof(std::uint64_t) + body.size());
  put_u64(f.bytes, body.size());
  f.bytes.insert(f.bytes.end(), body.begin(), body.end());
  c.out.push_back(std::move(f));
}

bool RemoteServer::flush_out(Conn& c, Clock::time_point now) {
  while (!c.out.empty() && c.out.front().due <= now) {
    OutFrame& f = c.out.front();
    while (f.sent < f.bytes.size()) {
      const ssize_t put = ::send(c.fd, f.bytes.data() + f.sent, f.bytes.size() - f.sent,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
      if (put < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // resume on POLLOUT
        return false;
      }
      f.sent += static_cast<std::size_t>(put);
    }
    c.out.pop_front();
  }
  return true;
}

// ---------------------------------------------------------------------------
// Frame dispatch (one connection's frames arrive here strictly in order).

bool RemoteServer::handle_frame(Conn& c, const std::uint8_t* p, std::size_t n) {
  const std::uint64_t frame_no = frames_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Crash injection: die ABRUPTLY at the top of dispatch -- the frame is
  // never applied, nothing is flushed, no destructor runs.  _exit, not
  // abort: the harness asserts the distinct exit code, and no cleanup may
  // soften the crash into a graceful shutdown.
  if (opts_.crash_at_frames > 0 && frame_no >= opts_.crash_at_frames)
    ::_exit(kCrashExitCode);
  const auto op = static_cast<wire::Op>(get_u64(p));
  std::vector<std::uint8_t> resp;
  auto fields = [&](std::size_t k) { return n >= (k + 1) * sizeof(std::uint64_t); };

  if (op == wire::Op::kHello) {
    // Version is policed before the v3 frame shape: an older client's HELLO
    // is legitimately shorter, and it deserves a version diagnosis, not a
    // dropped connection.
    if (!fields(2)) return false;  // malformed: drop the connection
    const std::uint64_t version = get_u64(p + 8);
    if (version != wire::kProtocolVersion) {
      resp = wire::make_response(Status::InvalidArgument(
          "HELLO: protocol version " + std::to_string(version) + " unsupported, server speaks " +
          std::to_string(wire::kProtocolVersion)));
      enqueue_response(c, std::move(resp));
      return true;
    }
    if (!fields(5)) return false;  // malformed: drop the connection
    const std::uint64_t store_id = get_u64(p + 16);
    const std::uint64_t block_words = get_u64(p + 24);
    const std::uint64_t token = get_u64(p + 32);
    const std::uint64_t tag = get_u64(p + 40);
    if (tag != wire::control_mac(opts_.auth_key, wire::kMacHelloReq,
                                 {version, store_id, block_words, token})) {
      resp = wire::make_response(Status::Integrity(
          "HELLO authentication failed: wrong wire auth key, or a spoofed "
          "handshake"));
    } else {
      auto bound = bind_store(store_id, block_words);
      if (bound.ok()) {
        c.store = *bound;
        resp = wire::make_response(Status::Ok());
        put_u64(resp, wire::kProtocolVersion);
        std::uint64_t num_blocks = 0;
        {
          std::lock_guard<std::mutex> lk(c.store->mu);
          num_blocks = c.store->backend->num_blocks();
        }
        put_u64(resp, num_blocks);
        put_u64(resp, wire::control_mac(opts_.auth_key, wire::kMacHelloResp,
                                        {token, wire::kProtocolVersion, num_blocks}));
      } else {
        resp = wire::make_response(bound.status());
      }
    }
  } else if (op == wire::Op::kPing) {
    // Connection-level keep-alive: legal before HELLO, echoes the token.
    // Authenticated both ways since v3, so an attacker can neither forge
    // keep-alives (holding an idle eviction open) nor spoof our answer.
    if (!fields(2)) return false;
    const std::uint64_t token = get_u64(p + 8);
    if (get_u64(p + 16) !=
        wire::control_mac(opts_.auth_key, wire::kMacPingReq, {token})) {
      resp = wire::make_response(
          Status::Integrity("PING authentication failed"));
    } else {
      pings_.fetch_add(1, std::memory_order_relaxed);
      resp = wire::make_response(Status::Ok());
      put_u64(resp, token);
      put_u64(resp, wire::control_mac(opts_.auth_key, wire::kMacPingResp, {token}));
    }
  } else if (c.store == nullptr) {
    resp = wire::make_response(Status::InvalidArgument("data op before HELLO"));
  } else if (op == wire::Op::kReadMany || op == wire::Op::kWriteMany) {
    if (!fields(1)) return false;
    const std::uint64_t count = get_u64(p + 8);
    const std::size_t bw = c.store->backend->block_words();
    // Both the write REQUEST (op, count, ids, payload) and the read
    // RESPONSE (status, payload) must fit under the frame cap, so the
    // batch bound covers ids + payload per block: a wire-supplied count
    // can never size an allocation past kMaxFrameBytes, and a batch that
    // passes this check always yields a sendable response.
    if (count > (wire::kMaxFrameBytes - 2 * sizeof(std::uint64_t)) /
                    (sizeof(std::uint64_t) + bw * sizeof(Word)))
      return false;
    const std::size_t head = 2 * sizeof(std::uint64_t) + count * sizeof(std::uint64_t);
    const std::size_t data_words =
        op == wire::Op::kWriteMany ? static_cast<std::size_t>(count) * bw : 0;
    if (n != head + data_words * sizeof(Word)) return false;
    // Simulated service time: the worker is OCCUPIED for the duration, so
    // capacity scales with the worker pool, not with the connection count.
    if (opts_.service_delay_ns > 0)
      std::this_thread::sleep_for(std::chrono::nanoseconds(opts_.service_delay_ns));
    std::vector<std::uint64_t> ids(count);
    std::memcpy(ids.data(), p + 16, count * sizeof(std::uint64_t));
    std::lock_guard<std::mutex> lk(c.store->mu);
    if (op == wire::Op::kReadMany) {
      std::vector<Word> words(static_cast<std::size_t>(count) * bw);
      Status st = c.store->backend->read_many(ids, words);
      resp = wire::make_response(st);
      if (st.ok()) {
        const std::size_t at = resp.size();
        resp.resize(at + words.size() * sizeof(Word));
        std::memcpy(resp.data() + at, words.data(), words.size() * sizeof(Word));
      }
    } else {
      std::vector<Word> words(data_words);
      std::memcpy(words.data(), p + head, data_words * sizeof(Word));
      resp = wire::make_response(c.store->backend->write_many(ids, words));
    }
  } else if (op == wire::Op::kResize) {
    if (!fields(1)) return false;
    std::lock_guard<std::mutex> lk(c.store->mu);
    // A hostile nblocks must come back as an error frame, not a
    // bad_alloc/length_error escaping the worker thread (terminate).
    try {
      resp = wire::make_response(c.store->backend->resize(get_u64(p + 8)));
    } catch (const std::exception& e) {
      resp = wire::make_response(Status::Io(std::string("RESIZE failed: ") + e.what()));
    }
  } else if (op == wire::Op::kStat) {
    resp = wire::make_response(Status::Ok());
    std::lock_guard<std::mutex> lk(c.store->mu);
    put_u64(resp, c.store->backend->num_blocks());
    put_u64(resp, c.store->backend->block_words());
  } else {
    resp = wire::make_response(
        Status::InvalidArgument("unknown op " + std::to_string(get_u64(p))));
  }
  enqueue_response(c, std::move(resp));
  return true;
}

}  // namespace oem
