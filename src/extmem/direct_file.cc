// DirectFileBackend: O_DIRECT block storage on a raw io_uring.
//
// No liburing: the ring is set up with the two io_uring syscalls and driven
// through the mmapped submission/completion queues directly, with the
// acquire/release fences the kernel ABI requires.  This keeps the container
// dependency-free and the moving parts visible:
//
//   io_uring_setup(256, CQSIZE=4096)      one ring per backend instance
//   mmap SQ ring / CQ ring / SQE array    (single mmap when the kernel
//                                          advertises IORING_FEAT_SINGLE_MMAP)
//   submit:  fill SQE, sq_array[tail&mask]=idx, release-store sq_tail,
//            io_uring_enter(to_submit)
//   reap:    acquire-load cq_tail, read cqes[head&mask], release-store cq_head
//
// Layout: block b occupies the byte range [b*slot_bytes, (b+1)*slot_bytes)
// where slot_bytes rounds the payload up to the direct-I/O alignment, so
// every transfer's offset/length/address alignment holds by construction
// (bounce buffers come from the 4096-aligned staging arena).  user_data
// packs (frame serial << 32) | expected_byte_len so completions can be
// credited to their frame and short transfers detected without a per-SQE
// side table.
#include "extmem/backend.h"

#include <fcntl.h>
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "extmem/arena.h"
#include "extmem/io_engine.h"

namespace oem {

namespace {

std::string errno_string(const char* what, const std::string& path) {
  return std::string(what) + " '" + path + "': " + std::strerror(errno);
}

int sys_uring_setup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int sys_uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags, nullptr, 0));
}

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

// Cap one SQE's transfer so the byte length always fits the 32 bits we give
// it in user_data (and stays well under the kernel's per-op limits).
constexpr std::size_t kMaxSqeBytes = 1u << 30;

}  // namespace

// ---------------------------------------------------------------------------
// Ring: the mmapped io_uring views.

struct DirectFileBackend::Ring {
  int fd = -1;
  unsigned sq_entries = 0;
  std::size_t depth = 8;  // advertised max_inflight
  void* sq_mmap = nullptr;
  std::size_t sq_sz = 0;
  void* cq_mmap = nullptr;  // == sq_mmap under IORING_FEAT_SINGLE_MMAP
  std::size_t cq_sz = 0;
  void* sqe_mmap = nullptr;
  std::size_t sqe_sz = 0;
  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned sq_mask = 0;
  unsigned* sq_array = nullptr;
  io_uring_sqe* sqes = nullptr;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned cq_mask = 0;
  io_uring_cqe* cqes = nullptr;
  unsigned to_submit = 0;                          // queued since last enter
  std::atomic<std::uint64_t>* sqe_counter = nullptr;

  ~Ring() {
    if (sqe_mmap != nullptr) ::munmap(sqe_mmap, sqe_sz);
    if (cq_mmap != nullptr && cq_mmap != sq_mmap) ::munmap(cq_mmap, cq_sz);
    if (sq_mmap != nullptr) ::munmap(sq_mmap, sq_sz);
    if (fd >= 0) ::close(fd);
  }

  /// Pushes queued SQEs to the kernel (non-SQPOLL: enter consumes them all).
  Status flush() {
    while (to_submit > 0) {
      const int n = sys_uring_enter(fd, to_submit, 0, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Io(std::string("io_uring_enter(submit): ") +
                          std::strerror(errno));
      }
      to_submit -= static_cast<unsigned>(n);
      if (sqe_counter != nullptr)
        sqe_counter->fetch_add(static_cast<std::uint64_t>(n),
                               std::memory_order_relaxed);
    }
    return Status::Ok();
  }

  /// Queues one SQE, flushing first when the submission queue is full.
  Status push(std::uint8_t opcode, void* buf, std::uint32_t len, std::uint64_t off,
              std::uint64_t user_data, int file_fd) {
    unsigned tail = *sq_tail;  // single submitter: only we advance it
    if (tail - __atomic_load_n(sq_head, __ATOMIC_ACQUIRE) >= sq_entries)
      OEM_RETURN_IF_ERROR(flush());  // enter() consumed the queue
    const unsigned idx = tail & sq_mask;
    io_uring_sqe& sqe = sqes[idx];
    std::memset(&sqe, 0, sizeof(sqe));
    sqe.opcode = opcode;
    sqe.fd = file_fd;
    sqe.addr = reinterpret_cast<std::uint64_t>(buf);
    sqe.len = len;
    sqe.off = off;
    sqe.user_data = user_data;
    sq_array[idx] = idx;
    __atomic_store_n(sq_tail, tail + 1, __ATOMIC_RELEASE);
    ++to_submit;
    return Status::Ok();
  }

  bool pop_cqe(io_uring_cqe* out) {
    const unsigned head = *cq_head;  // single reaper
    if (head == __atomic_load_n(cq_tail, __ATOMIC_ACQUIRE)) return false;
    *out = cqes[head & cq_mask];
    __atomic_store_n(cq_head, head + 1, __ATOMIC_RELEASE);
    return true;
  }

  Status wait_cqe() {
    while (true) {
      const int n = sys_uring_enter(fd, 0, 1, IORING_ENTER_GETEVENTS);
      if (n >= 0) return Status::Ok();
      if (errno == EINTR) continue;
      return Status::Io(std::string("io_uring_enter(wait): ") +
                        std::strerror(errno));
    }
  }
};

// ---------------------------------------------------------------------------
// Frame: one begun batch.

struct DirectFileBackend::Frame {
  std::uint64_t serial = 0;
  bool is_read = false;
  Word* dest = nullptr;                  // reads: caller's scatter destination
  std::size_t nblocks = 0;
  ArenaBuffer bounce;                    // slot-strided payload staging
  unsigned outstanding = 0;              // CQEs not yet reaped
  Status result;                         // first per-CQE failure
  std::vector<std::uint64_t> ids;        // sorted block ids (overlap/duplicate checks)
};

// ---------------------------------------------------------------------------
// Setup / teardown.

bool DirectFileBackend::kernel_supports_uring() {
  io_uring_params p;
  std::memset(&p, 0, sizeof(p));
  const int fd = sys_uring_setup(4, &p);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

DirectFileBackend::DirectFileBackend(std::size_t block_words, DirectFileOptions opts)
    : StorageBackend(block_words) {
  bool temp_path = opts.path.empty();
  if (temp_path) {
    const char* tmpdir = std::getenv("TMPDIR");
    std::string templ =
        std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") + "/oem_direct_XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    const int tfd = ::mkstemp(buf.data());
    if (tfd < 0) {
      init_status_ = Status::Io(errno_string("mkstemp", templ));
      return;
    }
    ::close(tfd);  // reopened below with O_DIRECT
    path_ = buf.data();
  } else {
    path_ = opts.path;
  }
  Status direct = setup_direct_path(std::max<std::size_t>(1, opts.queue_depth),
                                    /*preserve=*/!temp_path && opts.keep_file);
  if (direct.ok()) {
    ring_live_ = true;
    unlink_on_close_ = temp_path || !opts.keep_file;
    return;
  }
  // Graceful fallback: the threaded engine on the same path.  FileBackend
  // owns the file lifecycle from here (including unlinking), so this object
  // must not unlink it again.
  teardown_ring();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  FileBackendOptions fopts;
  fopts.path = path_;
  fopts.keep_file = temp_path ? false : opts.keep_file;
  fallback_ = std::make_unique<AsyncBackend>(
      std::make_unique<FileBackend>(block_words, fopts));
  init_status_ = fallback_->health();
}

DirectFileBackend::~DirectFileBackend() {
  if (ring_live_) {
    // Begun frames left behind are abandoned, but their CQEs must not land
    // after the bounce buffers die: wait them out.
    while (!inflight_.empty()) {
      auto f = std::move(inflight_.front());
      inflight_.pop_front();
      (void)await_frame(*f);
    }
  }
  teardown_ring();
  if (fd_ >= 0) ::close(fd_);
  if (unlink_on_close_ && !path_.empty()) ::unlink(path_.c_str());
}

void DirectFileBackend::teardown_ring() { ring_.reset(); }

Status DirectFileBackend::setup_direct_path(std::size_t queue_depth,
                                            bool preserve) {
  // keep_file stores are durable across processes: reuse what is on disk.
  const int trunc = preserve ? 0 : O_TRUNC;
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | trunc | O_DIRECT, 0600);
  if (fd_ < 0) return Status::Io(errno_string("open(O_DIRECT)", path_));

  // Alignment discovery: the kernel reports per-file direct-I/O constraints
  // via statx(STATX_DIOALIGN) on 6.1+; older kernels (or filesystems that
  // leave the fields zero) get the conservative 4096.
  std::size_t mem_align = 4096, off_align = 4096;
#ifdef STATX_DIOALIGN
  {
    struct statx stx;
    std::memset(&stx, 0, sizeof(stx));
    if (::statx(fd_, "", AT_EMPTY_PATH, STATX_DIOALIGN, &stx) == 0 &&
        (stx.stx_mask & STATX_DIOALIGN) != 0 && stx.stx_dio_offset_align > 0 &&
        stx.stx_dio_mem_align > 0) {
      off_align = stx.stx_dio_offset_align;
      mem_align = stx.stx_dio_mem_align;
    }
  }
#endif
  if (mem_align > 4096)
    return Status::Io("direct I/O wants " + std::to_string(mem_align) +
                      "-byte buffers, beyond the staging arena's 4096");
  // Slots must align offsets AND keep every slot start mem-aligned inside
  // the bounce buffer, so round to the larger of the two constraints.
  slot_bytes_ = round_up(block_words() * sizeof(Word),
                         std::max({off_align, mem_align, std::size_t{512}}));

  ring_ = std::make_unique<Ring>();
  Ring& r = *ring_;
  r.depth = queue_depth;
  r.sqe_counter = &sqes_;
  io_uring_params p;
  std::memset(&p, 0, sizeof(p));
  p.flags = IORING_SETUP_CQSIZE;
  // Deep CQ: one frame can fan out into many SQEs (one per id run), and
  // several frames ride in flight; modern kernels also buffer overflow
  // internally (IORING_FEAT_NODROP), so this is slack, not a correctness
  // ceiling.
  p.cq_entries = 4096;
  r.fd = sys_uring_setup(256, &p);
  if (r.fd < 0)
    return Status::Io(std::string("io_uring_setup: ") + std::strerror(errno));
  r.sq_entries = p.sq_entries;
  r.sq_sz = p.sq_off.array + p.sq_entries * sizeof(unsigned);
  r.cq_sz = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
  const bool single = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single) r.sq_sz = r.cq_sz = std::max(r.sq_sz, r.cq_sz);
  r.sq_mmap = ::mmap(nullptr, r.sq_sz, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, r.fd, IORING_OFF_SQ_RING);
  if (r.sq_mmap == MAP_FAILED) {
    r.sq_mmap = nullptr;
    return Status::Io("io_uring: mmap SQ ring failed");
  }
  if (single) {
    r.cq_mmap = r.sq_mmap;
  } else {
    r.cq_mmap = ::mmap(nullptr, r.cq_sz, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_POPULATE, r.fd, IORING_OFF_CQ_RING);
    if (r.cq_mmap == MAP_FAILED) {
      r.cq_mmap = nullptr;
      return Status::Io("io_uring: mmap CQ ring failed");
    }
  }
  r.sqe_sz = p.sq_entries * sizeof(io_uring_sqe);
  r.sqe_mmap = ::mmap(nullptr, r.sqe_sz, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, r.fd, IORING_OFF_SQES);
  if (r.sqe_mmap == MAP_FAILED) {
    r.sqe_mmap = nullptr;
    return Status::Io("io_uring: mmap SQE array failed");
  }
  auto* sqp = static_cast<char*>(r.sq_mmap);
  r.sq_head = reinterpret_cast<unsigned*>(sqp + p.sq_off.head);
  r.sq_tail = reinterpret_cast<unsigned*>(sqp + p.sq_off.tail);
  r.sq_mask = *reinterpret_cast<unsigned*>(sqp + p.sq_off.ring_mask);
  r.sq_array = reinterpret_cast<unsigned*>(sqp + p.sq_off.array);
  r.sqes = static_cast<io_uring_sqe*>(r.sqe_mmap);
  auto* cqp = static_cast<char*>(r.cq_mmap);
  r.cq_head = reinterpret_cast<unsigned*>(cqp + p.cq_off.head);
  r.cq_tail = reinterpret_cast<unsigned*>(cqp + p.cq_off.tail);
  r.cq_mask = *reinterpret_cast<unsigned*>(cqp + p.cq_off.ring_mask);
  r.cqes = reinterpret_cast<io_uring_cqe*>(cqp + p.cq_off.cqes);

  // End-to-end probe: one slot written and read back through the ring, so a
  // filesystem that accepted O_DIRECT at open but rejects it per-op (or a
  // ring the kernel rejects per-op, e.g. seccomp) falls back here and never
  // mid-workload.  The probe slot is the first one past the file's current
  // end, and the file is cut back to that end afterwards, so a preserved
  // (keep_file) store's blocks survive the probe untouched.
  struct stat st;
  if (::fstat(fd_, &st) != 0) return Status::Io(errno_string("fstat", path_));
  const off_t kept = st.st_size;
  const std::uint64_t probe = (static_cast<std::uint64_t>(kept) + slot_bytes_ - 1) /
                              slot_bytes_;
  const std::size_t slot_words = slot_bytes_ / sizeof(Word);
  if (::ftruncate(fd_, static_cast<off_t>((probe + 1) * slot_bytes_)) != 0)
    return Status::Io(errno_string("ftruncate", path_));
  const std::uint64_t ids[1] = {probe};
  Frame wf;
  wf.serial = next_frame_serial_++;
  wf.is_read = false;
  wf.bounce.resize(slot_words);
  for (std::size_t w = 0; w < slot_words; ++w)
    wf.bounce[w] = 0x9e3779b97f4a7c15ULL ^ w;
  OEM_RETURN_IF_ERROR(submit_frame(wf, std::span<const std::uint64_t>(ids, 1)));
  OEM_RETURN_IF_ERROR(await_frame(wf));
  OEM_RETURN_IF_ERROR(wf.result);
  Frame rf;
  rf.serial = next_frame_serial_++;
  rf.is_read = true;
  rf.bounce.resize(slot_words);
  std::memset(rf.bounce.data(), 0, slot_bytes_);
  OEM_RETURN_IF_ERROR(submit_frame(rf, std::span<const std::uint64_t>(ids, 1)));
  OEM_RETURN_IF_ERROR(await_frame(rf));
  OEM_RETURN_IF_ERROR(rf.result);
  for (std::size_t w = 0; w < slot_words; ++w)
    if (rf.bounce[w] != (0x9e3779b97f4a7c15ULL ^ w))
      return Status::Io("io_uring O_DIRECT probe read back wrong bytes");
  if (::ftruncate(fd_, kept) != 0) return Status::Io(errno_string("ftruncate", path_));
  return Status::Ok();
}

Status DirectFileBackend::health() const {
  if (!init_status_.ok()) return init_status_;
  return fallback_ != nullptr ? fallback_->health() : Status::Ok();
}

std::size_t DirectFileBackend::do_max_inflight() const {
  return ring_live_ ? ring_->depth : fallback_->max_inflight();
}

// ---------------------------------------------------------------------------
// Submission / completion plumbing.

Status DirectFileBackend::submit_frame(Frame& f,
                                       std::span<const std::uint64_t> blocks) {
  Ring& r = *ring_;
  const std::size_t slot_words = slot_bytes_ / sizeof(Word);
  const std::uint8_t opcode = f.is_read ? IORING_OP_READ : IORING_OP_WRITE;
  for (std::size_t i = 0; i < blocks.size();) {
    std::size_t run = 1;
    while (i + run < blocks.size() && blocks[i + run] == blocks[i] + run &&
           (run + 1) * slot_bytes_ <= kMaxSqeBytes)
      ++run;
    const std::uint32_t len = static_cast<std::uint32_t>(run * slot_bytes_);
    const std::uint64_t user_data = (f.serial << 32) | len;
    OEM_RETURN_IF_ERROR(r.push(opcode, f.bounce.data() + i * slot_words, len,
                               blocks[i] * slot_bytes_, user_data, fd_));
    ++f.outstanding;
    // Reap anything already done so a huge frame cannot sit on a full CQ.
    io_uring_cqe cqe;
    while (r.pop_cqe(&cqe))
      OEM_RETURN_IF_ERROR(credit_cqe(cqe.user_data, cqe.res, &f));
    i += run;
  }
  return r.flush();
}

/// Credits one already-popped CQE to its frame (matched by the serial in
/// user_data; `extra` covers frames not in the inflight_ deque -- sync ops
/// and the construction probe).  A CQE for an abandoned frame is dropped.
Status DirectFileBackend::credit_cqe(std::uint64_t user_data, std::int32_t res,
                                     Frame* extra) {
  const std::uint64_t serial = user_data >> 32;
  const std::uint32_t want = static_cast<std::uint32_t>(user_data);
  Frame* f = extra != nullptr && extra->serial == serial ? extra : nullptr;
  if (f == nullptr)
    for (auto& p : inflight_)
      if (p->serial == serial) {
        f = p.get();
        break;
      }
  if (f == nullptr) return Status::Ok();  // abandoned frame's CQE
  if (f->outstanding > 0) --f->outstanding;
  if (res < 0)
    f->result.Update(Status::Io(std::string("direct ") +
                                (f->is_read ? "read" : "write") + " '" + path_ +
                                "': " + std::strerror(-res)));
  else if (static_cast<std::uint32_t>(res) != want)
    f->result.Update(Status::Io("short direct transfer on '" + path_ +
                                "' (file truncated externally?)"));
  return Status::Ok();
}

Status DirectFileBackend::reap_one(bool wait, Frame* extra) {
  Ring& r = *ring_;
  io_uring_cqe cqe;
  while (!r.pop_cqe(&cqe)) {
    if (!wait) return Status::Ok();
    OEM_RETURN_IF_ERROR(r.wait_cqe());
  }
  return credit_cqe(cqe.user_data, cqe.res, extra);
}

Status DirectFileBackend::await_frame(Frame& f) {
  OEM_RETURN_IF_ERROR(ring_->flush());
  while (f.outstanding > 0) OEM_RETURN_IF_ERROR(reap_one(true, &f));
  return Status::Ok();
}

void DirectFileBackend::scatter_read(Frame& f) {
  const std::size_t bw = block_words();
  const std::size_t slot_words = slot_bytes_ / sizeof(Word);
  for (std::size_t i = 0; i < f.nblocks; ++i)
    std::memcpy(f.dest + i * bw, f.bounce.data() + i * slot_words,
                bw * sizeof(Word));
}

Status DirectFileBackend::order_after_inflight(Frame& f,
                                               std::span<const std::uint64_t> blocks) {
  f.ids.assign(blocks.begin(), blocks.end());
  std::sort(f.ids.begin(), f.ids.end());
  for (const auto& p : inflight_) {
    if (f.is_read && p->is_read) continue;
    auto a = f.ids.begin();
    auto b = p->ids.begin();
    while (a != f.ids.end() && b != p->ids.end()) {
      if (*a < *b) ++a;
      else if (*b < *a) ++b;
      else return drain_inflight();
    }
  }
  return Status::Ok();
}

void DirectFileBackend::stage_write(Frame& f, std::span<const std::uint64_t> blocks,
                                    std::span<const Word> in) {
  const std::size_t bw = block_words();
  const std::size_t slot_words = slot_bytes_ / sizeof(Word);
  // The SQEs of one frame also run in no set order: when an id repeats,
  // every slot for it carries the last occurrence's bytes, so whichever SQE
  // lands last leaves the batch's defined result.
  std::unordered_map<std::uint64_t, std::size_t> last;
  if (std::adjacent_find(f.ids.begin(), f.ids.end()) != f.ids.end())
    for (std::size_t i = 0; i < blocks.size(); ++i) last[blocks[i]] = i;
  f.bounce.resize(blocks.size() * slot_words);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::size_t src = last.empty() ? i : last[blocks[i]];
    Word* slot = f.bounce.data() + i * slot_words;
    std::memcpy(slot, in.data() + src * bw, bw * sizeof(Word));
    // Zero the slot padding: a recycled arena buffer may hold another
    // layer's stale plaintext, which must never reach the (untrusted) store.
    if (slot_words > bw) std::memset(slot + bw, 0, (slot_words - bw) * sizeof(Word));
  }
}

Status DirectFileBackend::drain_inflight() {
  while (!inflight_.empty()) {
    auto f = std::move(inflight_.front());
    inflight_.pop_front();
    Status st = await_frame(*f);
    if (st.ok()) st = f->result;
    // A drained read's destination is still valid by contract (it must
    // outlive the matching complete_oldest), so deliver the bytes now and
    // hand the status over when that complete_oldest arrives.
    if (st.ok() && f->is_read) scatter_read(*f);
    completed_early_.push_back(st);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// StorageBackend face.

Status DirectFileBackend::flush() {
  if (!init_status_.ok()) return init_status_;
  if (!ring_live_) return fallback_->flush();
  OEM_RETURN_IF_ERROR(drain_inflight());
  if (::fsync(fd_) != 0) return Status::Io(errno_string("fsync", path_));
  return Status::Ok();
}

Status DirectFileBackend::do_resize(std::uint64_t nblocks) {
  if (!ring_live_) return fallback_->resize(nblocks);
  OEM_RETURN_IF_ERROR(drain_inflight());
  // Holes read back as zeros, so grown (or shrunk-then-regrown) blocks keep
  // the fresh-blocks-are-zero contract for free.
  if (::ftruncate(fd_, static_cast<off_t>(nblocks * slot_bytes_)) != 0)
    return Status::Io(errno_string("ftruncate", path_));
  return Status::Ok();
}

Status DirectFileBackend::do_read_many(std::span<const std::uint64_t> blocks,
                                       std::span<Word> out) {
  if (!ring_live_) return fallback_->read_many(blocks, out);
  OEM_RETURN_IF_ERROR(drain_inflight());
  Frame f;
  f.serial = next_frame_serial_++;
  f.is_read = true;
  f.dest = out.data();
  f.nblocks = blocks.size();
  f.bounce.resize(blocks.size() * (slot_bytes_ / sizeof(Word)));
  OEM_RETURN_IF_ERROR(submit_frame(f, blocks));
  OEM_RETURN_IF_ERROR(await_frame(f));
  OEM_RETURN_IF_ERROR(f.result);
  scatter_read(f);
  return Status::Ok();
}

Status DirectFileBackend::do_write_many(std::span<const std::uint64_t> blocks,
                                        std::span<const Word> in) {
  if (!ring_live_) return fallback_->write_many(blocks, in);
  OEM_RETURN_IF_ERROR(drain_inflight());
  Frame f;
  f.serial = next_frame_serial_++;
  f.is_read = false;
  f.nblocks = blocks.size();
  OEM_RETURN_IF_ERROR(order_after_inflight(f, blocks));  // nothing in flight: sets ids
  stage_write(f, blocks, in);
  OEM_RETURN_IF_ERROR(submit_frame(f, blocks));
  OEM_RETURN_IF_ERROR(await_frame(f));
  return f.result;
}

Status DirectFileBackend::do_begin_read_many(std::span<const std::uint64_t> blocks,
                                             std::span<Word> out) {
  if (!ring_live_) return fallback_->begin_read_many(blocks, out);
  auto f = std::make_unique<Frame>();
  f->serial = next_frame_serial_++;
  f->is_read = true;
  f->dest = out.data();
  f->nblocks = blocks.size();
  f->bounce.resize(blocks.size() * (slot_bytes_ / sizeof(Word)));
  OEM_RETURN_IF_ERROR(order_after_inflight(*f, blocks));
  Status st = submit_frame(*f, blocks);
  if (!st.ok()) {
    (void)await_frame(*f);  // partially submitted SQEs must not outlive bounce
    return st;
  }
  inflight_.push_back(std::move(f));
  return Status::Ok();
}

Status DirectFileBackend::do_begin_write_many(std::span<const std::uint64_t> blocks,
                                              std::span<const Word> in) {
  if (!ring_live_) return fallback_->begin_write_many(blocks, in);
  auto f = std::make_unique<Frame>();
  f->serial = next_frame_serial_++;
  f->is_read = false;
  f->nblocks = blocks.size();
  OEM_RETURN_IF_ERROR(order_after_inflight(*f, blocks));
  stage_write(*f, blocks, in);
  Status st = submit_frame(*f, blocks);
  if (!st.ok()) {
    (void)await_frame(*f);
    return st;
  }
  inflight_.push_back(std::move(f));
  return Status::Ok();
}

Status DirectFileBackend::do_complete_oldest() {
  if (!ring_live_) return fallback_->complete_oldest();
  if (!completed_early_.empty()) {
    Status st = std::move(completed_early_.front());
    completed_early_.pop_front();
    return st;
  }
  if (inflight_.empty()) return Status::Ok();
  auto f = std::move(inflight_.front());
  inflight_.pop_front();
  Status st = await_frame(*f);
  if (st.ok()) st = f->result;
  if (st.ok() && f->is_read) scatter_read(*f);
  return st;
}

// ---------------------------------------------------------------------------
// Factory.

BackendFactory direct_file_backend(DirectFileOptions opts) {
  return [opts](std::size_t block_words) {
    return std::make_unique<DirectFileBackend>(block_words, opts);
  };
}

}  // namespace oem
