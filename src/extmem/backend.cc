#include "extmem/backend.h"

#include <fcntl.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace oem {

namespace {

std::string errno_string(const char* what, const std::string& path) {
  return std::string(what) + " '" + path + "': " + std::strerror(errno);
}

}  // namespace

// ---------------------------------------------------------------------------
// StorageBackend: bounds-checked public entry points.

Status StorageBackend::check_blocks(std::span<const std::uint64_t> blocks,
                                    std::size_t words, const char* what) const {
  if (words != blocks.size() * block_words_)
    return Status::InvalidArgument(std::string(what) +
                                   ": buffer size does not match block count");
  for (std::uint64_t b : blocks)
    if (b >= num_blocks_)
      return Status::InvalidArgument(std::string(what) + ": block " +
                                     std::to_string(b) + " out of range (capacity " +
                                     std::to_string(num_blocks_) + ")");
  return Status::Ok();
}

Status StorageBackend::resize(std::uint64_t nblocks) {
  OEM_RETURN_IF_ERROR(health());
  OEM_RETURN_IF_ERROR(do_resize(nblocks));
  num_blocks_ = nblocks;
  return Status::Ok();
}

Status StorageBackend::read(std::uint64_t block, std::span<Word> out) {
  OEM_RETURN_IF_ERROR(health());
  const std::uint64_t ids[1] = {block};
  OEM_RETURN_IF_ERROR(check_blocks(std::span<const std::uint64_t>(ids, 1), out.size(), "read"));
  return do_read(block, out);
}

Status StorageBackend::write(std::uint64_t block, std::span<const Word> in) {
  OEM_RETURN_IF_ERROR(health());
  const std::uint64_t ids[1] = {block};
  OEM_RETURN_IF_ERROR(check_blocks(std::span<const std::uint64_t>(ids, 1), in.size(), "write"));
  return do_write(block, in);
}

Status StorageBackend::read_many(std::span<const std::uint64_t> blocks,
                                 std::span<Word> out) {
  OEM_RETURN_IF_ERROR(health());
  OEM_RETURN_IF_ERROR(check_blocks(blocks, out.size(), "read_many"));
  if (blocks.empty()) return Status::Ok();
  return do_read_many(blocks, out);
}

Status StorageBackend::write_many(std::span<const std::uint64_t> blocks,
                                  std::span<const Word> in) {
  OEM_RETURN_IF_ERROR(health());
  OEM_RETURN_IF_ERROR(check_blocks(blocks, in.size(), "write_many"));
  if (blocks.empty()) return Status::Ok();
  return do_write_many(blocks, in);
}

Status StorageBackend::begin_read_many(std::span<const std::uint64_t> blocks,
                                       std::span<Word> out) {
  OEM_RETURN_IF_ERROR(health());
  OEM_RETURN_IF_ERROR(check_blocks(blocks, out.size(), "begin_read_many"));
  if (blocks.empty()) return Status::Ok();
  return do_begin_read_many(blocks, out);
}

Status StorageBackend::begin_write_many(std::span<const std::uint64_t> blocks,
                                        std::span<const Word> in) {
  OEM_RETURN_IF_ERROR(health());
  OEM_RETURN_IF_ERROR(check_blocks(blocks, in.size(), "begin_write_many"));
  if (blocks.empty()) return Status::Ok();
  return do_begin_write_many(blocks, in);
}

// ---------------------------------------------------------------------------
// MemBackend.

Status MemBackend::do_resize(std::uint64_t nblocks) {
  storage_.resize(static_cast<std::size_t>(nblocks) * block_words());
  return Status::Ok();
}

Status MemBackend::do_read_many(std::span<const std::uint64_t> blocks,
                                std::span<Word> out) {
  // Coalesce runs of consecutive ids into single memcpys.
  const std::size_t bw = block_words();
  for (std::size_t i = 0; i < blocks.size();) {
    std::size_t run = 1;
    while (i + run < blocks.size() && blocks[i + run] == blocks[i] + run) ++run;
    std::memcpy(out.data() + i * bw, storage_.data() + blocks[i] * bw,
                run * bw * sizeof(Word));
    i += run;
  }
  return Status::Ok();
}

Status MemBackend::do_write_many(std::span<const std::uint64_t> blocks,
                                 std::span<const Word> in) {
  const std::size_t bw = block_words();
  for (std::size_t i = 0; i < blocks.size();) {
    std::size_t run = 1;
    while (i + run < blocks.size() && blocks[i + run] == blocks[i] + run) ++run;
    std::memcpy(storage_.data() + blocks[i] * bw, in.data() + i * bw,
                run * bw * sizeof(Word));
    i += run;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// FileBackend.

FileBackend::FileBackend(std::size_t block_words, FileBackendOptions opts)
    : StorageBackend(block_words) {
  if (opts.path.empty()) {
    const char* tmpdir = std::getenv("TMPDIR");
    std::string templ =
        std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") + "/oem_blocks_XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    fd_ = ::mkstemp(buf.data());
    if (fd_ < 0) {
      init_status_ = Status::Io(errno_string("mkstemp", templ));
      return;
    }
    path_ = buf.data();
    unlink_on_close_ = true;
  } else {
    path_ = opts.path;
    // keep_file stores are durable across processes: reuse what is on disk.
    const int trunc = opts.keep_file ? 0 : O_TRUNC;
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | trunc, 0600);
    if (fd_ < 0) {
      init_status_ = Status::Io(errno_string("open", path_));
      return;
    }
    unlink_on_close_ = !opts.keep_file;
  }
}

FileBackend::~FileBackend() {
  if (fd_ >= 0) ::close(fd_);
  if (unlink_on_close_ && !path_.empty()) ::unlink(path_.c_str());
}

Status FileBackend::flush() {
  if (!init_status_.ok()) return init_status_;
  if (fd_ >= 0 && ::fsync(fd_) != 0) return Status::Io(errno_string("fsync", path_));
  return Status::Ok();
}

Status FileBackend::do_resize(std::uint64_t nblocks) {
  const off_t bytes = static_cast<off_t>(nblocks * block_words() * sizeof(Word));
  if (::ftruncate(fd_, bytes) != 0) return Status::Io(errno_string("ftruncate", path_));
  return Status::Ok();
}

Status FileBackend::pread_words(std::span<Word> out, std::uint64_t first_block) {
  std::size_t done = 0;
  const std::size_t bytes = out.size() * sizeof(Word);
  off_t off = static_cast<off_t>(first_block * block_words() * sizeof(Word));
  char* dst = reinterpret_cast<char*>(out.data());
  ++syscalls_;
  while (done < bytes) {
    const ssize_t got = ::pread(fd_, dst + done, bytes - done, off + static_cast<off_t>(done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Io(errno_string("pread", path_));
    }
    if (got == 0)
      return Status::Io("short read from '" + path_ + "' (file truncated externally?)");
    done += static_cast<std::size_t>(got);
    if (done < bytes) ++syscalls_;
  }
  return Status::Ok();
}

Status FileBackend::pwrite_words(std::span<const Word> in, std::uint64_t first_block) {
  std::size_t done = 0;
  const std::size_t bytes = in.size() * sizeof(Word);
  off_t off = static_cast<off_t>(first_block * block_words() * sizeof(Word));
  const char* src = reinterpret_cast<const char*>(in.data());
  ++syscalls_;
  while (done < bytes) {
    const ssize_t put = ::pwrite(fd_, src + done, bytes - done, off + static_cast<off_t>(done));
    if (put < 0) {
      if (errno == EINTR) continue;
      return Status::Io(errno_string("pwrite", path_));
    }
    done += static_cast<std::size_t>(put);
    if (done < bytes) ++syscalls_;
  }
  return Status::Ok();
}

Status FileBackend::do_read_many(std::span<const std::uint64_t> blocks,
                                 std::span<Word> out) {
  const std::size_t bw = block_words();
  for (std::size_t i = 0; i < blocks.size();) {
    std::size_t run = 1;
    while (i + run < blocks.size() && blocks[i + run] == blocks[i] + run) ++run;
    OEM_RETURN_IF_ERROR(pread_words(out.subspan(i * bw, run * bw), blocks[i]));
    i += run;
  }
  return Status::Ok();
}

Status FileBackend::do_write_many(std::span<const std::uint64_t> blocks,
                                  std::span<const Word> in) {
  const std::size_t bw = block_words();
  for (std::size_t i = 0; i < blocks.size();) {
    std::size_t run = 1;
    while (i + run < blocks.size() && blocks[i + run] == blocks[i] + run) ++run;
    OEM_RETURN_IF_ERROR(pwrite_words(in.subspan(i * bw, run * bw), blocks[i]));
    i += run;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// LatencyBackend.

LatencyBackend::LatencyBackend(std::unique_ptr<StorageBackend> inner,
                               LatencyProfile profile)
    : StorageBackend(inner->block_words()),
      inner_(std::move(inner)),
      profile_(profile) {}

void LatencyBackend::pay(std::uint64_t words, std::uint64_t nblocks) {
  ops_.fetch_add(1, std::memory_order_relaxed);
  // A round-robin-striped op can use at most one lane per block it touches:
  // a single-block read streams over exactly one link no matter how many
  // lanes the store has.
  const std::uint64_t lanes = std::min<std::uint64_t>(
      std::max<std::size_t>(1, profile_.lanes), std::max<std::uint64_t>(1, nblocks));
  const std::uint64_t ns =
      profile_.per_op_ns + profile_.per_word_ns * ((words + lanes - 1) / lanes);
  simulated_ns_.fetch_add(ns, std::memory_order_relaxed);
  // The sleep happens on the calling thread (model K independent stores with
  // one LatencyBackend of lanes = K above the stripe).  Linux pads sleeps
  // with ~50us of timer slack by default, which would drown
  // microsecond-scale round trips; request 1us slack once per sleeping
  // thread.
  if (profile_.real_sleep && ns > 0) {
#ifdef __linux__
    static thread_local bool slack_tightened = false;
    if (!slack_tightened) {
      ::prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);
      slack_tightened = true;
    }
#endif
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
  }
}

Status LatencyBackend::do_resize(std::uint64_t nblocks) {
  return inner_->resize(nblocks);
}

Status LatencyBackend::do_read_many(std::span<const std::uint64_t> blocks,
                                    std::span<Word> out) {
  pay(out.size(), blocks.size());  // one round trip for the whole batch
  return inner_->read_many(blocks, out);
}

Status LatencyBackend::do_write_many(std::span<const std::uint64_t> blocks,
                                     std::span<const Word> in) {
  pay(in.size(), blocks.size());
  return inner_->write_many(blocks, in);
}

// ---------------------------------------------------------------------------
// Factories.

BackendFactory mem_backend() {
  return [](std::size_t block_words) { return std::make_unique<MemBackend>(block_words); };
}

BackendFactory file_backend(FileBackendOptions opts) {
  return [opts](std::size_t block_words) {
    return std::make_unique<FileBackend>(block_words, opts);
  };
}

BackendFactory latency_backend(BackendFactory inner, LatencyProfile profile) {
  return [inner = std::move(inner), profile](std::size_t block_words)
             -> std::unique_ptr<StorageBackend> {
    auto base = inner ? inner(block_words) : std::make_unique<MemBackend>(block_words);
    return std::make_unique<LatencyBackend>(std::move(base), profile);
  };
}

}  // namespace oem
