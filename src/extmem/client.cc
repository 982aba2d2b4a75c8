#include "extmem/client.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <string>

#include "util/status.h"

namespace oem {

Status hydrate_state(ClientParams* p) {
  if (p->state_path.empty()) return Status::Ok();
  Result<FreshnessState> loaded =
      load_freshness(p->state_path, freshness_state_key(p->seed));
  if (!loaded.ok()) {
    // Absent = first boot with this path: bootstrap fresh.  Any OTHER
    // failure is an existing file that does not verify -- fail closed.
    if (loaded.status().code() == StatusCode::kIo) return Status::Ok();
    return loaded.status();
  }
  p->store_namespace = loaded->store_namespace;
  p->initial_state =
      std::make_shared<const FreshnessState>(std::move(loaded).value());
  return Status::Ok();
}

Client::Client(const ClientParams& params)
    : B_(params.block_records),
      M_(params.cache_records),
      io_batch_(params.io_batch_blocks),
      state_path_(params.state_path),
      seed_(params.seed),
      store_namespace_(params.store_namespace),
      dev_(std::make_unique<BlockDevice>(
          kBlockHeaderWords + params.block_records * kWordsPerRecord,
          params.backend, RetryPolicy{params.io_retry_attempts},
          params.pipeline_depth)),
      enc_(rng::mix64(params.seed ^ 0x5bf0363546294ce7ULL), params.seed),
      meter_(params.cache_records, params.strict_cache),
      rng_(params.seed) {
  assert(B_ >= 1);
  assert(M_ >= 2 * B_ && "the paper assumes at least M >= 2B everywhere");
  if (io_batch_ == 0) io_batch_ = std::max<std::uint64_t>(1, m() / 4);
  wire_.resize(dev_->block_words());
  if (params.initial_state) {
    // Restart: restore the freshness state a predecessor sealed.  Versions
    // resume rollback detection, the nonce counter keeps counter-derived
    // nonces unique across process lifetimes, and the generation continues
    // monotonically so the next save supersedes the loaded file.
    dev_->set_versions(params.initial_state->versions);
    enc_.set_nonce_counter(params.initial_state->nonce_counter);
    state_generation_ = params.initial_state->generation;
  }
}

Client::~Client() {
  if (!state_path_.empty()) (void)persist_state();
}

Status Client::persist_state() {
  if (state_path_.empty())
    return Status::InvalidArgument("persist_state: no state_path configured");
  FreshnessState st;
  st.generation = ++state_generation_;
  st.nonce_counter = enc_.nonce_counter();
  st.store_namespace = store_namespace_;
  st.versions = dev_->versions();
  return save_freshness(state_path_, st, freshness_state_key(seed_));
}

ExtArray Client::alloc(std::uint64_t num_records, Init init) {
  const std::uint64_t nblocks = num_records == 0 ? 0 : ceil_div(num_records, B_);
  ExtArray a(dev_->allocate(nblocks), num_records, B_);
  if (init == Init::kEmpty && nblocks > 0) {
    // Batched counted initialization: same writes, same trace order.
    const std::uint64_t chunk = std::min<std::uint64_t>(io_batch_, nblocks);
    const std::vector<Record> empty(static_cast<std::size_t>(chunk) * B_);
    for (std::uint64_t i = 0; i < nblocks; i += chunk) {
      const std::uint64_t k = std::min(chunk, nblocks - i);
      write_blocks(a, i, k, std::span<const Record>(empty).subspan(0, k * B_));
    }
  }
  return a;
}

ExtArray Client::alloc_blocks(std::uint64_t num_blocks, Init init) {
  return alloc(num_blocks * B_, init);
}

void Client::release(const ExtArray& a) { dev_->release(a.extent()); }

void Client::serialize(std::span<const Record> in, std::span<Word> out_words) const {
  assert(in.size() == B_);
  assert(out_words.size() == kBlockHeaderWords + B_ * kWordsPerRecord);
  // out_words[0]/[1] are the nonce/mac header slots, filled by the sealer.
  for (std::size_t r = 0; r < B_; ++r) {
    out_words[kBlockHeaderWords + 2 * r] = in[r].key;
    out_words[kBlockHeaderWords + 1 + 2 * r] = in[r].value;
  }
}

void Client::deserialize(std::span<const Word> in_words, std::span<Record> out) const {
  assert(in_words.size() == kBlockHeaderWords + B_ * kWordsPerRecord);
  assert(out.size() == B_);
  for (std::size_t r = 0; r < B_; ++r) {
    out[r].key = in_words[kBlockHeaderWords + 2 * r];
    out[r].value = in_words[kBlockHeaderWords + 1 + 2 * r];
  }
}

void Client::seal_words(std::uint64_t dev_blk, Word nonce, std::uint64_t version,
                        std::span<const Record> in, std::span<Word> w) const {
  assert(w.size() == dev_->block_words());
  w[0] = nonce;
  serialize(in, w);
  enc_.apply_keystream(dev_blk, nonce, w.subspan(kBlockHeaderWords));
  w[1] = enc_.mac(dev_blk, nonce, version, w.subspan(kBlockHeaderWords));
}

bool Client::open_words(std::uint64_t dev_blk, std::span<const Word> w,
                        std::span<Record> out) const {
  assert(w.size() == dev_->block_words());
  assert(out.size() == B_);
  const Word nonce = w[0], tag = w[1];
  const std::span<const Word> cipher = w.subspan(kBlockHeaderWords);
  const std::uint64_t version = dev_->version(dev_blk);
  bool ok;
  if (version == 0) {
    // Never written by this client: the backend contract says a fresh (or
    // shrunk-then-regrown) block reads as all-zero, header included.  Any
    // other bytes at version 0 were fabricated by the server.
    ok = nonce == 0 && tag == 0 &&
         std::all_of(cipher.begin(), cipher.end(), [](Word x) { return x == 0; });
  } else {
    ok = tag == enc_.mac(dev_blk, nonce, version, cipher);
  }
  if (!ok) {
    // Zero the plaintext so a caller that drops the verdict on the floor can
    // still never observe attacker-controlled bytes.
    for (Record& r : out) r = Record{0, 0};
    return false;
  }
  thread_local std::vector<Word> scratch;
  scratch.assign(w.begin(), w.end());
  if (nonce != 0)
    enc_.apply_keystream(dev_blk, nonce,
                         std::span<Word>(scratch).subspan(kBlockHeaderWords));
  deserialize(scratch, out);
  return true;
}

void Client::integrity_fail(std::uint64_t dev_blk) const {
  throw IntegrityError("block authentication failed: device block " +
                       std::to_string(dev_blk) +
                       " (tampered, swapped, or rolled back); version " +
                       std::to_string(dev_->version(dev_blk)));
}

void Client::read_block(const ExtArray& a, std::uint64_t i, BlockBuf& out) {
  assert(i < a.num_blocks());
  const std::uint64_t dev_blk = a.device_block(i);
  dev_->read(dev_blk, wire_);
  out.resize(B_);
  if (!open_words(dev_blk, wire_, out)) integrity_fail(dev_blk);
}

void Client::write_block(const ExtArray& a, std::uint64_t i, const BlockBuf& in) {
  assert(i < a.num_blocks());
  assert(in.size() == B_);
  const std::uint64_t dev_blk = a.device_block(i);
  seal_words(dev_blk, enc_.fresh_nonce(), dev_->bump_version(dev_blk), in, wire_);
  dev_->write(dev_blk, wire_);
}

void Client::read_blocks(const ExtArray& a, std::uint64_t first, std::uint64_t count,
                         std::span<Record> out) {
  assert(first + count <= a.num_blocks());
  assert(out.size() == count * B_);
  const std::size_t bw = dev_->block_words();
  for (std::uint64_t done = 0; done < count;) {
    const std::uint64_t k = std::min<std::uint64_t>(io_batch_, count - done);
    ids_.resize(k);
    for (std::uint64_t j = 0; j < k; ++j) ids_[j] = a.device_block(first + done + j);
    wire_many_.resize(static_cast<std::size_t>(k) * bw);
    dev_->read_many(ids_, wire_many_);
    for (std::uint64_t j = 0; j < k; ++j) {
      std::span<const Word> w(wire_many_.data() + j * bw, bw);
      if (!open_words(ids_[j], w, out.subspan((done + j) * B_, B_)))
        integrity_fail(ids_[j]);
    }
    done += k;
  }
}

void Client::write_blocks(const ExtArray& a, std::uint64_t first, std::uint64_t count,
                          std::span<const Record> in) {
  assert(first + count <= a.num_blocks());
  assert(in.size() == count * B_);
  const std::size_t bw = dev_->block_words();
  for (std::uint64_t done = 0; done < count;) {
    const std::uint64_t k = std::min<std::uint64_t>(io_batch_, count - done);
    ids_.resize(k);
    wire_many_.resize(static_cast<std::size_t>(k) * bw);
    for (std::uint64_t j = 0; j < k; ++j) {
      const std::uint64_t dev_blk = a.device_block(first + done + j);
      ids_[j] = dev_blk;
      std::span<Word> w(wire_many_.data() + j * bw, bw);
      seal_words(dev_blk, enc_.fresh_nonce(), dev_->bump_version(dev_blk),
                 in.subspan((done + j) * B_, B_), w);
    }
    dev_->write_many(ids_, wire_many_);
    done += k;
  }
}

void Client::decrypt_blocks(std::span<const std::uint64_t> dev_ids,
                            std::span<const Word> wire, std::span<Record> out) {
  const std::size_t bw = dev_->block_words();
  assert(wire.size() == dev_ids.size() * bw);
  assert(out.size() == dev_ids.size() * B_);
  if (dev_ids.empty()) return;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t bad = dev_ids.size();
  for (std::size_t j = 0; j < dev_ids.size(); ++j) {
    if (!open_words(dev_ids[j], wire.subspan(j * bw, bw), out.subspan(j * B_, B_))) {
      bad = j;
      break;
    }
  }
  dev_->add_crypto_ns(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  if (bad < dev_ids.size()) integrity_fail(dev_ids[bad]);
}

void Client::encrypt_blocks(std::span<const std::uint64_t> dev_ids,
                            std::span<const Record> in, std::span<Word> wire) {
  const std::size_t bw = dev_->block_words();
  assert(wire.size() == dev_ids.size() * bw);
  assert(in.size() == dev_ids.size() * B_);
  if (dev_ids.empty()) return;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t j = 0; j < dev_ids.size(); ++j) {
    const Word nonce = enc_.fresh_nonce();
    const std::uint64_t version = dev_->bump_version(dev_ids[j]);
    seal_words(dev_ids[j], nonce, version, in.subspan(j * B_, B_),
               wire.subspan(j * bw, bw));
  }
  dev_->add_crypto_ns(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
}

void Client::touch_block(const ExtArray& a, std::uint64_t i) {
  BlockBuf buf;
  CacheLease lease(meter_, B_);
  read_block(a, i, buf);
  write_block(a, i, buf);  // fresh nonce => fresh ciphertext
}

void Client::read_records(const ExtArray& a, std::uint64_t start, std::span<Record> out) {
  assert(start + out.size() <= a.num_blocks() * B_);
  BlockBuf buf;
  std::uint64_t pos = start;
  std::size_t done = 0;
  // Leading partial block.
  if (pos % B_ != 0 && done < out.size()) {
    const std::size_t off = static_cast<std::size_t>(pos % B_);
    const std::size_t take = std::min(out.size() - done, B_ - off);
    read_block(a, pos / B_, buf);
    for (std::size_t i = 0; i < take; ++i) out[done + i] = buf[off + i];
    pos += take;
    done += take;
  }
  // Aligned full blocks, batched.
  const std::uint64_t mid = (out.size() - done) / B_;
  if (mid > 0) {
    read_blocks(a, pos / B_, mid, out.subspan(done, mid * B_));
    pos += mid * B_;
    done += static_cast<std::size_t>(mid) * B_;
  }
  // Trailing partial block.
  if (done < out.size()) {
    const std::size_t take = out.size() - done;
    read_block(a, pos / B_, buf);
    for (std::size_t i = 0; i < take; ++i) out[done + i] = buf[i];
  }
}

void Client::write_records(const ExtArray& a, std::uint64_t start,
                           std::span<const Record> in) {
  assert(start + in.size() <= a.num_blocks() * B_);
  BlockBuf buf;
  std::uint64_t pos = start;
  std::size_t done = 0;
  // Leading partial block: read-modify-write.
  if (pos % B_ != 0 && done < in.size()) {
    const std::size_t off = static_cast<std::size_t>(pos % B_);
    const std::size_t take = std::min(in.size() - done, B_ - off);
    read_block(a, pos / B_, buf);
    for (std::size_t i = 0; i < take; ++i) buf[off + i] = in[done + i];
    write_block(a, pos / B_, buf);
    pos += take;
    done += take;
  }
  // Aligned full blocks, batched (write-only, like the per-block path).
  const std::uint64_t mid = (in.size() - done) / B_;
  if (mid > 0) {
    write_blocks(a, pos / B_, mid, in.subspan(done, mid * B_));
    pos += mid * B_;
    done += static_cast<std::size_t>(mid) * B_;
  }
  // Trailing partial block: read-modify-write.
  if (done < in.size()) {
    const std::size_t take = in.size() - done;
    read_block(a, pos / B_, buf);
    for (std::size_t i = 0; i < take; ++i) buf[i] = in[done + i];
    write_block(a, pos / B_, buf);
  }
}

std::vector<Record> Client::peek(const ExtArray& a) const {
  std::vector<Record> out;
  out.reserve(a.num_records());
  const std::size_t bw = dev_->block_words();
  BlockBuf buf(B_);
  std::vector<Word> wire;
  // Bulk download in batch windows (uncounted; the backend coalesces).
  for (std::uint64_t i = 0; i < a.num_blocks(); i += io_batch_) {
    const std::uint64_t k = std::min<std::uint64_t>(io_batch_, a.num_blocks() - i);
    wire.resize(static_cast<std::size_t>(k) * bw);
    dev_->read_raw_range(a.device_block(i), k, wire);
    for (std::uint64_t j = 0; j < k; ++j) {
      const std::uint64_t dev_blk = a.device_block(i + j);
      std::span<const Word> w(wire.data() + j * bw, bw);
      if (!open_words(dev_blk, w, buf)) integrity_fail(dev_blk);
      for (std::size_t r = 0; r < B_ && out.size() < a.num_records(); ++r)
        out.push_back(buf[r]);
    }
  }
  return out;
}

void Client::poke(const ExtArray& a, std::span<const Record> records) {
  assert(records.size() <= a.num_blocks() * B_);
  const std::size_t bw = dev_->block_words();
  BlockBuf buf(B_);
  std::vector<Word> wire;
  std::size_t idx = 0;
  // Bulk upload in batch windows; bypasses counters/trace (setup only).
  for (std::uint64_t i = 0; i < a.num_blocks(); i += io_batch_) {
    const std::uint64_t k = std::min<std::uint64_t>(io_batch_, a.num_blocks() - i);
    wire.resize(static_cast<std::size_t>(k) * bw);
    for (std::uint64_t j = 0; j < k; ++j) {
      for (std::size_t r = 0; r < B_; ++r) {
        buf[r] = idx < records.size() ? records[idx] : Record{};
        ++idx;
      }
      const std::uint64_t dev_blk = a.device_block(i + j);
      std::span<Word> w(wire.data() + j * bw, bw);
      seal_words(dev_blk, enc_.fresh_nonce(), dev_->bump_version(dev_blk), buf, w);
    }
    dev_->write_raw_range(a.device_block(i), k, wire);
  }
}

}  // namespace oem
