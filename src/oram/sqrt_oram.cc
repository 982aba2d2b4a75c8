#include "oram/sqrt_oram.h"

#include <algorithm>
#include <cassert>

#include "extmem/pipeline.h"
#include "hash/hashing.h"
#include "sortnet/external_sort.h"
#include "util/math.h"

namespace oem::oram {

SqrtOram::SqrtOram(Client& client, std::uint64_t n_items, ShuffleKind kind,
                   std::uint64_t seed)
    : client_(client),
      n_(std::max<std::uint64_t>(n_items, 4)),
      sqrt_n_(std::max<std::uint64_t>(2, iroot(n_, 2))),
      kind_(kind),
      seed_(seed),
      prp_(n_ + sqrt_n_, hash::mix(seed, 0)) {
  main_ = client_.alloc(n_ + sqrt_n_, Client::Init::kUninit);
  stash_ = client_.alloc(sqrt_n_, Client::Init::kEmpty);
  reshuffle();  // initial layout (epoch 0 contents)
  stats_ = SqrtOramStats{};
  client_.reset_stats();
}

std::uint64_t SqrtOram::expected_value(std::uint64_t index) const {
  return hash::mix(index, seed_ ^ 0xfeedULL);
}

std::uint64_t SqrtOram::access(std::uint64_t index) {
  assert(index < n_);
  const std::uint64_t before = client_.stats().total();

  // 1. Full stash scan (external, sqrt(N) records).
  bool found = false;
  std::uint64_t value = 0;
  {
    CacheLease lease(client_.cache(), client_.B());
    BlockBuf blk;
    for (std::uint64_t b = 0; b < stash_.num_blocks(); ++b) {
      client_.read_block(stash_, b, blk);
      for (const Record& r : blk) {
        if (!r.is_empty() && r.key == index) {
          found = true;
          value = r.value;
        }
      }
    }
  }

  // 2. One main-array probe: the real position if unseen, a dummy otherwise.
  const std::uint64_t virt = found ? n_ + used_ : index;
  const std::uint64_t pos = prp_.apply(virt);
  {
    CacheLease lease(client_.cache(), client_.B());
    std::vector<Record> one(1);
    client_.read_records(main_, pos, one);
    if (!found) {
      assert((!status_.ok() || one[0].key == index) && "PRP layout out of sync");
      value = one[0].value;
    }
  }

  // 3. Append (index, value) to the stash slot for this access.
  {
    CacheLease lease(client_.cache(), client_.B());
    std::vector<Record> one(1);
    one[0] = {index, value};
    client_.write_records(stash_, used_, one);
  }

  ++used_;
  ++stats_.accesses;
  stats_.access_ios += client_.stats().total() - before;

  if (used_ == sqrt_n_) reshuffle();
  return value;
}

void SqrtOram::reshuffle() {
  const std::uint64_t before = client_.stats().total();
  ++epoch_;
  prp_ = rng::FeistelPermutation(n_ + sqrt_n_, hash::mix(seed_, epoch_));

  // Retag pass: cell for virtual index v gets sort key pi_{e}(v).  Real
  // cells carry the stored value, dummies carry junk.  (Read-oriented demo:
  // contents are regenerated; a full RW ORAM would merge the stash here,
  // with identical I/O shape.)  Write-only pipelined scan: window t+1's
  // ciphertext is staged while window t transfers.
  const std::size_t B = client_.B();
  const std::uint64_t W = std::max<std::uint64_t>(1, client_.io_batch_blocks());
  const std::uint64_t nb = main_.num_blocks();
  const std::uint64_t total = n_ + sqrt_n_;
  run_block_pipeline(
      client_, nb == 0 ? 0 : ceil_div(nb, W),
      [&](std::uint64_t t, PipelinePass& io) {
        io.write_to = &main_;
        const std::uint64_t first = t * W;
        const std::uint64_t k = std::min(W, nb - first);
        for (std::uint64_t j = 0; j < k; ++j) io.writes.push_back(first + j);
      },
      [&](std::uint64_t t, std::span<Record> buf) {
        for (std::size_t idx = 0; idx < buf.size(); ++idx) {
          const std::uint64_t v = t * W * B + idx;
          buf[idx] = v < total ? Record{prp_.apply(v), v < n_ ? expected_value(v) : 0}
                               : Record{};
        }
      });

  // The pluggable inner loop: oblivious sort by tag.
  if (kind_ == ShuffleKind::kDeterministic) {
    sortnet::ext_oblivious_sort(client_, main_);
  } else {
    core::ObliviousSortResult sr =
        core::oblivious_sort(client_, main_, hash::mix(seed_ ^ 0x0badULL, epoch_));
    status_.Update(sr.status);
  }

  // Rewrite tags back to virtual indices: after sorting by tag, position p
  // holds the cell with tag p, i.e. virtual index pi^{-1}(p).  In-place
  // pipelined scan; window t+1 is disjoint from window t's write set, so it
  // prefetches during the PRP inversion.
  run_block_pipeline(
      client_, nb == 0 ? 0 : ceil_div(nb, W),
      [&](std::uint64_t t, PipelinePass& io) {
        io.read_from = &main_;
        io.write_to = &main_;
        const std::uint64_t first = t * W;
        const std::uint64_t k = std::min(W, nb - first);
        for (std::uint64_t j = 0; j < k; ++j) {
          io.reads.push_back(first + j);
          io.writes.push_back(first + j);
        }
      },
      [&](std::uint64_t t, std::span<Record> buf) {
        for (std::size_t idx = 0; idx < buf.size(); ++idx) {
          const std::uint64_t p = t * W * B + idx;
          if (p < total) buf[idx].key = prp_.inverse(p);
        }
      });

  // Clear the stash (write-only pipelined scan).
  run_block_pipeline(
      client_, stash_.num_blocks() == 0 ? 0 : ceil_div(stash_.num_blocks(), W),
      [&](std::uint64_t t, PipelinePass& io) {
        io.write_to = &stash_;
        const std::uint64_t first = t * W;
        const std::uint64_t k = std::min(W, stash_.num_blocks() - first);
        for (std::uint64_t j = 0; j < k; ++j) io.writes.push_back(first + j);
      },
      [](std::uint64_t, std::span<Record> buf) {
        std::fill(buf.begin(), buf.end(), Record{});
      });

  used_ = 0;
  ++stats_.reshuffles;
  stats_.reshuffle_ios += client_.stats().total() - before;
}

}  // namespace oem::oram
