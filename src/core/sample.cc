#include "core/sample.h"

#include <algorithm>
#include <vector>

#include "extmem/pipeline.h"
#include "sortnet/external_sort.h"
#include "util/math.h"

namespace oem::core {

CoinSample coin_sample(Client& client, const ExtArray& a, double p, rng::Xoshiro& coins) {
  const std::size_t B = client.B();
  const std::uint64_t n = a.num_blocks();
  std::vector<std::uint64_t> picks;  // picked cell indices, ascending
  for (std::uint64_t cell = 0; cell < n * B; ++cell)
    if (coins.bernoulli(p)) picks.push_back(cell);

  CoinSample res;
  const std::uint64_t c_blocks = std::max<std::uint64_t>(1, ceil_div(picks.size(), B));
  res.sorted = client.alloc_blocks(c_blocks, Client::Init::kUninit);

  // Window t reads W blocks of A and writes the C blocks its picks complete;
  // the last window also writes the padded partial block.  Both lists follow
  // from the pick positions, so the schedule is public.
  const std::uint64_t W = std::max<std::uint64_t>(1, client.io_batch_blocks());
  const std::uint64_t windows = std::max<std::uint64_t>(1, ceil_div(n, W));
  auto done_after = [&](std::uint64_t t) -> std::uint64_t {
    if (t + 1 >= windows) return c_blocks;
    const auto end = std::lower_bound(picks.begin(), picks.end(), (t + 1) * W * B);
    return static_cast<std::uint64_t>(end - picks.begin()) / B;
  };
  std::vector<Record> pending;
  std::size_t next = 0;
  run_block_pipeline(
      client, windows,
      [&](std::uint64_t t, PipelinePass& io) {
        io.read_from = &a;
        io.write_to = &res.sorted;
        for (std::uint64_t i = t * W; i < std::min(n, (t + 1) * W); ++i)
          io.reads.push_back(i);
        for (std::uint64_t b = t == 0 ? 0 : done_after(t - 1); b < done_after(t); ++b)
          io.writes.push_back(b);
      },
      [&](std::uint64_t t, std::span<Record> buf) {
        const std::uint64_t first_cell = t * W * B;
        const std::uint64_t end_cell = std::min(n, (t + 1) * W) * B;
        for (; next < picks.size() && picks[next] < end_cell; ++next) {
          const Record& r = buf[picks[next] - first_cell];
          pending.push_back(r);
          if (!r.is_empty()) ++res.real;
        }
        const std::size_t out =
            (done_after(t) - (t == 0 ? 0 : done_after(t - 1))) * B;
        if (pending.size() < out) pending.resize(out, Record{});
        std::copy_n(pending.begin(), out, buf.begin());
        pending.erase(pending.begin(), pending.begin() + static_cast<std::ptrdiff_t>(out));
      });
  sortnet::ext_oblivious_sort(client, res.sorted);
  return res;
}

}  // namespace oem::core
