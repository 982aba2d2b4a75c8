// The I/O-engine hot-loop driver: a ring of K in-flight windows over a
// sequence of read->compute->write passes.
//
// Every batched hot loop in the library (external-sort run formation and
// merge-split network, butterfly routing sweeps, consolidation scans) has the
// same shape: pass t gathers a list of blocks, computes privately on the
// decrypted records, and scatters a list of blocks.  run_block_pipeline
// factors that shape out once and layers prefetch on top: while pass t
// computes, the reads of up to depth-1 later passes are already submitted --
// each one only once it cannot observe any still-unsubmitted earlier write
// (the hazard check spans ALL outstanding windows, and reads are submitted
// strictly in pass order, so the AsyncBackend's FIFO execution keeps
// read-after-write impossible by construction).  depth = 2 (the default) is
// the classic double buffer this generalizes; depth = 1 runs windows
// strictly one at a time.  On a remote store the depth is what the wire
// pipelining (see io_engine.h / remote.h) feeds on: K windows in flight
// amortize the round trip K ways instead of paying it per window.
//
// Obliviousness: the submission order (hence the device trace) is a
// deterministic function of the pass descriptions and the depth alone --
// the SAME whether the backend is synchronous or asynchronous, mem, sharded
// or remote.  Depth is a public scheduling parameter like the block size:
// prefetch changes when bytes move, never what Bob can infer about the data.
//
// Private-memory accounting: the pipeline leases the current pass's record
// buffer (max(reads, writes) blocks) against the cache meter, like the loops
// it replaced.  Ciphertext staging in flight is not metered, consistent with
// the Client's existing wire buffers.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "extmem/client.h"

namespace oem {

/// One pass's I/O description.  `reads`/`writes` are array-relative block
/// ids; gather/scatter order is the trace order.  Either list may be empty.
///
/// Passes that touch more than one array per direction (the thinning loops
/// read a working array and a collector in the same step) use the ref lists
/// instead: each entry names its array explicitly.  Within a direction the
/// read_from/write_to ids are gathered first, then the refs, in order --
/// call sites use one style per pass.
struct PipelinePass {
  const ExtArray* read_from = nullptr;
  const ExtArray* write_to = nullptr;
  std::vector<std::uint64_t> reads;
  std::vector<std::uint64_t> writes;

  /// An (array, array-relative block) pair for mixed-array passes.
  struct Ref {
    const ExtArray* array = nullptr;
    std::uint64_t block = 0;
  };
  std::vector<Ref> read_refs;
  std::vector<Ref> write_refs;
  void read(const ExtArray& a, std::uint64_t block) { read_refs.push_back({&a, block}); }
  void write(const ExtArray& a, std::uint64_t block) { write_refs.push_back({&a, block}); }
};

/// Fills `io` for pass t (the vectors arrive empty).  Called once per pass,
/// one pass ahead of compute; must depend only on public parameters.
using PassDescribeFn = std::function<void(std::uint64_t t, PipelinePass& io)>;

/// Computes pass t in place on `buf` (max(reads, writes) blocks of records).
/// On entry the first reads*B records hold the gathered plaintext; on return
/// the first writes*B records must hold the scatter plaintext.  Records
/// beyond the gathered prefix are unspecified on entry.  Called strictly in
/// pass order on the caller's thread, so stateful scans (running counters,
/// pending buffers) work.
using PassComputeFn = std::function<void(std::uint64_t t, std::span<Record> buf)>;

struct PipelineOptions {
  /// In-flight window ring size K: pass t computes while the reads of up to
  /// K-1 later passes are prefetched (hazards permitting).  0 = the device's
  /// configured depth (ClientParams::pipeline_depth /
  /// Session::Builder::pipeline_depth); 1 = no overlap; 2 = the classic
  /// double buffer.  describe() is called up to K-1 passes ahead of
  /// compute(), so it must depend only on public parameters (it already
  /// must, for obliviousness).
  std::size_t depth = 0;
};

void run_block_pipeline(Client& client, std::uint64_t passes,
                        const PassDescribeFn& describe, const PassComputeFn& compute,
                        PipelineOptions options = {});

/// The algorithm layer's common copy/assembly scan, pipelined: copy `count`
/// blocks src[src_first..] -> dst[dst_first..] in io_batch windows, writing
/// explicit empty blocks where src runs out.  Exactly
/// min(count, available-src) block reads + count block writes -- identical
/// to the per-block loop it factors out.
void pipelined_copy_pad(Client& client, const ExtArray& src, std::uint64_t src_first,
                        const ExtArray& dst, std::uint64_t dst_first,
                        std::uint64_t count);

}  // namespace oem
