// E12 -- the remote block store, measured over localhost TCP.  An in-process
// RemoteServer holds the blocks behind the wire protocol with a configurable
// simulated propagation delay (--rtt-us, default 100us -- a fast datacenter
// round trip; the real loopback stack adds its own microseconds on top), and
// the same workloads run against it in a ladder of engine configurations:
//
//   per_block        io_batch=1, depth 1: one synchronous frame round trip
//                    per block -- the naive client pays RTT per block.
//   batched_depth1   windowed read_many/write_many frames, still one
//                    synchronous round trip at a time: RTT per window edge.
//   depth{2,4,8}     + async prefetch: K windows in flight, the AsyncBackend
//                    streams begin/complete frames on the wire, so the round
//                    trips overlap and the RTT amortizes across the ring.
//
// Block I/O counts must be IDENTICAL across configurations -- depth and
// batching change when bytes move, never what Bob sees or how many blocks
// move.  The headline claim (ISSUE 4 acceptance): depth 4 is >= 2x faster
// than depth 1 on a >= 100us-RTT connection.  --json=PATH writes the grid as
// a CI artifact (BENCH_remote.json).
// E13 (below) is the striping x depth grid: ShardedBackend forwards the
// split-phase seam, so sharded(4) at depth 4 keeps 4 x 4 frames on the wire
// -- the exit code enforces that depth 4 is >= 2x over depth 1 WITH striping
// already on (they multiply instead of composing serially), and that a
// write-back cache (--cache-blocks) cuts >= 30% of the wire ops on a
// re-touching ORAM-epoch workload at identical outputs.
#include <chrono>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/oblivious_sort.h"
#include "extmem/pipeline.h"
#include "extmem/remote.h"
#include "server/server.h"
#include "oram/sqrt_oram.h"

using namespace oem;

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(b - a)
      .count();
}

struct WorkCase {
  std::string name;
  /// Sets up input (uncounted), resets stats, runs, returns algorithm-only ms.
  std::function<double(Client&, std::uint64_t n_blocks)> run;
};

}  // namespace

namespace {

/// E13: the striping x depth grid plus the write-back-cache sweep.  Returns
/// true when both acceptance claims hold: sharded(4)+depth4 >= 2x over
/// sharded(4)+depth1 at identical block-I/O counts, and the cached
/// ORAM-epoch row spends >= 30% fewer wire ops than uncached with identical
/// outputs.
bool run_stripe_grid(RemoteServer& server, std::uint64_t n_blocks,
                     std::size_t cache_blocks, std::uint64_t* store_counter,
                     std::string* json_rows) {
  bench::banner("E13", "striping x depth: split-phase ShardedBackend over the wire");
  bench::note("sharded(K) forwards begin/complete per shard, so K connections "
              "each carry their own in-flight window: K x depth frames on the "
              "wire; block I/Os identical across the grid by construction");

  auto make_params = [&](std::size_t shards, std::size_t depth, std::size_t cache,
                         bool prefetch) {
    ClientParams p;
    p.block_records = 4;
    p.cache_records = 4 * 64;
    p.seed = 1;
    p.pipeline_depth = depth;
    const std::uint64_t ns = (*store_counter += 16);
    ShardFactory per_shard = [&server, ns](std::size_t block_words,
                                           std::size_t shard) {
      RemoteBackendOptions ropts;
      ropts.host = server.host();
      ropts.port = server.port();
      ropts.store_id = ns | shard;
      return remote_backend(ropts)(block_words);
    };
    BackendFactory f = sharded_backend(std::move(per_shard), shards);
    if (cache > 0) f = caching_backend(std::move(f), cache);
    if (prefetch) f = async_backend(std::move(f));
    p.backend = std::move(f);
    return p;
  };

  bool ok = true;
  Table t({"shards", "depth", "block I/Os", "frames", "wall ms", "vs depth1"});
  std::uint64_t base_ios = 0;
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    double depth1_ms = 0;
    for (std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
      ClientParams p = make_params(shards, depth, 0, /*prefetch=*/depth > 1);
      Client c(p);
      ExtArray a = c.alloc_blocks(n_blocks, Client::Init::kUninit);
      c.poke(a, bench::random_records(n_blocks * c.B(), 2));
      c.reset_stats();
      const std::uint64_t frames_before = server.frames_served();
      const auto t0 = std::chrono::steady_clock::now();
      core::oblivious_sort(c, a, 7);
      const double ms = ms_between(t0, std::chrono::steady_clock::now());
      const std::uint64_t ios = c.stats().total();
      const std::uint64_t frames = server.frames_served() - frames_before;
      if (base_ios == 0) base_ios = ios;
      if (ios != base_ios) {
        bench::note("CLAIM VIOLATED: sharded" + std::to_string(shards) + "/depth" +
                    std::to_string(depth) + " changed the block I/O count (" +
                    std::to_string(ios) + " vs " + std::to_string(base_ios) + ")");
        ok = false;
      }
      if (depth == 1) depth1_ms = ms;
      const double speedup = depth1_ms > 0 ? depth1_ms / ms : 0.0;
      if (shards == 4 && depth == 4 && speedup < 2.0) {
        bench::note("CLAIM VIOLATED: sharded(4)+depth4 is only " +
                    Table::fmt(speedup, 2) + "x over sharded(4)+depth1");
        ok = false;
      }
      t.add_row({std::to_string(shards), std::to_string(depth), std::to_string(ios),
                 std::to_string(frames), Table::fmt(ms, 1),
                 depth == 1 ? "--" : Table::fmt(speedup, 2) + "x"});
      if (!json_rows->empty()) *json_rows += ",";
      *json_rows += "{\"work\":\"oblivious_sort\",\"shards\":" +
                    std::to_string(shards) + ",\"depth\":" + std::to_string(depth) +
                    ",\"cache_blocks\":0,\"block_ios\":" + std::to_string(ios) +
                    ",\"frames\":" + std::to_string(frames) +
                    ",\"wall_ms\":" + Table::fmt(ms, 3) +
                    ",\"speedup_vs_depth1\":" + Table::fmt(speedup, 3) + "}";
    }
  }
  t.print(std::cout);

  // The cache sweep: an ORAM epoch re-touches its stash on every access, so
  // a client-side write-back cache absorbs most of the wire traffic.
  bench::note("");
  bench::note("ORAM epoch on sharded(4)+depth4 (re-touching workload), cache off "
              "vs --cache-blocks=" + std::to_string(cache_blocks));
  Table ct({"cache (blocks)", "wire frames", "hit rate", "wall ms", "vs uncached"});
  std::uint64_t uncached_frames = 0;
  std::vector<std::uint64_t> uncached_values;
  for (std::size_t cache : {std::size_t{0}, cache_blocks}) {
    ClientParams p = make_params(4, 4, cache, /*prefetch=*/true);
    Client c(p);
    // Construction (the initial shuffle) is setup, like poke() in the other
    // works: the measured region is the epoch's ACCESS PHASE -- the
    // re-touching part, where every access re-scans the whole stash and
    // appends to it, so the cache serves the scan and absorbs the appends.
    // The access at used_ == sqrt(N) would trigger the epoch reshuffle (a
    // streaming sort, no reuse for any cache); stop one short of it.
    oram::SqrtOram o(c, 256, oram::ShuffleKind::kRandomized, /*seed=*/23);
    c.device().drain();
    const std::uint64_t frames_before = server.frames_served();
    CacheStats cs_before;
    if (const CachingBackend* cb = c.device().cache_backend()) cs_before = cb->stats();
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> values;
    for (std::uint64_t i = 0; i + 1 < o.epoch_length(); ++i)
      values.push_back(o.access((i * 7) % 256));
    c.device().drain();
    // Charge the cached row its deferred write-backs inside the measured
    // region, so the frame comparison against the uncached row (which paid
    // every write during the epoch) is apples-to-apples.
    if (CachingBackend* cb = c.device().cache_backend()) {
      Status fst = cb->flush();
      if (!fst.ok()) {
        bench::note("cache flush failed: " + fst.ToString());
        ok = false;
      }
    }
    const double ms = ms_between(t0, std::chrono::steady_clock::now());
    const std::uint64_t frames = server.frames_served() - frames_before;
    double hit_rate = 0.0;
    if (const CachingBackend* cb = c.device().cache_backend()) {
      const CacheStats cs = cb->stats();  // delta over the measured region
      const std::uint64_t h = cs.hits - cs_before.hits;
      const std::uint64_t m = cs.misses - cs_before.misses;
      hit_rate = h + m == 0 ? 0.0 : static_cast<double>(h) / static_cast<double>(h + m);
    }
    if (cache == 0) {
      uncached_frames = frames;
      uncached_values = values;
    } else {
      if (values != uncached_values) {
        bench::note("CLAIM VIOLATED: cached ORAM outputs diverged from uncached");
        ok = false;
      }
      if (frames * 10 > uncached_frames * 7) {
        bench::note("CLAIM VIOLATED: cached row spends " + std::to_string(frames) +
                    " wire frames vs " + std::to_string(uncached_frames) +
                    " uncached (< 30% saved)");
        ok = false;
      }
    }
    const double saved =
        uncached_frames > 0 && cache != 0
            ? 100.0 * (1.0 - static_cast<double>(frames) /
                                 static_cast<double>(uncached_frames))
            : 0.0;
    ct.add_row({std::to_string(cache), std::to_string(frames),
                cache == 0 ? "--" : Table::fmt(100.0 * hit_rate, 1) + "%",
                Table::fmt(ms, 1),
                cache == 0 ? "--" : Table::fmt(saved, 1) + "% fewer frames"});
    if (!json_rows->empty()) *json_rows += ",";
    *json_rows += "{\"work\":\"oram_epoch\",\"shards\":4,\"depth\":4,"
                  "\"cache_blocks\":" + std::to_string(cache) +
                  ",\"frames\":" + std::to_string(frames) +
                  ",\"hit_rate\":" + Table::fmt(hit_rate, 3) +
                  ",\"wall_ms\":" + Table::fmt(ms, 3) + "}";
  }
  ct.print(std::cout);
  bench::note(ok ? "E13 claims (sharded4 x depth4 >= 2x, cache >= 30% fewer "
                   "wire ops): MET"
                 : "E13 claims: NOT MET");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t n_blocks = flags.get_u64("blocks", 256);
  const std::uint64_t rtt_us = flags.get_u64("rtt-us", 100);
  const std::string json_path = flags.get("json", "");
  const std::string sharded_json_path = flags.get("sharded-json", "");
  const std::size_t cache_blocks =
      static_cast<std::size_t>(flags.get_u64("cache-blocks", 64));
  flags.validate_or_die();
  if (cache_blocks < 1) {
    std::fprintf(stderr, "--cache-blocks must be >= 1 for the E13 sweep\n");
    return 2;
  }

  bench::banner("E12", "remote block store over localhost TCP (" +
                           std::to_string(rtt_us) + "us simulated RTT)");
  bench::note("per-block vs batched vs depth-K wire pipelining; identical block "
              "I/Os by construction, only when the bytes cross the wire changes");

  RemoteServerOptions sopts;
  sopts.response_delay_ns = rtt_us * 1000;
  RemoteServer server(sopts);
  if (!server.health().ok()) {
    std::fprintf(stderr, "remote server: %s\n", server.health().ToString().c_str());
    return 1;
  }

  std::vector<WorkCase> works;
  works.push_back({"stream_copy", [](Client& c, std::uint64_t n) {
                     ExtArray src = c.alloc_blocks(n, Client::Init::kUninit);
                     ExtArray dst = c.alloc_blocks(n, Client::Init::kUninit);
                     c.poke(src, bench::random_records(n * c.B(), 7));
                     c.reset_stats();
                     const auto t0 = std::chrono::steady_clock::now();
                     pipelined_copy_pad(c, src, 0, dst, 0, n);
                     return ms_between(t0, std::chrono::steady_clock::now());
                   }});
  works.push_back({"oblivious_sort", [](Client& c, std::uint64_t n) {
                     ExtArray a = c.alloc_blocks(n, Client::Init::kUninit);
                     c.poke(a, bench::random_records(n * c.B(), 2));
                     c.reset_stats();
                     const auto t0 = std::chrono::steady_clock::now();
                     core::oblivious_sort(c, a, 7);
                     return ms_between(t0, std::chrono::steady_clock::now());
                   }});

  struct Cfg {
    const char* name;
    std::uint64_t io_batch;  // 0 = default window
    std::size_t depth;
    bool prefetch;
  };
  const std::vector<Cfg> cfgs = {{"per_block", 1, 1, false},
                                 {"batched_depth1", 0, 1, false},
                                 {"depth2_prefetch", 0, 2, true},
                                 {"depth4_prefetch", 0, 4, true},
                                 {"depth8_prefetch", 0, 8, true}};

  Table t({"work", "config", "block I/Os", "frames", "wall ms", "vs depth1"});
  std::string json_rows;
  bool claim_met = true;
  std::uint64_t next_store = 0;
  for (const WorkCase& work : works) {
    double depth1_ms = 0;
    std::uint64_t base_ios = 0;
    for (const Cfg& cfg : cfgs) {
      ClientParams p;
      p.block_records = 4;
      p.cache_records = 4 * 64;
      p.seed = 1;
      p.io_batch_blocks = cfg.io_batch;
      p.pipeline_depth = cfg.depth;
      RemoteBackendOptions ropts;
      ropts.host = server.host();
      ropts.port = server.port();
      ropts.store_id = next_store++;  // fresh namespace per run
      BackendFactory f = remote_backend(ropts);
      if (cfg.prefetch) f = async_backend(std::move(f));
      p.backend = std::move(f);
      Client c(p);
      const std::uint64_t frames_before = server.frames_served();
      const double ms = work.run(c, n_blocks);
      const std::uint64_t ios = c.stats().total();
      const std::uint64_t frames = server.frames_served() - frames_before;
      if (cfg.depth == 1 && cfg.io_batch == 0) {
        depth1_ms = ms;
        base_ios = ios;
      } else if (cfg.io_batch == 1) {
        base_ios = ios;
      } else if (ios != base_ios) {
        bench::note("WARNING: " + work.name + "/" + cfg.name +
                    " changed the block I/O count (" + std::to_string(ios) +
                    " vs " + std::to_string(base_ios) + ")");
      }
      const double speedup = depth1_ms > 0 ? depth1_ms / ms : 0.0;
      if (std::string(cfg.name) == "depth4_prefetch" && speedup < 2.0)
        claim_met = false;
      t.add_row({work.name, cfg.name, std::to_string(ios), std::to_string(frames),
                 Table::fmt(ms, 1),
                 depth1_ms > 0 ? Table::fmt(speedup, 2) + "x" : "--"});
      if (!json_rows.empty()) json_rows += ",";
      json_rows += "{\"work\":\"" + work.name + "\",\"config\":\"" + cfg.name +
                   "\",\"block_ios\":" + std::to_string(ios) +
                   ",\"frames\":" + std::to_string(frames) +
                   ",\"wall_ms\":" + Table::fmt(ms, 3) +
                   ",\"speedup_vs_depth1\":" + Table::fmt(speedup, 3) + "}";
    }
  }
  t.print(std::cout);
  bench::note(claim_met
                  ? "depth-4 pipelining >= 2x over depth-1 at this RTT: MET"
                  : "depth-4 pipelining >= 2x over depth-1 at this RTT: NOT MET");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"remote\",\"rtt_us\":" << rtt_us
        << ",\"blocks\":" << n_blocks << ",\"claim_depth4_ge_2x\":"
        << (claim_met ? "true" : "false") << ",\"rows\":[" << json_rows << "]}\n";
    bench::note("wrote " + json_path);
  }

  // E13: the striping x depth grid (store ids far above E12's).
  std::uint64_t store_counter = 1ull << 20;
  std::string sharded_rows;
  const bool grid_met =
      run_stripe_grid(server, n_blocks, cache_blocks, &store_counter, &sharded_rows);
  if (!sharded_json_path.empty()) {
    std::ofstream out(sharded_json_path);
    out << "{\"bench\":\"sharded_pipeline\",\"rtt_us\":" << rtt_us
        << ",\"blocks\":" << n_blocks
        << ",\"claim_sharded4_depth4_ge_2x_and_cache_ge_30pct\":"
        << (grid_met ? "true" : "false") << ",\"rows\":[" << sharded_rows << "]}\n";
    bench::note("wrote " + sharded_json_path);
  }
  return claim_met && grid_met ? 0 : 1;
}
