// E8 -- Theorem 21: randomized oblivious sort at O((N/B) log_{M/B}(N/B)).
//
// Three views:
//   E8a: measured I/O per block vs n for the randomized sort (forced
//        recursive regime) and the deterministic Lemma-2 sort -- the
//        reproducible lab-scale claim is the GROWTH RATE gap (log_m vs
//        log^2), reported as per-doubling growth factors.
//   E8b: cost-model extrapolation to the paper's asymptotic regime, showing
//        where the randomized sort's absolute win appears.
//   E8c: correctness/success summary + non-oblivious external merge sort
//        floor (the price of obliviousness).
//   E8d: storage-backend reality check -- the batched read_many/write_many
//        path vs per-block I/O on the file and latency backends, wall-clock.
//   E8e: the I/O engine -- sharded striping x async prefetch on a 2us-RTT
//        latency backend, wall-clock, plus its no-sleep CPU floor; gated,
//        optionally emitted as JSON for CI.
//
// Flags: --records=N scales every view (default 524288); --backend selects
// the storage for E8a-E8c (E8d/E8e always compare configurations
// explicitly); --json=PATH writes E8e's grid as a JSON artifact.  Exits 1
// when an E8e gate fails.
#include <chrono>
#include <cmath>
#include <fstream>
#include <iterator>

#include "bench_common.h"
#include "core/oblivious_sort.h"
#include "extmem/io_engine.h"
#include "sortnet/external_sort.h"
#include "util/math.h"

using namespace oem;

namespace {

core::ObliviousSortOptions shape_opts() {
  core::ObliviousSortOptions opts;
  opts.paper_dense_rule = false;  // lab scale is always "dense"; force the pipeline
  opts.sparse_quantiles = true;
  opts.quantiles.paper_intervals = false;
  opts.min_recursive_blocks = 2048;
  return opts;
}

struct E8aResult {
  double rand_pb_per_level = 0.0;  // measured rand I/O per block per level
  double det_c2 = 0.0;             // det I/O per block / log^2(n/(m/2)-runs)
};

E8aResult g_e8a;

void e8a(std::uint64_t n_max) {
  bench::banner("E8a", "randomized (Theorem 21) vs deterministic (Lemma 2): growth rates");
  bench::note("claim shape: rand per-block I/O ~ c1 * log_m(n) (one level per q-fold "
              "growth), det ~ c2 * log^2(n/m); growth columns show the gap");
  const std::size_t B = 8;
  const std::uint64_t m = 256;  // q = 4
  Table t({"n (blocks)", "rand I/O/blk", "rand growth", "det I/O/blk", "det growth",
           "levels", "ok"});
  Table phases({"n (blocks)", "quantiles", "distribution", "compaction", "leaf sorts",
                "assembly"});
  double prev_rand = 0, prev_det = 0;
  for (std::uint64_t n : {n_max / 16, n_max / 4, n_max}) {
    if (n == 0) continue;
    Client c(bench::params(B, m * B));
    ExtArray a = c.alloc(n * B, Client::Init::kUninit);
    c.poke(a, bench::random_records(n * B, 2));
    c.reset_stats();
    ExtArray out;
    auto res = core::oblivious_sort_padded(c, a, &out, 5, shape_opts());
    const double rand_pb =
        static_cast<double>(c.stats().total()) / static_cast<double>(n);
    const double det_pb =
        static_cast<double>(sortnet::ext_sort_predicted_ios(n, m)) /
        static_cast<double>(n);
    t.add_row({std::to_string(n), Table::fmt(rand_pb, 0),
               prev_rand ? Table::fmt(rand_pb / prev_rand, 2) : "-",
               Table::fmt(det_pb, 0),
               prev_det ? Table::fmt(det_pb / prev_det, 2) : "-",
               std::to_string(res.stats.levels), res.status.ok() ? "yes" : "NO"});
    bench::engine_stats_note(c, "n=" + std::to_string(n));
    const core::SortPhaseIos& ph = res.stats.phase_ios;
    auto cell = [&](std::uint64_t ios) {
      return Table::fmt(static_cast<double>(ios) / static_cast<double>(n), 0) + " (" +
             Table::fmt(100.0 * static_cast<double>(ios) /
                            static_cast<double>(std::max<std::uint64_t>(1, ph.total())),
                        0) +
             "%)";
    };
    phases.add_row({std::to_string(n), cell(ph.quantiles), cell(ph.distribution),
                    cell(ph.compaction), cell(ph.leaf_sorts), cell(ph.assembly)});
    prev_rand = rand_pb;
    prev_det = det_pb;
    g_e8a.rand_pb_per_level =
        rand_pb / std::max(1.0, static_cast<double>(res.stats.levels));
    const double lg = std::log2(static_cast<double>(n) / (m / 2.0));
    g_e8a.det_c2 = det_pb / (lg * lg);
  }
  t.print(std::cout);
  bench::note("rand I/O per block by phase (share of the padded sort): quantiles = "
              "occupancy scan + Theorem 17, distribution = multiway consolidation + "
              "shuffle + deal, compaction = step 5 (Theorem 8 / Theorem 6 fallback), "
              "leaf sorts = deterministic leaves, assembly = level copies + sweep");
  phases.print(std::cout);
}

void e8b() {
  bench::banner("E8b", "cost-model extrapolation (calibrated from E8a's measurements)");
  bench::note("rand(n)/n = c1 * log_{q+1}(n), det(n)/n = c2 * log^2(n/m): the ratio "
              "det/rand grows like log(n) -- the paper's saved factor.  With THIS "
              "implementation's constants (c1/c2 printed below) the absolute crossover "
              "sits far beyond practical sizes; the reproduced claim is the growth gap.");
  const double m = 256.0, q1 = 5.0;
  const double c1 = g_e8a.rand_pb_per_level > 0 ? g_e8a.rand_pb_per_level : 900.0;
  const double c2 = g_e8a.det_c2 > 0 ? g_e8a.det_c2 : 1.5;
  Table t({"n (blocks)", "levels", "rand I/O/blk", "det I/O/blk", "det/rand"});
  for (double lg2 = 20; lg2 <= 100; lg2 += 20) {
    const double n = std::pow(2.0, lg2);
    const double levels = std::max(1.0, (lg2 - 11.0) * std::log(2.0) / std::log(q1));
    const double rand_pb = c1 * levels;
    const double lgnm = lg2 - std::log2(m / 2.0);
    const double det_pb = c2 * lgnm * lgnm;
    t.add_row({"2^" + Table::fmt(lg2, 0), Table::fmt(levels, 1),
               Table::fmt(rand_pb, 0), Table::fmt(det_pb, 0),
               Table::fmt(det_pb / rand_pb, 2)});
  }
  t.print(std::cout);
  // Crossover: c1 * (ln2/ln q1) * (lg n - 11) = c2 * (lg n - 7)^2.
  const double a = std::log(2.0) / std::log(q1);
  double lo = 12, hi = 400;
  for (int it = 0; it < 60; ++it) {
    const double mid = (lo + hi) / 2;
    if (c2 * (mid - 7) * (mid - 7) < c1 * a * (mid - 11)) lo = mid;
    else hi = mid;
  }
  std::cout << "estimated absolute crossover: n ~ 2^" << Table::fmt(hi, 0)
            << " blocks (c1=" << Table::fmt(c1, 1) << ", c2=" << Table::fmt(c2, 2)
            << ")\n";
}

void e8c(std::uint64_t n_max) {
  bench::banner("E8c", "the price of obliviousness: non-oblivious merge-sort floor");
  bench::note("a non-oblivious external merge sort uses ~2n*ceil(log_m(n/m)+1) I/Os; both "
              "oblivious sorts pay a polylog factor over it (the paper's Theorem 21 "
              "closes the gap to a single log)");
  const std::size_t B = 8;
  Table t({"n (blocks)", "m", "merge-sort floor", "det oblivious", "rand oblivious",
           "det/floor", "rand/floor"});
  const std::uint64_t m = 256;
  for (std::uint64_t n : {n_max / 4, n_max}) {
    if (n == 0) continue;
    const double floor_io =
        2.0 * static_cast<double>(n) *
        (std::ceil(log_base(static_cast<double>(n) / static_cast<double>(m),
                            static_cast<double>(m))) +
         1.0);
    const double det = static_cast<double>(sortnet::ext_sort_predicted_ios(n, m));
    Client c(bench::params(B, m * B));
    ExtArray a = c.alloc(n * B, Client::Init::kUninit);
    c.poke(a, bench::random_records(n * B, 2));
    c.reset_stats();
    ExtArray out;
    (void)core::oblivious_sort_padded(c, a, &out, 5, shape_opts());
    const double rnd = static_cast<double>(c.stats().total());
    t.add_row({std::to_string(n), std::to_string(m), Table::fmt(floor_io, 0),
               Table::fmt(det, 0), Table::fmt(rnd, 0),
               Table::fmt(det / floor_io, 1), Table::fmt(rnd / floor_io, 1)});
  }
  t.print(std::cout);
}

// E8d: the storage seam made measurable.  The identical deterministic
// oblivious sort (same block I/Os, same trace) runs against a real backend
// twice: once with the batch window forced to 1 block (per-block I/O, the
// seed's behavior) and once with the default coalescing window (m/4 blocks).
// On the file backend the win is syscall coalescing; on the latency backend
// it is round-trip amortization.
void e8d(std::uint64_t records) {
  bench::banner("E8d", "batched read_many/write_many vs per-block I/O (real backends)");
  bench::note("same sort, same trace, same block I/Os -- only the transfer granularity "
              "changes; 'backend ops' counts coalesced backend calls");
  const std::size_t B = 8;
  const std::uint64_t m = 256;

  struct Config {
    std::string backend_name;
    BackendFactory factory;
    std::uint64_t n_blocks;
  };
  // The latency rows model a 2us-RTT store and sleep for real, so they run
  // at a smaller n; the file rows exercise real syscalls at full size.
  const std::uint64_t file_blocks = std::min<std::uint64_t>(records / B, 8192);
  const std::uint64_t lat_blocks = std::min<std::uint64_t>(records / B, 1024);
  LatencyProfile lan;
  lan.per_op_ns = 2000;
  lan.per_word_ns = 2;
  std::vector<Config> configs = {
      {"file", file_backend(), file_blocks},
      {"latency(2us)", latency_backend({}, lan), lat_blocks},
  };

  Table t({"backend", "n (blocks)", "batch (blocks)", "block I/Os", "backend ops",
           "wall ms", "speedup"});
  for (const auto& cfg : configs) {
    double per_block_ms = 0;
    for (std::uint64_t batch : {std::uint64_t{1}, std::uint64_t{0}}) {  // 0 = auto
      ClientParams p = bench::params(B, m * B);
      p.backend = cfg.factory;
      p.io_batch_blocks = batch;
      Client c(p);
      ExtArray a = c.alloc_blocks(cfg.n_blocks, Client::Init::kUninit);
      c.poke(a, bench::random_records(cfg.n_blocks * B, 2));
      c.reset_stats();
      const auto t0 = std::chrono::steady_clock::now();
      sortnet::ext_oblivious_sort(c, a);
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(t1 - t0)
              .count();
      if (batch == 1) per_block_ms = ms;
      t.add_row({cfg.backend_name, std::to_string(cfg.n_blocks),
                 batch == 1 ? "1 (per-block)" : std::to_string(c.io_batch_blocks()),
                 std::to_string(c.stats().total()),
                 std::to_string(c.stats().total_ops()), Table::fmt(ms, 1),
                 batch == 1 ? "1.00x" : Table::fmt(per_block_ms / ms, 2) + "x"});
    }
  }
  t.print(std::cout);
}

// E8e: the I/O engine end to end.  The identical deterministic oblivious
// sort (same block I/Os, same trace -- the trace-equivalence suite proves
// it) runs against a 2us-RTT latency-modeled store in four configurations:
// {1, 4} shards x {off, on} prefetch.  Sharding makes the four simulated
// links stream in parallel; prefetch overlaps each pass's compute with the
// next window's I/O through the AsyncBackend.  Two companion rows run the
// same stores with no sleeps, so the striping engine's own CPU cost cannot
// hide behind modeled latency.  Gates (exit code): 4 shards + prefetch >=
// 2.5x over 1 shard off, and sharded(4) without sleeps within 1.25x of the
// unsharded wall.  Returns false when a gate fails.
bool e8e(const std::string& json_path) {
  bench::banner("E8e", "I/O engine: sharded striping x async prefetch (latency backend)");
  bench::note("same sort, same per-block trace; each store models a 2us-RTT, "
              "~640 Mbps link (100ns/word), slept for real -- wall-clock is the "
              "whole point: striping streams 4 links at once, prefetch hides "
              "the client's compute inside the transfer time; the no-sleep "
              "rows are the CPU floor; every row is the best of 10 runs");
  // Fixed lab size (like E8d's caps): enough network passes that per-pass
  // engine overheads amortize, small enough that every run stays short.
  const std::size_t B = 8;
  const std::uint64_t m = 256;
  const std::uint64_t n_blocks = 1024;
  // Single prefetch runs spread widely on a shared 4-vCPU host (7-38 ms for
  // the 4-shard row, about half of them slow); the best of 10 is stable.
  constexpr int kReps = 10;
  constexpr double kMinSpeedup = 2.5;
  constexpr double kMaxFloorRatio = 1.25;
  LatencyProfile lan;
  lan.per_op_ns = 2000;
  lan.per_word_ns = 100;

  struct Cfg {
    std::size_t shards;
    bool prefetch;
    bool sleep;
  };
  const Cfg cfgs[] = {{1, false, true}, {4, false, true},  {1, true, true},
                      {4, true, true},  {1, false, false}, {4, false, false}};

  Table t({"shards", "prefetch", "sleep", "block I/Os", "wall ms", "records/s",
           "speedup"});
  double sleep_base_ms = 0, floor_base_ms = 0, speedup_4_on = 0, floor_ratio = 0;
  std::string json_rows;
  // One timed sort; returns wall ms and sets `ios` to its block I/O count.
  auto run_once = [&](const Cfg& cfg, std::uint64_t& ios) {
    LatencyProfile profile = lan;
    profile.lanes = cfg.shards;  // parallel-disk model over the striped store
    profile.real_sleep = cfg.sleep;
    BackendFactory f;
    if (cfg.shards > 1) f = sharded_backend(BackendFactory{}, cfg.shards);
    f = latency_backend(std::move(f), profile);
    if (cfg.prefetch) f = async_backend(std::move(f));
    ClientParams p = bench::params(B, m * B);
    p.backend = std::move(f);
    // One backend op per merge-split pass (2 runs = m blocks): the engine
    // view measures striping + overlap, not window-size effects (E8d does).
    p.io_batch_blocks = m;
    Client c(p);
    ExtArray a = c.alloc_blocks(n_blocks, Client::Init::kUninit);
    c.poke(a, bench::random_records(n_blocks * B, 2));
    c.reset_stats();
    const auto t0 = std::chrono::steady_clock::now();
    sortnet::ext_oblivious_sort(c, a);
    const auto t1 = std::chrono::steady_clock::now();
    ios = c.stats().total();
    return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(t1 - t0)
        .count();
  };
  // Repetitions go round-robin over the rows, so a slow spell on a shared
  // host lands on different rows in different rounds instead of on every
  // repetition of one row.
  constexpr std::size_t kRows = std::size(cfgs);
  double best_ms[kRows] = {};
  std::uint64_t row_ios[kRows] = {};
  for (int rep = 0; rep < kReps; ++rep)
    for (std::size_t r = 0; r < kRows; ++r) {
      const double ms = run_once(cfgs[r], row_ios[r]);
      if (rep == 0 || ms < best_ms[r]) best_ms[r] = ms;
    }
  for (std::size_t r = 0; r < kRows; ++r) {
    const Cfg& cfg = cfgs[r];
    const double ms = best_ms[r];
    const std::uint64_t ios = row_ios[r];
    double& base_ms = cfg.sleep ? sleep_base_ms : floor_base_ms;
    if (cfg.shards == 1 && !cfg.prefetch) base_ms = ms;
    const double rps = static_cast<double>(n_blocks * B) / (ms / 1000.0);
    const double speedup = base_ms / ms;
    if (cfg.sleep && cfg.shards == 4 && cfg.prefetch) speedup_4_on = speedup;
    if (!cfg.sleep && cfg.shards == 4) floor_ratio = ms / base_ms;
    t.add_row({std::to_string(cfg.shards), cfg.prefetch ? "on" : "off",
               cfg.sleep ? "real" : "none", std::to_string(ios), Table::fmt(ms, 1),
               Table::fmt(rps, 0), Table::fmt(speedup, 2) + "x"});
    if (!json_rows.empty()) json_rows += ",";
    json_rows += "{\"shards\":" + std::to_string(cfg.shards) +
                 ",\"prefetch\":" + (cfg.prefetch ? "true" : "false") +
                 ",\"real_sleep\":" + (cfg.sleep ? "true" : "false") +
                 ",\"wall_ms\":" + Table::fmt(ms, 3) +
                 ",\"records_per_s\":" + Table::fmt(rps, 0) +
                 ",\"speedup\":" + Table::fmt(speedup, 3) + "}";
  }
  t.print(std::cout);
  const bool speedup_ok = speedup_4_on >= kMinSpeedup;
  const bool floor_ok = floor_ratio <= kMaxFloorRatio;
  bench::note("4 shards + prefetch: " + Table::fmt(speedup_4_on, 2) +
              "x over 1 shard off (gate: >= " + Table::fmt(kMinSpeedup, 2) + "x) -- " +
              (speedup_ok ? "ok" : "GATE FAILED"));
  bench::note("no sleeps: sharded(4) takes " + Table::fmt(floor_ratio, 2) +
              "x the unsharded wall (gate: <= " + Table::fmt(kMaxFloorRatio, 2) +
              "x) -- " + (floor_ok ? "ok" : "GATE FAILED"));
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"io_engine\",\"records\":" << n_blocks * B
        << ",\"per_op_ns\":2000,\"per_word_ns\":100,\"reps\":" << kReps
        << ",\"speedup_4_shards_prefetch\":" << Table::fmt(speedup_4_on, 3)
        << ",\"no_sleep_sharded_ratio\":" << Table::fmt(floor_ratio, 3)
        << ",\"gates_met\":" << (speedup_ok && floor_ok ? "true" : "false")
        << ",\"rows\":[" << json_rows << "]}\n";
    bench::note("wrote " + json_path);
  }
  return speedup_ok && floor_ok;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t records = flags.get_u64("records", 524288);
  const std::string json_path = flags.get("json", "");
  bench::set_backend_from_flags(flags);  // consumes --backend, --shards, --prefetch
  flags.validate_or_die();
  const std::uint64_t n_max = std::max<std::uint64_t>(records / 8, 16);  // B = 8
  e8a(n_max);
  e8b();
  e8c(n_max);
  e8d(records);
  return e8e(json_path) ? 0 : 1;
}
