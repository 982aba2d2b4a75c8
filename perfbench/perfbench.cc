// perfbench: the repository benchmark harness.
//
//   perfbench --workload=sort-rand|sort-remote|oram-file --seed=N --seconds=S
//             --trace=0|1 [--trace-out=PATH]
//
// One process, one client, closed loop.  The sorts run whole rounds for at
// most --seconds, the ORAM a fixed number of rounds.  Before the first round
// and after each one, the end-to-end run sets the workload up again and again
// on a second stack for kSetupSliceSeconds; the median of all those set-ups is
// setup_s.  Spread over the run, they see the same host speed as the rounds.
//
//   sort-rand    Theorem 21 with forced recursion on 65,536 random records
//                (B=8, M=2,048), in-memory store, one compute lane.
//   sort-remote  the default Session::sort (Lemma 2 at this size) on the same
//                geometry, blocks in a spawned `oem-server --backend=mem`,
//                client stack sharded(2)+async_prefetch.  Client and server
//                share one CPU: threads that wake each other across vCPUs
//                made the sort time bimodal (up to 2-3x) whenever the VM
//                host preempted a vCPU.  On one CPU, wall time is the whole
//                CPU cost of client, engine, loopback and server.
//   oram-file    square-root ORAM over 8,192 items on a file store under
//                cache(256); a round is 2,500 uniform accesses rounded up
//                to whole epochs, and a run is kOramRounds rounds on one
//                ORAM.  The ORAM's arena grows with every reshuffle; if
//                that ever slows later rounds, a round count that followed
//                the host's speed would move the medians with it.
//
// Every sort is checked against std::sort of its input and every ORAM access
// against Oram::expected_value; a wrong or failed operation counts in
// `failed` and makes the exit code non-zero.
//
// --trace=0 prints the end-to-end metrics.  --trace=1 first runs the rounds on
// the plain stack, then rebuilds the stack with a ProbeBackend over each base
// store and runs as many rounds again with root spans around every Session
// call.  It checks that the probed rounds match the plain ones (trace hash,
// IoStats counts, round 0's outputs), prints each layer's self time against
// wall time and the tracing overhead (median round wall time, probed minus
// plain), and writes the spans and histograms to --trace-out when it ends.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/session.h"
#include "extmem/io_engine.h"
#include "extmem/remote.h"
#include "probe.h"
#include "rng/random.h"
#include "server/subprocess.h"
#include "util/flags.h"

namespace perfbench {
namespace {

constexpr std::size_t kBlockRecords = 8;        // B
constexpr std::uint64_t kCacheRecords = 2048;   // M
constexpr std::uint64_t kSortRecords = 65536;   // N = 8,192 blocks
constexpr std::uint64_t kOramItems = 8192;
constexpr std::size_t kOramCacheBlocks = 256;
constexpr std::uint64_t kOramRoundAccesses = 2500;
constexpr std::size_t kOramRounds = 20;  // about 25 s on the reference host
constexpr double kSetupSliceSeconds = 0.2;
constexpr std::size_t kMinSetupsPerSlice = 2;

enum class Workload { kSortRand, kSortRemote, kOramFile };

struct Options {
  Workload workload = Workload::kSortRand;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

struct Failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

std::string num(double x) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), x);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

std::uint64_t cpu_ns_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& t) {
    return static_cast<std::uint64_t>(t.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(t.tv_usec) * 1000ULL;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// utime + stime of another process, from /proc/<pid>/stat.
std::uint64_t cpu_ns_of(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  std::uint64_t utime = 0, stime = 0;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int f = 3; f <= 15 && rest >> field; ++f) {
    if (f == 14) utime = std::stoull(field);
    if (f == 15) stime = std::stoull(field);
  }
  const auto tick = static_cast<std::uint64_t>(sysconf(_SC_CLK_TCK));
  return (utime + stime) * (1'000'000'000ULL / tick);
}

// ---------------------------------------------------------------------------
// Inputs: a pure function of (seed, round).

std::vector<oem::Record> sort_input(std::uint64_t seed, std::uint64_t round) {
  oem::rng::Xoshiro rng(oem::rng::mix64(seed ^ (0x5ee0ULL + round)));
  std::vector<oem::Record> v(kSortRecords);
  for (std::uint64_t i = 0; i < kSortRecords; ++i) {
    oem::Word key = rng.next();
    if (key == oem::kEmptyKey) key = 0;
    v[i] = {key, i};
  }
  return v;
}

std::vector<std::uint64_t> oram_indices(std::uint64_t seed, std::uint64_t round,
                                        std::uint64_t count) {
  oem::rng::Xoshiro rng(oem::rng::mix64(seed ^ (0x0a11ULL + round)));
  std::vector<std::uint64_t> v(count);
  for (auto& i : v) i = rng.next() % kOramItems;
  return v;
}

/// The output must be std::sort of the input: the same keys in the same
/// positions (ties may keep any value order) and the same records overall.
bool sorted_correctly(std::vector<oem::Record> out, std::vector<oem::Record> in) {
  if (out.size() != in.size()) return false;
  std::sort(in.begin(), in.end(), oem::RecordLess{});
  for (std::size_t i = 0; i < in.size(); ++i)
    if (out[i].key != in[i].key) return false;
  std::sort(out.begin(), out.end(), oem::RecordLess{});
  return out == in;
}

oem::core::ObliviousSortOptions sort_options(Workload w) {
  oem::core::ObliviousSortOptions opts;
  if (w == Workload::kSortRand) {
    // E8a's public shape options: Theorem 21's recursion engages at lab scale.
    opts.paper_dense_rule = false;
    opts.sparse_quantiles = true;
    opts.quantiles.paper_intervals = false;
    opts.min_recursive_blocks = 2048;
  }
  return opts;
}

// ---------------------------------------------------------------------------
// Spans.

struct RootSpan {
  std::uint64_t id = 0;
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t crypto_ns = 0;   // IoStats::crypto_ns spent inside the call
  std::uint64_t compute_ns = 0;  // IoStats::compute_ns spent inside the call
};

struct LocalSpan {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Times Session calls (root spans) and the harness's own work (local spans).
/// With tracing off it only times; with tracing on it also publishes the
/// open root span's id to the probes and keeps every span.
class Recorder {
 public:
  explicit Recorder(bool tracing) : tracing_(tracing) {}

  template <class F>
  std::uint64_t root(oem::Session& s, const char* name, F&& f) {
    if (!tracing_) {
      const std::uint64_t t0 = now_ns();
      f();
      return now_ns() - t0;
    }
    RootSpan span;
    span.id = ++next_id_;
    span.name = name;
    const oem::IoStats before = s.stats();
    ctx_.current_root.store(span.id, std::memory_order_relaxed);
    span.start_ns = now_ns();
    f();
    span.end_ns = now_ns();
    ctx_.current_root.store(0, std::memory_order_relaxed);
    const oem::IoStats& after = s.stats();
    span.crypto_ns = after.crypto_ns - before.crypto_ns;
    span.compute_ns = after.compute_ns - before.compute_ns;
    roots_.push_back(span);
    return span.end_ns - span.start_ns;
  }

  template <class F>
  void local(const char* name, F&& f) {
    if (!tracing_) {
      f();
      return;
    }
    LocalSpan span{name, now_ns(), 0};
    f();
    span.end_ns = now_ns();
    locals_.push_back(span);
  }

  const SpanContext& context() const { return ctx_; }
  const std::vector<RootSpan>& roots() const { return roots_; }
  const std::vector<LocalSpan>& locals() const { return locals_; }

 private:
  bool tracing_;
  SpanContext ctx_;
  std::uint64_t next_id_ = 0;
  std::vector<RootSpan> roots_;
  std::vector<LocalSpan> locals_;
};

// ---------------------------------------------------------------------------
// The storage stack.

/// One built session and whatever it needs alive: the spawned server (for
/// sort-remote) and the probes over its base stores (traced stacks only).
/// The session is declared last so it is torn down before the server.
struct Stack {
  std::unique_ptr<oem::server::SpawnedServer> server;
  std::shared_ptr<std::vector<ProbeBackend*>> probes =
      std::make_shared<std::vector<ProbeBackend*>>();
  std::optional<oem::Session> session;
};

/// Remote stores for a sharded stack: every call builds the next shard's
/// store, each with its own store id (namespace | shard) and connection.
oem::BackendFactory remote_shards(std::string host, std::uint16_t port,
                                  std::uint64_t store_namespace) {
  auto next_shard = std::make_shared<std::uint64_t>(0);
  return [host = std::move(host), port, store_namespace,
          next_shard](std::size_t block_words) -> std::unique_ptr<oem::StorageBackend> {
    oem::RemoteBackendOptions opts;
    opts.host = host;
    opts.port = port;
    opts.store_id = store_namespace | (*next_shard)++;
    return std::make_unique<oem::RemoteBackend>(block_words, opts);
  };
}

/// Pins the calling thread to the last CPU it may run on.  Threads and
/// processes it starts afterwards inherit the mask.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

/// Builds the workload's stack.  With `probes` set, each base store is
/// wrapped in a ProbeBackend; otherwise the identical stack without them.
std::unique_ptr<Stack> build_stack(const Options& o, const SpanContext* probes) {
  auto st = std::make_unique<Stack>();
  oem::Session::Builder b;
  b.block_records(kBlockRecords).cache_records(kCacheRecords).seed(oem::rng::mix64(o.seed));
  oem::BackendFactory base;
  switch (o.workload) {
    case Workload::kSortRand:
      base = oem::mem_backend();
      break;
    case Workload::kSortRemote: {
      st->server = std::make_unique<oem::server::SpawnedServer>(
          oem::server::default_server_binary(),
          std::vector<std::string>{"--backend=mem"});
      if (!st->server->health().ok())
        throw Failure("oem-server spawn: " + st->server->health().ToString());
      const std::uint64_t ns = oem::rng::mix64(o.seed ^ 0x5707eULL) & ~std::uint64_t{0x3ff};
      base = remote_shards(st->server->host(), st->server->port(), ns);
      b.sharded(2).async_prefetch();
      break;
    }
    case Workload::kOramFile:
      base = oem::file_backend();  // a fresh temp file under $TMPDIR
      b.cache(kOramCacheBlocks);
      break;
  }
  if (probes != nullptr) base = probe_backend(std::move(base), *probes, st->probes);
  b.backend(std::move(base));
  auto built = b.build();
  if (!built.ok()) throw Failure("session build: " + built.status().ToString());
  st->session.emplace(std::move(built).value());
  return st;
}

struct ProbeTotals {
  std::uint64_t ops = 0, blocks = 0, busy_ns = 0, blocking_ns = 0;
  std::vector<std::uint64_t> shard_blocks;
  LogHistogram latency;
};

ProbeTotals probe_totals(const Stack& st) {
  ProbeTotals t;
  for (const ProbeBackend* p : *st.probes) {
    const ProbeStats s = p->stats();
    t.ops += s.ops;
    t.blocks += s.blocks;
    t.busy_ns += s.busy_ns;
    t.blocking_ns += s.blocking_ns;
    t.shard_blocks.push_back(s.blocks);
    t.latency.merge(s.op_latency);
  }
  return t;
}

// ---------------------------------------------------------------------------
// One workload run on one stack.

/// What one round did.  Counts and outputs are exact; times are wall clock.
struct Round {
  std::vector<double> op_ms;       // per sort call, or per ORAM access
  std::vector<bool> reshuffled;    // ORAM: did this access reshuffle?
  std::uint64_t records = 0;       // records sorted or accessed
  std::uint64_t op_ns = 0;         // summed op time
  std::uint64_t ios = 0;           // block I/Os of the ops
  std::uint64_t arena_blocks = 0;  // arena size after the op(s)
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t wall_ns = 0;
  double peak_rss_mb = 0;          // process high-water mark after the round
  std::uint64_t trace_hash = 0;
  oem::IoStats io;                 // IoStats delta over the ops
  oem::CacheStats cache;           // cache-counter delta over the ops
  oem::core::SortStats sort_stats;
  oem::oram::SqrtOramStats oram;   // ORAM-counter delta over the round
  std::vector<oem::Record> sorted;     // sort output
  std::vector<std::uint64_t> values;   // ORAM access results
};

oem::IoStats io_delta(const oem::IoStats& a, const oem::IoStats& b) {
  oem::IoStats d;
  d.reads = b.reads - a.reads;
  d.writes = b.writes - a.writes;
  d.read_ops = b.read_ops - a.read_ops;
  d.write_ops = b.write_ops - a.write_ops;
  d.drained_reads = b.drained_reads - a.drained_reads;
  d.drained_writes = b.drained_writes - a.drained_writes;
  d.drained_read_ops = b.drained_read_ops - a.drained_read_ops;
  d.drained_write_ops = b.drained_write_ops - a.drained_write_ops;
  d.compute_ns = b.compute_ns - a.compute_ns;
  d.crypto_ns = b.crypto_ns - a.crypto_ns;
  return d;
}

bool same_counts(const oem::IoStats& a, const oem::IoStats& b) {
  return a.reads == b.reads && a.writes == b.writes && a.read_ops == b.read_ops &&
         a.write_ops == b.write_ops && a.drained_reads == b.drained_reads &&
         a.drained_writes == b.drained_writes &&
         a.drained_read_ops == b.drained_read_ops &&
         a.drained_write_ops == b.drained_write_ops;
}

oem::CacheStats cache_delta(const oem::CacheStats& a, const oem::CacheStats& b) {
  oem::CacheStats d;
  d.hits = b.hits - a.hits;
  d.misses = b.misses - a.misses;
  d.absorbed_writes = b.absorbed_writes - a.absorbed_writes;
  d.writebacks = b.writebacks - a.writebacks;
  d.writeback_ops = b.writeback_ops - a.writeback_ops;
  d.evictions = b.evictions - a.evictions;
  d.flush_failures = b.flush_failures - a.flush_failures;
  d.admission_rejects = b.admission_rejects - a.admission_rejects;
  return d;
}

class Runner {
 public:
  Runner(const Options& o, Recorder& rec) : o_(o), rec_(rec) {}

  /// Builds the stack and brings it to the start of round 0; returns the
  /// set-up time (build, server spawn, outsource or open_oram).
  std::uint64_t setup(const SpanContext* probes) {
    oram_.reset();
    stack_.reset();
    if (o_.workload != Workload::kOramFile && input_.empty()) input_ = sort_input(o_.seed, 0);
    const std::uint64_t t0 = now_ns();
    stack_ = build_stack(o_, probes);
    oem::Session& s = *stack_->session;
    if (o_.workload == Workload::kOramFile) {
      auto opened = s.open_oram(kOramItems, oem::oram::ShuffleKind::kRandomized);
      if (!opened.ok()) throw Failure("open_oram: " + opened.status().ToString());
      oram_.emplace(std::move(opened).value());
    } else {
      auto a = s.outsource(input_);
      if (!a.ok()) throw Failure("outsource: " + a.status().ToString());
      array_ = *a;
    }
    return now_ns() - t0;
  }

  Round round(std::uint64_t r) {
    Round out = o_.workload == Workload::kOramFile ? oram_round(r) : sort_round(r);
    out.peak_rss_mb = peak_rss_mb();
    return out;
  }

  Stack& stack() { return *stack_; }
  void teardown() {
    oram_.reset();
    stack_.reset();
  }

 private:
  Round sort_round(std::uint64_t r) {
    oem::Session& s = *stack_->session;
    Round out;
    const std::uint64_t t0 = now_ns();
    if (r > 0) {
      rec_.local("generate", [&] { input_ = sort_input(o_.seed, r); });
      rec_.root(s, "outsource", [&] {
        auto a = s.outsource(input_);
        if (!a.ok()) throw Failure("outsource: " + a.status().ToString());
        array_ = *a;
      });
    }
    s.trace().reset();
    const oem::IoStats io0 = s.stats();
    const oem::CacheStats c0 = s.cache_stats();
    const auto opts = sort_options(o_.workload);
    std::optional<oem::Result<oem::SortReport>> rep;
    const std::uint64_t op = rec_.root(s, "sort", [&] { rep.emplace(s.sort(array_, 0, opts)); });
    out.trace_hash = s.trace().hash();
    out.io = io_delta(io0, s.stats());
    out.cache = cache_delta(c0, s.cache_stats());
    out.arena_blocks = s.arena_blocks();
    out.op_ms.push_back(ms(op));
    out.op_ns = op;
    out.records = kSortRecords;
    out.attempted = 1;
    bool ok = rep->ok();
    if (!ok) std::fprintf(stderr, "sort failed: %s\n", rep->status().ToString().c_str());
    if (ok) {
      out.ios = (*rep)->ios;
      out.sort_stats = (*rep)->stats;
      rec_.root(s, "retrieve", [&] {
        auto got = s.retrieve(array_);
        if (got.ok()) out.sorted = std::move(got).value();
        ok = got.ok();
      });
      rec_.local("verify", [&] { ok = ok && sorted_correctly(out.sorted, input_); });
      if (!ok) std::fprintf(stderr, "sort round %llu: wrong output\n",
                            static_cast<unsigned long long>(r));
      if (r > 0) out.sorted = {};  // only round 0's output is compared later
    }
    out.failed = ok ? 0 : 1;
    rec_.root(s, "discard", [&] {
      s.discard(array_);
      s.compact_arena();
    });
    out.wall_ns = now_ns() - t0;
    return out;
  }

  Round oram_round(std::uint64_t r) {
    oem::Session& s = *stack_->session;
    oem::Oram& oram = *oram_;
    Round out;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t epoch = oram.epoch_length();
    const std::uint64_t count = (kOramRoundAccesses + epoch - 1) / epoch * epoch;
    std::vector<std::uint64_t> idx;
    rec_.local("generate", [&] { idx = oram_indices(o_.seed, r, count); });
    s.trace().reset();
    const oem::IoStats io0 = s.stats();
    const oem::CacheStats c0 = s.cache_stats();
    const oem::oram::SqrtOramStats o0 = oram.stats();
    out.op_ms.reserve(count);
    out.reshuffled.reserve(count);
    out.values.reserve(count);
    for (std::uint64_t i : idx) {
      const std::uint64_t shuffles = oram.stats().reshuffles;
      std::optional<oem::Result<std::uint64_t>> v;
      const std::uint64_t op = rec_.root(s, "access", [&] { v.emplace(oram.access(i)); });
      out.op_ms.push_back(ms(op));
      out.op_ns += op;
      out.reshuffled.push_back(oram.stats().reshuffles != shuffles);
      const bool ok = v->ok() && **v == oram.expected_value(i);
      out.values.push_back(v->ok() ? **v : ~std::uint64_t{0});
      ++out.attempted;
      if (!ok) ++out.failed;
    }
    if (r > 0) out.values = {};  // only round 0's results are compared later
    out.trace_hash = s.trace().hash();
    out.io = io_delta(io0, s.stats());
    out.cache = cache_delta(c0, s.cache_stats());
    out.ios = out.io.total();
    out.arena_blocks = s.arena_blocks();
    out.records = count;
    out.oram.accesses = oram.stats().accesses - o0.accesses;
    out.oram.reshuffles = oram.stats().reshuffles - o0.reshuffles;
    out.oram.access_ios = oram.stats().access_ios - o0.access_ios;
    out.oram.reshuffle_ios = oram.stats().reshuffle_ios - o0.reshuffle_ios;
    out.wall_ns = now_ns() - t0;
    return out;
  }

  const Options& o_;
  Recorder& rec_;
  std::vector<oem::Record> input_;
  std::unique_ptr<Stack> stack_;
  std::optional<oem::Oram> oram_;  // borrows stack_'s session: reset first
  oem::ExtArray array_;
};

/// Runs `count` rounds or, with `count` 0, whole rounds for at most `seconds`
/// (but at least one round): a round starts only if one more of the last
/// round's length still fits.  `between` runs before the first round and
/// after each one, inside the window.
template <class F>
std::vector<Round> run_rounds(Runner& run, double seconds, std::size_t count, F&& between) {
  std::vector<Round> rounds;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  between();
  do {
    rounds.push_back(run.round(rounds.size()));
    const Round& r = rounds.back();
    std::fprintf(stderr, "round %zu: %llu ops, op median %s ms, wall %s ms\n", rounds.size() - 1,
                 static_cast<unsigned long long>(r.attempted), num(median(r.op_ms)).c_str(),
                 num(ms(r.wall_ns)).c_str());
    between();
  } while (count > 0 ? rounds.size() < count : now_ns() + rounds.back().wall_ns <= deadline);
  return rounds;
}

/// The measured rounds of a run: a fixed number on the ORAM, a time window on
/// the sorts.
template <class F>
std::vector<Round> measured_rounds(Runner& run, const Options& o, F&& between) {
  return run_rounds(run, o.seconds, o.workload == Workload::kOramFile ? kOramRounds : 0,
                    std::forward<F>(between));
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
};

void add_rounds(Outcome& out, const std::vector<Round>& rounds) {
  for (const Round& r : rounds) {
    out.attempted += r.attempted;
    out.failed += r.failed;
  }
}

void print_result(const Outcome& out) {
  std::string json = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_table(const char* title, const std::vector<Metric>& rows) {
  std::printf("\n%s\n\n| metric | value | unit |\n|---|---:|---|\n", title);
  for (const Metric& m : rows)
    std::printf("| %s | %s | %s |\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
}

/// --trace=0: the end-to-end metrics.
Outcome end_to_end(const Options& o) {
  Recorder rec(false);
  Runner run(o, rec);
  Runner setups(o, rec);
  std::vector<double> setup_s;
  run.setup(nullptr);
  const std::vector<Round> rounds = measured_rounds(run, o, [&] {
    const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(kSetupSliceSeconds * 1e9);
    for (std::size_t i = 0; i < kMinSetupsPerSlice || now_ns() < end; ++i)
      setup_s.push_back(static_cast<double>(setups.setup(nullptr)) / 1e9);
    setups.teardown();
  });
  run.teardown();

  Outcome out;
  add_rounds(out, rounds);
  const Round& first = rounds.front();
  std::vector<double> ops, plain, reshuffles, throughput;
  for (const Round& r : rounds) {
    throughput.push_back(static_cast<double>(r.records) / (static_cast<double>(r.op_ns) / 1e9));
    for (std::size_t i = 0; i < r.op_ms.size(); ++i) {
      ops.push_back(r.op_ms[i]);
      if (r.reshuffled.empty()) continue;
      (r.reshuffled[i] ? reshuffles : plain).push_back(r.op_ms[i]);
    }
  }
  const bool oram = o.workload == Workload::kOramFile;
  const double input_blocks = static_cast<double>(
      (oram ? kOramItems : kSortRecords) / kBlockRecords);
  const double records_per_s = median(throughput);
  const double ios_per_record =
      static_cast<double>(first.ios) / static_cast<double>(first.records);
  out.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"op_p50_ms", median(oram ? plain : ops), "ms"},
      {"records_per_s", records_per_s, "1/s"},
      {"ios_per_record", ios_per_record, "count"},
      {"storage_amplification", static_cast<double>(first.arena_blocks) / input_blocks, "ratio"},
      {"client_peak_rss_mb", first.peak_rss_mb, "MB"},
  };

  // The same figures under the names a reader of the paper looks for.
  std::vector<Metric> table = out.metrics;
  table.push_back({"setups", static_cast<double>(setup_s.size()), "count"});
  table.push_back({"error_rate",
                   static_cast<double>(out.failed) / static_cast<double>(out.attempted),
                   "ratio"});
  if (oram) {
    table.push_back({"access_p50_us", median(plain) * 1e3, "us"});
    table.push_back({"access_p99_us", percentile(plain, 0.99) * 1e3, "us"});
    table.push_back({"reshuffle_p50_ms", median(reshuffles), "ms"});
    table.push_back({"accesses_per_s", records_per_s, "1/s"});
    table.push_back({"ios_per_access", ios_per_record, "count"});
    table.push_back({"accesses", static_cast<double>(ops.size()), "count"});
    table.push_back({"reshuffles", static_cast<double>(reshuffles.size()), "count"});
  } else {
    table.push_back({"sort_records_per_s", records_per_s, "1/s"});
    table.push_back({"ios_per_block", ios_per_record * kBlockRecords, "count"});
    table.push_back({"sorts", static_cast<double>(ops.size()), "count"});
  }
  print_table(("end-to-end: " + o.workload_name).c_str(), table);
  return out;
}

void write_trace(const Options& o, const Recorder& rec, const Stack& st,
                 std::uint64_t window_start, std::uint64_t window_end,
                 const std::vector<Metric>& layers) {
  std::ofstream f(o.trace_out);
  if (!f) {
    std::fprintf(stderr, "cannot write trace %s\n", o.trace_out.c_str());
    return;
  }
  f << "{\"workload\": \"" << o.workload_name << "\", \"seed\": " << o.seed
    << ", \"window_ns\": [" << window_start << ", " << window_end << "],\n\"layers\": {";
  for (std::size_t i = 0; i < layers.size(); ++i)
    f << (i ? ", " : "") << "\"" << layers[i].name << "\": " << num(layers[i].value);
  f << "},\n\"root_spans\": {\"columns\": [\"id\", \"name\", \"start_ns\", \"end_ns\", "
       "\"crypto_ns\", \"compute_ns\"], \"rows\": [";
  for (std::size_t i = 0; i < rec.roots().size(); ++i) {
    const RootSpan& s = rec.roots()[i];
    f << (i ? ",\n[" : "\n[") << s.id << ", \"" << s.name << "\", " << s.start_ns << ", "
      << s.end_ns << ", " << s.crypto_ns << ", " << s.compute_ns << "]";
  }
  f << "]},\n\"local_spans\": {\"columns\": [\"name\", \"start_ns\", \"end_ns\"], \"rows\": [";
  for (std::size_t i = 0; i < rec.locals().size(); ++i) {
    const LocalSpan& s = rec.locals()[i];
    f << (i ? ",\n[\"" : "\n[\"") << s.name << "\", " << s.start_ns << ", " << s.end_ns << "]";
  }
  f << "]},\n\"stores\": [";
  for (std::size_t p = 0; p < st.probes->size(); ++p) {
    const ProbeStats s = (*st.probes)[p]->stats();
    f << (p ? ",\n" : "\n") << "{\"shard\": " << p << ", \"ops\": " << s.ops
      << ", \"blocks\": " << s.blocks << ", \"busy_ns\": " << s.busy_ns
      << ", \"blocking_ns\": " << s.blocking_ns << ", \"op_latency_ns\": [";
    const auto buckets = s.op_latency.buckets();
    for (std::size_t i = 0; i < buckets.size(); ++i)
      f << (i ? ", [" : "[") << num(buckets[i].first) << ", " << buckets[i].second << "]";
    f << "],\n \"children\": {\"columns\": [\"root\", \"ops\", \"blocks\", \"busy_ns\", "
         "\"blocking_ns\"], \"rows\": [";
    for (std::size_t i = 0; i < s.children.size(); ++i) {
      const ChildAggregate& c = s.children[i];
      f << (i ? ", [" : "[") << c.root << ", " << c.ops << ", " << c.blocks << ", " << c.busy_ns
        << ", " << c.blocking_ns << "]";
    }
    f << "]}}";
  }
  f << "]}\n";
}

/// --trace=1: the probe-invariance check and the per-layer metrics.
Outcome traced(const Options& o) {
  Outcome out;

  // Reference: the rounds on the plain stack.
  Recorder plain_rec(false);
  Runner plain(o, plain_rec);
  plain.setup(nullptr);
  const std::vector<Round> refs = measured_rounds(plain, o, [] {});
  plain.teardown();

  Recorder rec(true);
  Runner run(o, rec);
  run.setup(&rec.context());
  Stack& st = run.stack();
  const ProbeTotals p0 = probe_totals(st);
  const pid_t server = st.server ? st.server->pid() : -1;
  const std::uint64_t server0 = server > 0 ? cpu_ns_of(server) : 0;
  const std::uint64_t cpu0 = cpu_ns_self();
  t_harness_thread = true;
  const std::uint64_t w0 = now_ns();
  const std::vector<Round> rounds = run_rounds(run, 0, refs.size(), [] {});
  const std::uint64_t w1 = now_ns();
  t_harness_thread = false;
  const std::uint64_t cpu1 = cpu_ns_self();
  const std::uint64_t server1 = server > 0 ? cpu_ns_of(server) : 0;
  const ProbeTotals p1 = probe_totals(st);

  add_rounds(out, refs);
  add_rounds(out, rounds);
  const Round& first = rounds.front();

  // Probe invariance: the probed stack must show Bob and the caller exactly
  // what the plain stack did, round by round.
  bool invariant = first.sorted == refs[0].sorted && first.values == refs[0].values;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& a = rounds[i];
    const Round& b = refs[i];
    if (a.trace_hash == b.trace_hash && same_counts(a.io, b.io)) continue;
    std::fprintf(stderr, "probe invariance FAILED in round %zu: trace %llx vs %llx, ios %llu vs %llu\n",
                 i, static_cast<unsigned long long>(a.trace_hash),
                 static_cast<unsigned long long>(b.trace_hash),
                 static_cast<unsigned long long>(a.io.total()),
                 static_cast<unsigned long long>(b.io.total()));
    invariant = false;
  }
  if (!invariant) out.correct = false;

  // Self time per layer over the window.  A root span's self time is its
  // duration minus what its children on the harness's thread cover: client
  // crypto and pipeline compute (IoStats) and blocking store calls (probes).
  // Store calls on I/O and shard threads overlap the root span instead; they
  // appear in busy_ms, not in the sum.
  std::uint64_t root_ns = 0, crypto_ns = 0, compute_ns = 0, local_ns = 0;
  for (const RootSpan& s : rec.roots()) {
    if (s.start_ns < w0) continue;  // set-up calls
    root_ns += s.end_ns - s.start_ns;
    crypto_ns += s.crypto_ns;
    compute_ns += s.compute_ns;
  }
  for (const LocalSpan& s : rec.locals())
    if (s.start_ns >= w0) local_ns += s.end_ns - s.start_ns;
  const std::uint64_t wall_ns = w1 - w0;
  const std::uint64_t store_blocking_ns = p1.blocking_ns - p0.blocking_ns;
  const double n = static_cast<double>(rounds.size());
  const double session_self = ms(root_ns) - ms(crypto_ns) - ms(compute_ns) - ms(store_blocking_ns);
  const double unattributed = ms(wall_ns) - ms(root_ns) - ms(local_ns);

  LogHistogram window_latency = p1.latency;
  window_latency.subtract(p0.latency);
  std::vector<std::uint64_t> shard_blocks(p1.shard_blocks.size());
  for (std::size_t i = 0; i < shard_blocks.size(); ++i)
    shard_blocks[i] = p1.shard_blocks[i] - p0.shard_blocks[i];
  double skew = 0.0;
  if (!shard_blocks.empty()) {
    const double mx = static_cast<double>(*std::max_element(shard_blocks.begin(), shard_blocks.end()));
    double sum = 0.0;
    for (std::uint64_t b : shard_blocks) sum += static_cast<double>(b);
    skew = sum > 0.0 ? mx / (sum / static_cast<double>(shard_blocks.size())) : 0.0;
  }
  // Both stacks ran the same rounds from a fresh set-up.
  std::vector<double> traced_wall, plain_wall;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    traced_wall.push_back(ms(rounds[i].wall_ns));
    plain_wall.push_back(ms(refs[i].wall_ns));
  }
  const double overhead = median(traced_wall) - median(plain_wall);

  const auto& ss = first.sort_stats;
  const auto& io = first.io;
  const double per_round = 1.0 / n;
  out.metrics = {
      {"core.sort.levels", static_cast<double>(ss.levels), "count"},
      {"core.sort.nodes", static_cast<double>(ss.nodes), "count"},
      {"core.sort.det_sort_nodes", static_cast<double>(ss.det_sort_nodes), "count"},
      {"core.sort.sweep_repairs", static_cast<double>(ss.sweep_repairs), "count"},
      {"core.sort.quantile_tails", static_cast<double>(ss.quantile_tails), "count"},
      {"oram.access_ios", static_cast<double>(first.oram.access_ios), "count"},
      {"oram.reshuffle_ios", static_cast<double>(first.oram.reshuffle_ios), "count"},
      {"extmem.client.reads", static_cast<double>(io.reads), "count"},
      {"extmem.client.writes", static_cast<double>(io.writes), "count"},
      {"extmem.client.read_ops", static_cast<double>(io.read_ops), "count"},
      {"extmem.client.write_ops", static_cast<double>(io.write_ops), "count"},
      {"extmem.client.blocks_per_op",
       io.total_ops() ? static_cast<double>(io.total()) / static_cast<double>(io.total_ops()) : 0.0,
       "count"},
      {"extmem.client.crypto_ms", ms(crypto_ns) * per_round, "ms"},
      {"extmem.client.compute_ms", ms(compute_ns) * per_round, "ms"},
      {"extmem.cache.hits", static_cast<double>(first.cache.hits), "count"},
      {"extmem.cache.misses", static_cast<double>(first.cache.misses), "count"},
      {"extmem.cache.hit_rate", first.cache.hit_rate(), "ratio"},
      {"extmem.cache.write_backs", static_cast<double>(first.cache.writebacks), "count"},
      {"extmem.cache.admission_rejects", static_cast<double>(first.cache.admission_rejects), "count"},
      {"extmem.store.ops", static_cast<double>(p1.ops - p0.ops) * per_round, "count"},
      {"extmem.store.blocks", static_cast<double>(p1.blocks - p0.blocks) * per_round, "count"},
      {"extmem.store.busy_ms", ms(p1.busy_ns - p0.busy_ns) * per_round, "ms"},
      {"extmem.store.blocking_ms", ms(store_blocking_ns) * per_round, "ms"},
      {"extmem.store.op_p50_us", window_latency.quantile(0.50) / 1e3, "us"},
      {"extmem.store.op_p99_us", window_latency.quantile(0.99) / 1e3, "us"},
      {"extmem.store.shard_skew", skew, "ratio"},
      {"process.client_cpu_ms", ms(cpu1 - cpu0) * per_round, "ms"},
      {"process.server_cpu_ms", ms(server1 - server0) * per_round, "ms"},
      {"session.self_ms", session_self * per_round, "ms"},
      {"perfbench.self_ms", ms(local_ns) * per_round, "ms"},
      {"unattributed_ms", unattributed * per_round, "ms"},
      {"wall_ms", ms(wall_ns) * per_round, "ms"},
      {"trace_overhead_ms", overhead, "ms"},
  };

  // Self time against wall time, per round.
  const double wall = ms(wall_ns) * per_round;
  std::vector<Metric> self = {
      {"session (api, core, oram, device, cache, async waits)", session_self * per_round, "ms"},
      {"extmem.client crypto", ms(crypto_ns) * per_round, "ms"},
      {"extmem.client pipeline compute", ms(compute_ns) * per_round, "ms"},
      {"extmem.store, blocking calls", ms(store_blocking_ns) * per_round, "ms"},
      {"perfbench (inputs, verification)", ms(local_ns) * per_round, "ms"},
      {"unattributed", unattributed * per_round, "ms"},
  };
  double sum = 0.0;
  std::printf("\nself time per round: %s, %zu rounds, wall %s ms\n\n| layer | self ms | share of wall |\n|---|---:|---:|\n",
              o.workload_name.c_str(), rounds.size(), num(wall).c_str());
  for (const Metric& m : self) {
    sum += m.value;
    std::printf("| %s | %s | %.2f%% |\n", m.name.c_str(), num(m.value).c_str(), 100.0 * m.value / wall);
  }
  std::printf("| sum | %s | %.2f%% |\n", num(sum).c_str(), 100.0 * sum / wall);
  std::printf("\nstore calls on I/O and shard threads (overlapping): busy %s ms per round\n",
              num(ms(p1.busy_ns - p0.busy_ns - store_blocking_ns) * per_round).c_str());
  std::printf("tracing overhead: %s ms per round (median round wall time over %zu rounds: "
              "traced %s ms, untraced %s ms)\n",
              num(overhead).c_str(), rounds.size(), num(median(traced_wall)).c_str(),
              num(median(plain_wall)).c_str());
  std::printf("probe invariance: %s (trace hash %llx, %llu block I/Os)\n",
              invariant ? "ok" : "FAILED", static_cast<unsigned long long>(first.trace_hash),
              static_cast<unsigned long long>(first.io.total()));
  print_table(("per-layer: " + o.workload_name).c_str(), out.metrics);

  if (!o.trace_out.empty()) write_trace(o, rec, st, w0, w1, out.metrics);
  run.teardown();
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  oem::Flags flags(argc, argv);
  Options o;
  o.workload_name = flags.get("workload", "");
  o.seed = flags.get_u64("seed", 1);
  o.seconds = flags.get_double("seconds", 10);
  o.trace = flags.get_u64("trace", 0) != 0;
  o.trace_out = flags.get("trace-out", "");
  flags.validate_or_die();
  if (o.workload_name == "sort-rand") {
    o.workload = Workload::kSortRand;
  } else if (o.workload_name == "sort-remote") {
    o.workload = Workload::kSortRemote;
  } else if (o.workload_name == "oram-file") {
    o.workload = Workload::kOramFile;
  } else {
    std::fprintf(stderr, "unknown --workload '%s' (sort-rand|sort-remote|oram-file)\n",
                 o.workload_name.c_str());
    return 2;
  }
  if (o.workload == Workload::kSortRemote) pin_to_one_cpu();
  try {
    const Outcome out = o.trace ? traced(o) : end_to_end(o);
    const bool ok = out.correct && out.failed == 0;
    Outcome printed = out;
    printed.correct = ok;
    std::fflush(stdout);
    print_result(printed);
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
