// E10 -- the paper's obliviousness definition, §1: the distribution of the
// access sequence depends only on (P, N, M, B), never on data.  For every
// algorithm in the library, run the canonical adversarial input family with
// a fixed seed and print the trace hash per input: one identical hash per
// row = data-oblivious.  A deliberately leaky algorithm is included as the
// negative control.  Exits 1 when any other row shows more than one hash.
#include <set>

#include "bench_common.h"
#include "core/butterfly.h"
#include "core/consolidate.h"
#include "core/loose_compact.h"
#include "core/logstar_compact.h"
#include "core/oblivious_sort.h"
#include "core/quantiles.h"
#include "core/select.h"
#include "core/sparse_compact.h"
#include "obliv/trace_check.h"
#include "sortnet/external_sort.h"

using namespace oem;

namespace {

struct AlgoCase {
  std::string name;
  ClientParams params;
  std::uint64_t records;
  std::function<void(Client&, const ExtArray&)> run;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  bench::set_backend_from_flags(flags);  // consumes --backend, --shards, --prefetch
  flags.validate_or_die();

  bench::banner("E10", "obliviousness audit -- trace hashes across adversarial inputs");
  bench::note("inputs: all-equal, sorted, reverse, random, one-low, half-half; same seed "
              "=> the trace must be bit-identical (the strict form of the paper's "
              "definition for coin-fixed runs)");

  std::vector<AlgoCase> cases;
  cases.push_back({"consolidate (L3)", bench::params(4, 64), 1024,
                   [](Client& c, const ExtArray& a) {
                     core::consolidate(c, a, [](std::uint64_t, const Record& r) {
                       return !r.is_empty() && r.key % 2 == 0;
                     });
                   }});
  cases.push_back({"ext sort (L2)", bench::params(4, 64), 1024,
                   [](Client& c, const ExtArray& a) { sortnet::ext_oblivious_sort(c, a); }});
  cases.push_back({"butterfly (T6)", bench::params(4, 64), 1024,
                   [](Client& c, const ExtArray& a) {
                     core::tight_compact_blocks(c, a, [](std::uint64_t, const BlockBuf& b) {
                       return !b[0].is_empty() && b[0].key % 3 == 0;
                     });
                   }});
  cases.push_back({"sparse compact (T4)", bench::params(4, 4096), 512,
                   [](Client& c, const ExtArray& a) {
                     core::SparseCompactOptions o;
                     o.cost_aware = false;
                     core::sparse_compact_blocks(
                         c, a, 12,
                         [](std::uint64_t, const BlockBuf& b) {
                           return !b[0].is_empty() && b[0].key % 11 == 0;
                         },
                         7, o);
                   }});
  cases.push_back({"loose compact (T8)", bench::params(4, 512), 2048,
                   [](Client& c, const ExtArray& a) {
                     core::loose_compact_blocks(c, a, a.num_blocks() / 5,
                                                [](std::uint64_t, const BlockBuf& b) {
                                                  return !b[0].is_empty() &&
                                                         b[0].key % 5 == 0;
                                                },
                                                9);
                   }});
  cases.push_back({"log* compact (T9)", bench::params(4, 32), 1024,
                   [](Client& c, const ExtArray& a) {
                     core::logstar_compact_blocks(c, a, a.num_blocks() / 5,
                                                  [](std::uint64_t, const BlockBuf& b) {
                                                    return !b[0].is_empty() &&
                                                           b[0].key % 3 == 0;
                                                  },
                                                  3);
                   }});
  cases.push_back({"selection (T13)", bench::params(4, 256), 4096,
                   [](Client& c, const ExtArray& a) {
                     (void)core::oblivious_select(c, a, a.num_records() / 3, 5);
                   }});
  cases.push_back({"quantiles (T17)", bench::params(4, 64), 4096,
                   [](Client& c, const ExtArray& a) {
                     (void)core::oblivious_quantiles(c, a, 3, 21);
                   }});
  cases.push_back({"oblivious sort (T21)", bench::params(4, 64), 16384,
                   [](Client& c, const ExtArray& a) {
                     core::ObliviousSortOptions o;
                     o.min_recursive_blocks = 512;
                     (void)core::oblivious_sort(c, a, 5, o);
                   }});
  // E8a's shape options: the dense rule off, so the recursion runs and every
  // node below the root sorts a padded array.
  cases.push_back({"oblivious sort (T21, recursive)", bench::params(8, 512), 8 * 1024,
                   [](Client& c, const ExtArray& a) {
                     core::ObliviousSortOptions o;
                     o.paper_dense_rule = false;
                     o.sparse_quantiles = true;
                     o.quantiles.paper_intervals = false;
                     o.min_recursive_blocks = 512;
                     (void)core::oblivious_sort(c, a, 5, o);
                   }});
  const std::string control = "LEAKY control (hash-probe)";
  cases.push_back({control, bench::params(4, 64), 256,
                   [](Client& c, const ExtArray& a) {
                     BlockBuf blk;
                     c.read_block(a, 0, blk);
                     c.read_block(a, blk[0].key % a.num_blocks(), blk);
                   }});

  // Trace events and the read/write totals below are recorded at SUBMIT time
  // in program order, so rows are identical with --prefetch on or off (the
  // trace-invariance suite pins this; here it keeps the table comparable
  // across engine configurations).
  Table t({"algorithm", "distinct trace hashes", "trace length", "block I/Os",
           "oblivious"});
  bool leaked = false;
  for (const auto& cs : cases) {
    auto result = obliv::check_oblivious(cs.params, cs.records,
                                         obliv::canonical_inputs(1), cs.run);
    std::set<std::uint64_t> hashes;
    for (const auto& run : result.runs) hashes.insert(run.trace_hash);
    t.add_row({cs.name, std::to_string(hashes.size()),
               std::to_string(result.runs[0].trace_len),
               std::to_string(result.runs[0].reads + result.runs[0].writes),
               result.oblivious           ? "yes"
               : cs.name == control ? "NO (expected for the control)"
                                    : "NO"});
    if (cs.name != control && hashes.size() > 1) leaked = true;
  }
  t.print(std::cout);
  if (leaked) {
    std::cout << "GATE FAILED: a row other than the control has more than one trace hash\n";
    return 1;
  }
  return 0;
}
