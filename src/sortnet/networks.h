// In-memory data-oblivious sorting networks.
//
// The paper's toolbox repeatedly invokes deterministic oblivious sorting
// (Lemma 2) on small (cache-sized or polylog-sized) subproblems.  We provide
// the two classic practical networks -- bitonic sort and Batcher's odd-even
// merge sort -- as comparator *schedules* (a visitor over (i, j) pairs), so
// the same schedule can drive in-RAM compare-exchanges or external-memory
// merge-split operations on whole runs of blocks (external_sort.h drives
// the odd-even schedule that way).
//
// Both networks require a power-of-two size; the `*_any` wrappers pad with a
// caller-supplied maximum element.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "util/math.h"

namespace oem::sortnet {

/// Visits every compare-exchange of the iterative bitonic sorting network on
/// `n` wires (n a power of two) in execution order.
/// fn(i, j, ascending): compare wires i < j; if ascending, route the smaller
/// value to i, else to j.
template <typename Fn>
void bitonic_schedule(std::uint64_t n, Fn&& fn) {
  assert(is_pow2(n));
  for (std::uint64_t k = 2; k <= n; k <<= 1) {
    for (std::uint64_t j = k >> 1; j > 0; j >>= 1) {
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t l = i ^ j;
        if (l > i) fn(i, l, (i & k) == 0);
      }
    }
  }
}

/// Batcher odd-even merge sort schedule on n wires (power of two).  All
/// compare-exchanges are ascending.
template <typename Fn>
void odd_even_schedule(std::uint64_t n, Fn&& fn) {
  assert(is_pow2(n));
  for (std::uint64_t p = 1; p < n; p <<= 1) {
    for (std::uint64_t k = p; k >= 1; k >>= 1) {
      for (std::uint64_t j = k % p; j + k < n; j += 2 * k) {
        for (std::uint64_t i = 0; i < k; ++i) {
          const std::uint64_t a = i + j;
          const std::uint64_t b = i + j + k;
          if (a / (2 * p) == b / (2 * p)) fn(a, b, true);
        }
      }
    }
  }
}

/// Number of comparators in each network (for the complexity tests).
std::uint64_t bitonic_comparator_count(std::uint64_t n);
std::uint64_t odd_even_comparator_count(std::uint64_t n);

/// Sort a power-of-two span in place with the bitonic network.
template <typename T, typename Less>
void bitonic_sort_pow2(std::span<T> v, Less less) {
  bitonic_schedule(v.size(), [&](std::uint64_t i, std::uint64_t j, bool asc) {
    const bool swap = asc ? less(v[j], v[i]) : less(v[i], v[j]);
    if (swap) std::swap(v[i], v[j]);
  });
}

/// Sort an arbitrary-size vector by padding with `pad_max` (an element >=
/// every real element) up to the next power of two, then truncating.
template <typename T, typename Less>
void bitonic_sort_any(std::vector<T>& v, Less less, const T& pad_max) {
  const std::size_t n = v.size();
  if (n <= 1) return;
  const std::size_t np = static_cast<std::size_t>(next_pow2(n));
  v.resize(np, pad_max);
  bitonic_sort_pow2(std::span<T>(v), less);
  v.resize(n);
}

template <typename T, typename Less>
void odd_even_sort_pow2(std::span<T> v, Less less) {
  odd_even_schedule(v.size(), [&](std::uint64_t i, std::uint64_t j, bool) {
    if (less(v[j], v[i])) std::swap(v[i], v[j]);
  });
}

template <typename T, typename Less>
void odd_even_sort_any(std::vector<T>& v, Less less, const T& pad_max) {
  const std::size_t n = v.size();
  if (n <= 1) return;
  const std::size_t np = static_cast<std::size_t>(next_pow2(n));
  v.resize(np, pad_max);
  odd_even_sort_pow2(std::span<T>(v), less);
  v.resize(n);
}

}  // namespace oem::sortnet
