// Pattern-keyed LRU cache of symbolic analyses for the solver service.
//
// The symbolic pipeline is by far the most expensive value-independent step
// (ordering + static symbolic factorization + eforest + blocks + graph), and
// service traffic is dominated by REPEATED patterns with fresh values --
// time steps, Newton iterations, parameter sweeps.  The cache keys an
// Analysis by (rows, cols, nnz, structure fingerprint, layout) and reuses it
// across requests, so only the first request of a pattern pays for analysis.
//
// Keying and collision policy (same contract as SparseLU's reuse guard):
// the FNV-1a fingerprint (matrix/csc.h) is the cheap first tier -- different
// fingerprints PROVE different structures -- but equal fingerprints are only
// probable matches, so every hit is confirmed by a full (col_ptr, row_ind)
// compare against the structure the entry was built from.  A confirmed
// mismatch (a genuine 64-bit collision, or an adversarial key) is counted in
// CacheStats::collisions and the entry is REPLACED as a miss: correctness
// never rests on the hash.
//
// Concurrency: get_or_analyze is fully thread-safe.  A pattern being
// analyzed is published as a pending entry immediately (under the lock), so
// concurrent requests for the same pattern wait on one shared_future instead
// of analyzing in parallel; the analysis itself runs OUTSIDE the lock, so a
// slow analyze never blocks hits on other patterns.  If the analysis throws
// (e.g. structurally singular input), the exception is delivered to every
// waiter and the pending entry is removed -- a later request retries.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/analysis.h"

namespace plu::service {

struct CacheStats {
  long hits = 0;          // confirmed structural matches served from cache
  long misses = 0;        // entries built (includes collision replacements)
  long evictions = 0;     // entries dropped by the LRU capacity bound
  long collisions = 0;    // fingerprint matched but the structure did not
  long analyze_runs = 0;  // analyze() executions (bypasses included)
  long entries = 0;       // current resident entries
};

class AnalysisCache {
 public:
  /// Fingerprint function, injectable so tests can force collisions; the
  /// default is plu::structure_fingerprint.
  using Fingerprint = std::function<std::uint64_t(
      int rows, int cols, const std::vector<int>& ptr,
      const std::vector<int>& idx)>;

  explicit AnalysisCache(int capacity = 32, Fingerprint fingerprint = {});

  /// Returns the analysis for `a` under `opt`, from cache when a confirmed
  /// entry exists, analyzing (and inserting) otherwise.  Blocks when the
  /// pattern is currently being analyzed by another thread.  `hit`, when
  /// non-null, reports whether the call was served from cache.  Requests
  /// with opt.scale_and_permute bypass the cache entirely: that
  /// preprocessing depends on numeric VALUES, which the pattern key cannot
  /// see.  Rethrows whatever analyze() throws.
  std::shared_ptr<const Analysis> get_or_analyze(const CscMatrix& a,
                                                 const Options& opt,
                                                 bool* hit = nullptr);

  CacheStats stats() const;
  void clear();
  int capacity() const { return capacity_; }

 private:
  struct Key {
    int rows = 0;
    int cols = 0;
    int nnz = 0;
    std::uint64_t fingerprint = 0;
    int layout = 0;
    int ordering = 0;  // requests overriding the ordering must not collide
    friend bool operator==(const Key& a, const Key& b) {
      return a.rows == b.rows && a.cols == b.cols && a.nnz == b.nnz &&
             a.fingerprint == b.fingerprint && a.layout == b.layout &&
             a.ordering == b.ordering;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = k.fingerprint;
      h ^= (std::uint64_t(std::uint32_t(k.rows)) << 32) ^
           std::uint64_t(std::uint32_t(k.cols));
      h = h * 0x9e3779b97f4a7c15ull + std::uint64_t(k.nnz) * 31 + k.layout;
      h = h * 0x9e3779b97f4a7c15ull + std::uint64_t(std::uint32_t(k.ordering));
      return std::size_t(h);
    }
  };
  using Future = std::shared_future<std::shared_ptr<const Analysis>>;
  struct Entry {
    // The exact structure the entry was built from, for collision
    // confirmation (valid from insertion, so pending entries confirm too).
    std::vector<int> ptr;
    std::vector<int> idx;
    Future future;
    std::list<Key>::iterator lru_pos;
    long generation = 0;  // distinguishes this entry from a replacement
  };

  /// Removes `key`'s entry if present (LRU node included); lock held.
  void erase_locked(const Key& key);

  const int capacity_;
  Fingerprint fingerprint_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> map_;
  std::list<Key> lru_;  // front = most recently used
  long next_generation_ = 0;
  CacheStats stats_;
};

}  // namespace plu::service
