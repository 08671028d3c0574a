#include "service/analysis_cache.h"

#include <utility>

namespace plu::service {

AnalysisCache::AnalysisCache(int capacity, Fingerprint fingerprint)
    : capacity_(capacity > 0 ? capacity : 1),
      fingerprint_(fingerprint ? std::move(fingerprint)
                               : Fingerprint(&structure_fingerprint)) {}

void AnalysisCache::erase_locked(const Key& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return;
  lru_.erase(it->second.lru_pos);
  map_.erase(it);
  stats_.entries = long(map_.size());
}

std::shared_ptr<const Analysis> AnalysisCache::get_or_analyze(
    const CscMatrix& a, const Options& opt, bool* hit) {
  if (hit != nullptr) *hit = false;

  if (opt.scale_and_permute) {
    // Value-dependent preprocessing: the same pattern with different values
    // yields a different analysis, so the pattern key must not serve it.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.misses;
      ++stats_.analyze_runs;
    }
    return std::make_shared<const Analysis>(analyze(a, opt));
  }

  Key key;
  key.rows = a.rows();
  key.cols = a.cols();
  key.nnz = a.nnz();
  key.fingerprint = fingerprint_(a.rows(), a.cols(), a.col_ptr(), a.row_ind());
  key.layout = int(opt.layout);
  key.ordering = int(opt.ordering);

  Future fut;
  std::promise<std::shared_ptr<const Analysis>> promise;
  bool compute = false;
  long my_generation = -1;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      Entry& e = it->second;
      if (e.ptr == a.col_ptr() && e.idx == a.row_ind()) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, e.lru_pos);  // touch
        fut = e.future;
        if (hit != nullptr) *hit = true;
      } else {
        // Fingerprint collision: one key, two structures.  Keep the newer
        // pattern (the old entry's waiters still hold their future copies).
        ++stats_.collisions;
        erase_locked(key);
      }
    }
    if (!fut.valid()) {
      ++stats_.misses;
      while (long(map_.size()) >= capacity_) {
        ++stats_.evictions;
        erase_locked(lru_.back());
      }
      Entry e;
      e.ptr = a.col_ptr();
      e.idx = a.row_ind();
      e.future = promise.get_future().share();
      e.generation = my_generation = next_generation_++;
      lru_.push_front(key);
      e.lru_pos = lru_.begin();
      fut = e.future;
      map_.emplace(key, std::move(e));
      stats_.entries = long(map_.size());
      compute = true;
    }
  }

  if (compute) {
    try {
      auto an = std::make_shared<const Analysis>(analyze(a, opt));
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.analyze_runs;
      }
      promise.set_value(std::move(an));
    } catch (...) {
      promise.set_exception(std::current_exception());
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.analyze_runs;
      // Drop the poisoned entry so a later request retries, but only if it
      // is still OURS -- a collision replacement may have raced in.
      auto it = map_.find(key);
      if (it != map_.end() && it->second.generation == my_generation) {
        erase_locked(key);
      }
    }
  }
  return fut.get();  // rethrows the analyzing thread's exception for waiters
}

CacheStats AnalysisCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void AnalysisCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  stats_.entries = 0;
}

}  // namespace plu::service
