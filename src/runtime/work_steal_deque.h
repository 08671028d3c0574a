// Chase-Lev work-stealing deque of task handles (the per-worker ready queue
// of the DAG runtime, runtime/shared_runtime.cpp).
//
// One OWNER thread pushes and pops at the bottom (LIFO, so a worker dives
// depth-first along the dependence chain it just released -- cache-warm and,
// with successors pushed in ascending priority order, critical-path-first).
// Any number of THIEF threads steal at the top (FIFO, so thieves take the
// oldest -- typically largest / highest-bottom-level -- task).
//
// The implementation follows Le, Pop, Cohen & Zappa Nardelli, "Correct and
// Efficient Work-Stealing for Weak Memory Models" (PPoPP'13), with one
// deliberate deviation: the published algorithm synchronizes pop against
// steal with standalone seq_cst fences, which ThreadSanitizer does not
// model (it would report false races on the cell accesses).  We instead put
// the seq_cst ordering on the top_/bottom_ accesses themselves -- the
// owner's bottom_ store in pop() and the loads of top_/bottom_ in pop() and
// steal() participate in the single total order of seq_cst operations,
// which gives exactly the store-load ordering the fences provided.  On
// x86-64 this costs one locked instruction in pop(); steals already CAS.
//
// Ring growth is owner-only: a full ring is copied into one twice the size
// and the old ring is RETIRED, not freed -- a thief that loaded the old
// ring pointer may still read a cell from it, and the value it reads is
// unchanged (grow copies, never mutates, the live range).  Retired rings
// are reclaimed when the deque is destroyed; total waste is bounded by 2x
// the peak ring size.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace plu::rt {

/// Items are 64-bit handles -- the runtime packs (graph slot, task id) into
/// one.  Valid items must be >= 0: the negative range is reserved for
/// kEmpty / kAbort.
class WorkStealDeque {
 public:
  using T = std::int64_t;
  static constexpr T kEmpty = -1;  // nothing to take
  static constexpr T kAbort = -2;  // lost a steal race; caller may retry

  explicit WorkStealDeque(std::int64_t capacity_hint = 64) {
    std::int64_t cap = 16;
    while (cap < capacity_hint) cap <<= 1;
    rings_.push_back(std::make_unique<Ring>(cap));
    ring_.store(rings_.back().get(), std::memory_order_relaxed);
  }

  WorkStealDeque(const WorkStealDeque&) = delete;
  WorkStealDeque& operator=(const WorkStealDeque&) = delete;

  /// Owner only: push a task at the bottom.
  void push(T v) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* r = ring_.load(std::memory_order_relaxed);
    if (b - t >= r->capacity) r = grow(r, b, t);
    r->put(b, v);
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only: pop the most recently pushed task; kEmpty when drained.
  T pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* r = ring_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t < b) return r->get(b);  // more than one task left: no race possible
    if (t == b) {
      // Exactly one task: race a concurrent thief for it via top_.
      T v = r->get(b);
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        v = kEmpty;  // the thief won
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
      return v;
    }
    bottom_.store(b + 1, std::memory_order_relaxed);  // was empty; restore
    return kEmpty;
  }

  /// Thief: take the oldest task; kEmpty when none, kAbort on a lost race.
  T steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return kEmpty;
    // Read the cell BEFORE claiming it: the owner never overwrites index t
    // while top_ == t (push grows instead of wrapping onto a live range),
    // and grow retires rather than frees, so the read is safe even if we
    // lose the CAS.
    Ring* r = ring_.load(std::memory_order_acquire);
    const T v = r->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return kAbort;
    }
    return v;
  }

  /// Racy size hint (owner or monitor).
  std::int64_t size_hint() const {
    return bottom_.load(std::memory_order_relaxed) -
           top_.load(std::memory_order_relaxed);
  }

 private:
  struct Ring {
    explicit Ring(std::int64_t cap)
        : capacity(cap), mask(cap - 1), cells(new std::atomic<T>[cap]) {}
    const std::int64_t capacity;
    const std::int64_t mask;
    std::unique_ptr<std::atomic<T>[]> cells;

    T get(std::int64_t i) const {
      return cells[i & mask].load(std::memory_order_relaxed);
    }
    void put(std::int64_t i, T v) {
      cells[i & mask].store(v, std::memory_order_relaxed);
    }
  };

  /// Owner only: double the ring, copying the live range [t, b).
  Ring* grow(Ring* old, std::int64_t b, std::int64_t t) {
    rings_.push_back(std::make_unique<Ring>(old->capacity * 2));
    Ring* bigger = rings_.back().get();
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    ring_.store(bigger, std::memory_order_release);
    return bigger;
  }

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  std::atomic<Ring*> ring_{nullptr};
  std::vector<std::unique_ptr<Ring>> rings_;  // owner-only; keeps retired rings alive
};

}  // namespace plu::rt
