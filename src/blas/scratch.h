// Per-worker scratch-buffer pool for the dense kernel tier.
//
// The packed GEMM (blas/level3.cpp) copies its A and B panels into
// contiguous aligned buffers, and the transpose cases materialize op(X)
// into a temporary.  Doing that with fresh allocations would put malloc on
// the Schur-update hot path of every task the DAG runtime executes; this
// arena instead hands each worker THREAD its own trio of cache-aligned
// buffers that only ever grow (high-water mark), so steady-state
// factorization performs zero allocations in the kernels.
//
// Thread-local by design: the work-stealing executor runs each task body on
// exactly one worker thread, so per-thread == per-worker and no
// synchronization is needed.
#pragma once

#include <cstddef>
#include <vector>

namespace plu::blas {

class WorkerScratch {
 public:
  /// Buffer for packed A micro-panels (>= n doubles, 64-byte aligned).
  double* pack_a(std::size_t n) { return a_.grab(n); }
  /// Buffer for packed B micro-panels.
  double* pack_b(std::size_t n) { return b_.grab(n); }
  /// General temporary (materialized transposes, edge tiles).
  double* temp(std::size_t n) { return t_.grab(n); }

  /// High-water mark across the three double buffers, in doubles
  /// (introspection for tests).
  std::size_t capacity() const {
    return a_.store.size() + b_.store.size() + t_.store.size();
  }

 private:
  struct Buffer {
    std::vector<double> store;
    double* grab(std::size_t n);
  };

  Buffer a_, b_, t_;
};

/// The calling thread's scratch arena (created on first use, reused for the
/// lifetime of the thread).
WorkerScratch& worker_scratch();

}  // namespace plu::blas
