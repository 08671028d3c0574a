#include "runtime/shared_runtime.h"

#include <algorithm>
#include <chrono>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace plu::rt {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

constexpr int kMaxSpin = 256;

/// splitmix64 finalizer: turns a fuzz seed into a well-mixed, nonzero
/// xorshift state.
std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return (x ^ (x >> 31)) | 1;
}

/// One distinct CPU per worker from the calling thread's affinity set,
/// starting at the CPU it runs on; empty (no pinning) when the set is
/// smaller than the pool or cannot be read.
std::vector<int> worker_cpus(int workers) {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (workers > static_cast<int>(cpus.size())) return {};
  const auto here = std::find(cpus.begin(), cpus.end(), sched_getcpu());
  if (here != cpus.end()) std::rotate(cpus.begin(), here, cpus.end());
  cpus.resize(workers);
#else
  (void)workers;
#endif
  return cpus;
}

/// Best effort: a CPU that cannot be claimed leaves the thread unpinned.
void pin_current_thread(int cpu) {
#if defined(__linux__)
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
#else
  (void)cpu;
#endif
}

}  // namespace

ExecutionReport SharedRuntime::Run::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return finished_; });
  if (error_) std::rethrow_exception(error_);
  return report_;
}

bool SharedRuntime::Run::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_;
}

SharedRuntime::SharedRuntime(int threads, int max_graphs)
    : max_graphs_(std::max(1, max_graphs)) {
  slots_ = std::make_unique<std::atomic<Run*>[]>(max_graphs_);
  for (int s = 0; s < max_graphs_; ++s) {
    slots_[s].store(nullptr, std::memory_order_relaxed);
  }
  owners_.resize(max_graphs_);
  free_slots_.reserve(max_graphs_);
  for (int s = max_graphs_ - 1; s >= 0; --s) free_slots_.push_back(s);
  const int w = std::max(1, threads);
  const std::vector<int> cpus = worker_cpus(w);
  workers_.reserve(w);
  for (int t = 0; t < w; ++t) {
    workers_.push_back(std::make_unique<Worker>(
        t, 0x9E3779B97F4A7C15ull ^ (static_cast<std::uint64_t>(t) + 1)));
    if (!cpus.empty()) workers_.back()->cpu = cpus[t];
  }
  for (int t = 0; t < w; ++t) {
    workers_[t]->thread = std::thread([this, t] { worker_loop(t); });
  }
}

SharedRuntime::~SharedRuntime() {
  {
    std::unique_lock<std::mutex> lock(reg_mu_);
    drain_cv_.wait(lock, [&] { return active_ == 0; });
  }
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_all();
  }
  for (auto& w : workers_) w->thread.join();
}

std::shared_ptr<SharedRuntime::Run> SharedRuntime::submit(GraphSpec spec) {
  auto run = std::shared_ptr<Run>(new Run());
  const int n = static_cast<int>(spec.succ->size());
  run->succ_ = spec.succ;
  run->body_ = std::move(spec.run);
  run->cancel_ = spec.cancel ? spec.cancel : &run->own_cancel_;
  run->n_ = n;

  // Degenerate graphs never touch the pool: report immediately.
  std::vector<int> roots;
  if (n > 0) {
    run->indeg_ = std::vector<std::atomic<int>>(n);
    for (int v = 0; v < n; ++v) {
      run->indeg_[v].store((*spec.indegree)[v], std::memory_order_relaxed);
      if ((*spec.indegree)[v] == 0) roots.push_back(v);
    }
  }
  if (n == 0 || roots.empty()) {
    std::lock_guard<std::mutex> lock(run->mu_);
    run->finished_ = true;
    run->report_.completed = n == 0;  // fully cyclic: nothing ever runs
    graphs_completed_.fetch_add(1, std::memory_order_relaxed);
    return run;
  }

  // Fold the per-request boost into NORMALIZED bottom levels so graphs of
  // very different sizes compare fairly (header comment).
  if (spec.priorities && static_cast<int>(spec.priorities->size()) == n) {
    double max_p = 0.0;
    for (double p : *spec.priorities) max_p = std::max(max_p, p);
    const double scale = max_p > 0.0 ? 1.0 / max_p : 0.0;
    run->prio_.resize(n);
    for (int v = 0; v < n; ++v) {
      run->prio_[v] = spec.boost + (*spec.priorities)[v] * scale;
    }
  } else if (spec.boost != 0.0) {
    run->prio_.assign(n, spec.boost);
  }
  run->outstanding_.store(static_cast<long>(roots.size()),
                          std::memory_order_relaxed);

  // Inject the roots FIFO, most critical first within this graph.  A
  // fuzzed graph's roots form its ready set instead, and one kPickReady
  // placeholder per root is injected (fuzz_pick).
  const bool fuzzed = spec.fuzz != nullptr;
  if (fuzzed) {
    run->fuzz_rng_.resize(workers_.size());
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      run->fuzz_rng_[w] = mix_seed(spec.fuzz->seed ^ ((w + 1) << 32));
    }
    run->fuzz_delay_us_ = std::max(0, spec.fuzz->max_delay_us);
    run->fuzz_ready_ = roots;
  } else if (!run->prio_.empty()) {
    std::stable_sort(roots.begin(), roots.end(), [&](int a, int b) {
      return run->prio_[a] > run->prio_[b];
    });
  }

  // Claim a slot (blocking = admission backpressure) and publish the run.
  int slot;
  {
    std::unique_lock<std::mutex> lock(reg_mu_);
    slot_cv_.wait(lock, [&] { return !free_slots_.empty(); });
    slot = free_slots_.back();
    free_slots_.pop_back();
    owners_[slot] = run;
    ++active_;
  }
  run->slot_ = slot;
  slots_[slot].store(run.get(), std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    for (int v : roots) inject_.push_back(pack(slot, fuzzed ? kPickReady : v));
    inject_count_.store(static_cast<long>(inject_.size()),
                        std::memory_order_release);
  }
  wake_workers();
  return run;
}

void SharedRuntime::wake_workers() {
  wake_epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_all();
  }
}

void SharedRuntime::worker_loop(int tid) {
  Worker& me = *workers_[tid];
  if (me.cpu >= 0) pin_current_thread(me.cpu);
  for (;;) {
    std::int64_t item = me.deque.pop();
    if (item < 0) item = steal(me);
    if (item < 0) item = take_injected(me);
    if (item >= 0) {
      run_item(me, item);
      continue;
    }
    if (shutdown_.load(std::memory_order_acquire)) return;
    idle();
  }
}

void SharedRuntime::run_item(Worker& me, std::int64_t item) {
  const int slot = static_cast<int>(item >> 32);
  // The item holds its graph live (outstanding_ > 0 until we decrement
  // below), so this dereference can never see a retired slot.
  Run* r = slots_[slot].load(std::memory_order_acquire);
  const bool fuzzed = !r->fuzz_rng_.empty();
  const int id =
      fuzzed ? fuzz_pick(*r, me) : static_cast<int>(item & 0xFFFFFFFFll);
  if (!r->cancel_->cancelled()) {
    try {
      r->body_(id);
      r->done_count_.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(r->err_mu_);
        if (!r->error_ || id < r->err_task_) {
          r->err_task_ = id;
          r->error_ = std::current_exception();
        }
      }
      r->cancel_->cancel();
    }
  }
  // Lock-free release: the release half of the acq_rel fetch_sub publishes
  // every write this task made; the worker that drops a successor's counter
  // to zero acquires them all (dag_executor.h, DESIGN.md).
  me.ready.clear();
  if (!r->cancel_->cancelled()) {
    for (int s : (*r->succ_)[id]) {
      if (r->indeg_[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        me.ready.push_back(s);
      }
    }
  }
  if (!me.ready.empty()) {
    if (fuzzed) {
      // Into the ready set BEFORE the placeholders become visible, so every
      // placeholder finds a task.
      std::lock_guard<std::mutex> lock(r->fuzz_mu_);
      r->fuzz_ready_.insert(r->fuzz_ready_.end(), me.ready.begin(),
                            me.ready.end());
    } else if (!r->prio_.empty()) {
      // Ascending priority: the most critical successor is pushed last and
      // popped first -- the worker dives along this graph's critical path.
      std::stable_sort(me.ready.begin(), me.ready.end(), [&](int a, int b) {
        return r->prio_[a] < r->prio_[b];
      });
    }
    r->outstanding_.fetch_add(static_cast<long>(me.ready.size()),
                              std::memory_order_relaxed);
    for (int s : me.ready) me.deque.push(pack(slot, fuzzed ? kPickReady : s));
    wake_workers();
  }
  if (r->outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    finish_run(r);
  }
}

int SharedRuntime::fuzz_pick(Run& r, Worker& me) {
  // A seeded random task from the graph's WHOLE ready set, not just from
  // this worker's deque; the mutex also carries the releasing worker's
  // acquire of the indegree counter over to us.
  std::uint64_t& rng = r.fuzz_rng_[me.id];
  int id;
  {
    std::lock_guard<std::mutex> lock(r.fuzz_mu_);
    const std::size_t k = next_rand(rng) % r.fuzz_ready_.size();
    id = r.fuzz_ready_[k];
    r.fuzz_ready_[k] = r.fuzz_ready_.back();
    r.fuzz_ready_.pop_back();
  }
  if (r.fuzz_delay_us_ > 0) {
    const auto max_us = static_cast<std::uint64_t>(r.fuzz_delay_us_);
    std::this_thread::sleep_for(
        std::chrono::microseconds(next_rand(rng) % (max_us + 1)));
  }
  return id;
}

void SharedRuntime::finish_run(Run* r) {
  // outstanding_ hit zero: no item for this graph exists in any deque or in
  // the injection queue, so the slot can be recycled.  Keep a strong ref
  // across the teardown -- dropping owners_[slot] must not free `r` while
  // this worker still touches it.
  ExecutionReport rep;
  rep.tasks_run = r->done_count_.load(std::memory_order_relaxed);
  rep.cancelled = r->cancel_->cancelled();
  rep.completed = rep.tasks_run == r->n_;
  std::shared_ptr<Run> self;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    self = std::move(owners_[r->slot_]);
    slots_[r->slot_].store(nullptr, std::memory_order_relaxed);
    free_slots_.push_back(r->slot_);
    --active_;
    slot_cv_.notify_one();
    if (active_ == 0) drain_cv_.notify_all();
  }
  graphs_completed_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(r->mu_);
    r->report_ = rep;
    r->finished_ = true;
  }
  r->cv_.notify_all();
}

std::int64_t SharedRuntime::steal(Worker& me) {
  const int w = static_cast<int>(workers_.size());
  if (w == 1) return WorkStealDeque::kEmpty;
  // Two random victims, then a full sweep from a random start.  No priority
  // peek here -- see the header for the lifetime argument.
  for (int round = 0; round < 2; ++round) {
    int v = static_cast<int>(next_rand(me.rng_state) %
                             static_cast<std::uint64_t>(w - 1));
    v += (v >= me.id) ? 1 : 0;
    const std::int64_t r = workers_[v]->deque.steal();
    if (r >= 0) return r;
  }
  const int start = static_cast<int>(next_rand(me.rng_state) %
                                     static_cast<std::uint64_t>(w));
  for (int i = 0; i < w; ++i) {
    const int v = (start + i) % w;
    if (v == me.id) continue;
    std::int64_t r = workers_[v]->deque.steal();
    if (r == WorkStealDeque::kAbort) r = workers_[v]->deque.steal();
    if (r >= 0) return r;
  }
  return WorkStealDeque::kEmpty;
}

std::int64_t SharedRuntime::take_injected(Worker& me) {
  if (inject_count_.load(std::memory_order_acquire) == 0) {
    return WorkStealDeque::kEmpty;
  }
  std::int64_t first;
  std::size_t take;
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    if (inject_.empty()) return WorkStealDeque::kEmpty;
    // A fair share in one lock hold.  The rest go onto our deque in reverse
    // (least critical first), so our next pop is the next most critical.
    take = (inject_.size() + workers_.size() - 1) / workers_.size();
    first = inject_.front();
    for (std::size_t i = take - 1; i >= 1; --i) me.deque.push(inject_[i]);
    inject_.erase(inject_.begin(),
                  inject_.begin() + static_cast<std::ptrdiff_t>(take));
    inject_count_.store(static_cast<long>(inject_.size()),
                        std::memory_order_release);
  }
  if (take > 1) wake_workers();  // the pushed items are stealable
  return first;
}

bool SharedRuntime::work_visible() const {
  if (inject_count_.load(std::memory_order_acquire) > 0) return true;
  for (const auto& w : workers_) {
    if (w->deque.size_hint() > 0) return true;
  }
  return false;
}

void SharedRuntime::idle() {
  // Exponential backoff: spin rounds of 1, 2, 4, ..., kMaxSpin pause
  // iterations, re-probing between rounds; yield each round so on an
  // oversubscribed core the worker actually holding work gets to run.
  // Then park.  Epoch protocol against lost wakeups: producers bump the
  // epoch AFTER making work visible, so either the probe below sees the
  // work or the epoch predicate is already true at the wait.
  for (int spins = 1; spins <= kMaxSpin; spins *= 2) {
    if (shutdown_.load(std::memory_order_acquire)) return;
    for (int i = 0; i < spins; ++i) cpu_relax();
    if (work_visible()) return;
    std::this_thread::yield();
  }
  const std::uint64_t epoch = wake_epoch_.load(std::memory_order_seq_cst);
  if (work_visible() || shutdown_.load(std::memory_order_acquire)) return;
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(park_mu_);
    park_cv_.wait(lock, [&] {
      return shutdown_.load(std::memory_order_acquire) ||
             wake_epoch_.load(std::memory_order_seq_cst) != epoch;
    });
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace plu::rt
