#include "service/solver_service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace plu::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

const char* to_string(RequestState s) {
  switch (s) {
    case RequestState::kQueued:
      return "queued";
    case RequestState::kRunning:
      return "running";
    case RequestState::kDone:
      return "done";
    case RequestState::kFailed:
      return "failed";
    case RequestState::kCancelled:
      return "cancelled";
    case RequestState::kExpired:
      return "expired";
  }
  return "unknown";
}

Request::Request(long id, CscMatrix a, std::vector<double> b,
                 RequestOptions opt)
    : id_(id), a_(std::move(a)), b_(std::move(b)), opt_(std::move(opt)) {}

RequestState Request::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

RequestResult Request::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return is_terminal(state_); });
  return result_;
}

void Request::cancel() {
  client_cancelled_.store(true, std::memory_order_relaxed);
  token_.cancel();
}

SolverService::SolverService(const ServiceOptions& opt)
    : opt_(opt),
      cache_(opt.cache_capacity),
      runtime_(std::max(1, opt.threads)) {
  const int orchestrators = std::max(1, opt.max_concurrent);
  orchestrators_.reserve(size_t(orchestrators));
  for (int i = 0; i < orchestrators; ++i) {
    orchestrators_.emplace_back([this] { orchestrate(); });
  }
  watchdog_ = std::thread([this] { watchdog(); });
}

SolverService::~SolverService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : orchestrators_) t.join();  // drains the queue
  {
    std::lock_guard<std::mutex> lock(dl_mu_);
    dl_stop_ = true;
  }
  dl_cv_.notify_all();
  watchdog_.join();
  // runtime_ destruction waits for any straggler graphs, then stops workers.
}

std::shared_ptr<Request> SolverService::submit(CscMatrix a,
                                               std::vector<double> b,
                                               RequestOptions opt) {
  if (a.rows() <= 0 || a.rows() != a.cols()) {
    throw std::invalid_argument("SolverService::submit: matrix must be "
                                "square and non-empty");
  }
  if (!a.valid()) {
    throw std::invalid_argument("SolverService::submit: malformed matrix");
  }
  if (opt.want_solve && long(b.size()) != long(a.rows())) {
    throw std::invalid_argument("SolverService::submit: rhs size mismatch");
  }

  std::shared_ptr<Request> req;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      throw std::runtime_error("SolverService::submit: service is stopping");
    }
    req.reset(new Request(next_id_, std::move(a), std::move(b), opt));
    req->submitted_ = Clock::now();
    queue_.emplace(std::make_pair(-opt.priority, next_id_), req);
    ++next_id_;
    ++stats_.submitted;
  }
  queue_cv_.notify_one();

  if (opt.deadline > Clock::duration::zero()) {
    {
      std::lock_guard<std::mutex> lock(dl_mu_);
      deadlines_.emplace(req->submitted_ + opt.deadline, req);
    }
    dl_cv_.notify_one();
  }
  return req;
}

ServiceStats SolverService::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
  }
  s.cache = cache_.stats();
  return s;
}

void SolverService::orchestrate() {
  for (;;) {
    std::shared_ptr<Request> req;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and nothing left to drain
      req = queue_.begin()->second;
      queue_.erase(queue_.begin());
    }
    process(req);
  }
}

void SolverService::watchdog() {
  std::unique_lock<std::mutex> lock(dl_mu_);
  for (;;) {
    if (dl_stop_) return;
    if (deadlines_.empty()) {
      dl_cv_.wait(lock);
      continue;
    }
    const Clock::time_point next = deadlines_.top().first;
    if (Clock::now() < next) {
      dl_cv_.wait_until(lock, next);
      continue;
    }
    DeadlineItem item = deadlines_.top();
    deadlines_.pop();
    lock.unlock();
    if (std::shared_ptr<Request> req = item.second.lock()) {
      if (!req->done()) {
        // Order matters: mark expiry BEFORE tripping the token, so a
        // processor that observes the cancellation always sees why.
        req->expired_.store(true, std::memory_order_release);
        req->token_.cancel();
      }
    }
    lock.lock();
  }
}

void SolverService::finalize(const std::shared_ptr<Request>& req,
                             RequestState state, RequestResult result) {
  result.state = state;
  // Counters first: a waiter released by the notify below must see the
  // terminal state already reflected in stats().
  {
    std::lock_guard<std::mutex> lock(mu_);
    switch (state) {
      case RequestState::kDone:
        ++stats_.completed;
        break;
      case RequestState::kFailed:
        ++stats_.failed;
        break;
      case RequestState::kCancelled:
        ++stats_.cancelled;
        break;
      case RequestState::kExpired:
        ++stats_.expired;
        break;
      default:
        break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(req->mu_);
    req->state_ = state;
    req->result_ = std::move(result);
  }
  req->cv_.notify_all();
}

void SolverService::process(const std::shared_ptr<Request>& req) {
  const Clock::time_point pickup = Clock::now();
  RequestResult r;
  r.queue_seconds = seconds_between(req->submitted_, pickup);
  {
    std::lock_guard<std::mutex> lock(req->mu_);
    req->state_ = RequestState::kRunning;
  }

  // A deadline that elapsed while the request sat in the queue terminates it
  // here even if the watchdog has not fired yet -- expiry is deterministic,
  // not a race against the watchdog's wakeup.
  if (!req->token_.cancelled() &&
      req->opt_.deadline > Clock::duration::zero() &&
      pickup >= req->submitted_ + req->opt_.deadline) {
    req->expired_.store(true, std::memory_order_release);
    req->token_.cancel();
  }
  if (req->token_.cancelled()) {
    r.factor_status = FactorStatus::kCancelled;
    const bool expired = req->expired_.load(std::memory_order_acquire);
    finalize(req, expired ? RequestState::kExpired : RequestState::kCancelled,
             std::move(r));
    return;
  }

  Options aopt = opt_.analyze;
  if (req->opt_.layout) aopt.layout = *req->opt_.layout;
  if (req->opt_.ordering) aopt.ordering = *req->opt_.ordering;

  NumericOptions nopt = opt_.numeric;
  nopt.mode = ExecutionMode::kThreaded;
  nopt.shared_runtime = &runtime_;
  nopt.request_priority = req->opt_.priority;
  nopt.cancel = &req->token_;

  std::shared_ptr<const Analysis> an;
  Clock::time_point t0 = Clock::now();
  try {
    an = opt_.enable_cache
             ? cache_.get_or_analyze(req->a_, aopt, &r.cache_hit)
             : std::make_shared<const Analysis>(analyze(req->a_, aopt));
  } catch (const std::exception& e) {
    r.error = std::string("analysis failed: ") + e.what();
    finalize(req, RequestState::kFailed, std::move(r));
    return;
  }
  r.analyze_seconds = seconds_between(t0, Clock::now());

  try {
    t0 = Clock::now();
    Factorization f(*an, req->a_, nopt);
    r.factor_seconds = seconds_between(t0, Clock::now());
    r.factor_status = f.status();
    if (f.status() == FactorStatus::kCancelled) {
      const bool expired = req->expired_.load(std::memory_order_acquire);
      finalize(req,
               expired ? RequestState::kExpired : RequestState::kCancelled,
               std::move(r));
      return;
    }
    if (!factor_usable(f.status())) {
      r.error = std::string("factorization breakdown: ") +
                plu::to_string(f.status());
      finalize(req, RequestState::kFailed, std::move(r));
      return;
    }
    if (req->opt_.want_solve) {
      t0 = Clock::now();
      r.x = f.solve(req->b_, nopt);
      r.solve_seconds = seconds_between(t0, Clock::now());
    }
    finalize(req, RequestState::kDone, std::move(r));
  } catch (const std::exception& e) {
    r.error = e.what();
    finalize(req, RequestState::kFailed, std::move(r));
  }
}

}  // namespace plu::service
