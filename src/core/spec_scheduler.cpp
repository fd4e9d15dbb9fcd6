#include "core/spec_scheduler.hpp"

#include <algorithm>
#include <chrono>

#include "fault/fault.hpp"
#include "pagestore/page.hpp"
#include "pagestore/shard.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/threading.hpp"

namespace mw {

namespace {

// Which scheduler (if any) the current thread is a worker of. Lets submit()
// route nested spawns to the worker's own deque and should_help() detect
// that blocking would idle a pool thread.
struct WorkerIdentity {
  SpecScheduler* sched = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity t_worker;

bool is_kill_fault(FaultKind k) {
  return k == FaultKind::kCrashException || k == FaultKind::kFailAlternative ||
         k == FaultKind::kNodeCrash;
}

}  // namespace

SpecScheduler::SpecScheduler(SchedConfig cfg)
    : cfg_(cfg), det_rng_(cfg.deterministic_seed) {
  std::size_t workers = cfg_.workers;
  if (workers == 0) workers = hw_threads();
  if (deterministic()) {
    // No OS threads: the seed drives execution via run_one()/drain(), but
    // the deque geometry (and therefore the interleaving space) still
    // matches the requested worker count.
    workers = std::max<std::size_t>(1, cfg_.workers);
  }
  deques_.reserve(workers + 1);
  for (std::size_t i = 0; i < workers + 1; ++i)
    deques_.push_back(std::make_unique<Deque>());
  if (!deterministic()) {
    worker_threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
      worker_threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

SpecScheduler::~SpecScheduler() {
  shutdown_.store(true, std::memory_order_release);
  { std::lock_guard<std::mutex> lk(work_mu_); }  // see submit()
  work_cv_.notify_all();
  for (auto& t : worker_threads_) t.join();
  // Anything still queued is an orphan of a block that never completed;
  // revoke it through the normal terminal path — on_skipped fires exactly
  // once for a task whose body never ran, shutdown included.
  for (auto& d : deques_) {
    std::lock_guard<std::mutex> lk(d->mu);
    for (auto& t : d->tasks) {
      int expected = static_cast<int>(SchedTask::State::kQueued);
      if (!t->state_.compare_exchange_strong(
              expected, static_cast<int>(SchedTask::State::kRevoked))) {
        continue;
      }
      pending_.fetch_sub(1, std::memory_order_release);
      {
        std::lock_guard<std::mutex> slk(stats_mu_);
        ++stats_.revoked;
      }
      if (t->on_skipped_) t->on_skipped_(*t);
      t->fn_ = nullptr;
      t->on_skipped_ = nullptr;
    }
    d->tasks.clear();
  }
}

SchedTaskRef SpecScheduler::submit(std::function<void()> fn, double priority,
                                   std::uint64_t group, Pid pid,
                                   std::function<void(SchedTask&)> on_skipped,
                                   Pid parent, std::uint64_t alt_index) {
  auto task = std::make_shared<SchedTask>();
  task->fn_ = std::move(fn);
  task->on_skipped_ = std::move(on_skipped);
  task->priority_ = priority;
  task->group_ = group;
  task->pid_ = pid;
  task->seq_ = seq_.fetch_add(1, std::memory_order_relaxed);

  // A worker's own spawns stay local (LIFO locality for nested races);
  // everything else goes through the shared inbox, where workers steal it.
  std::size_t target = inbox_index();
  if (t_worker.sched == this) target = t_worker.index;
  {
    std::lock_guard<std::mutex> lk(deques_[target]->mu);
    deques_[target]->tasks.push_back(task);
  }
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.submitted;
  }
  MW_TRACE_EVENT(trace::EventKind::kSchedEnqueue, pid, parent, group,
                 alt_index);
  // A worker that has just found the predicate false still holds work_mu_
  // until it blocks; passing through the lock orders this notify after
  // that wait, so the wake-up is never lost to a full 10 ms sleep.
  { std::lock_guard<std::mutex> lk(work_mu_); }
  work_cv_.notify_one();
  return task;
}

bool SpecScheduler::revoke(const SchedTaskRef& task) {
  if (!task) return false;
  const FaultAction fa = MW_FAULT_POINT("sched.revoke");
  if (is_kill_fault(fa.kind)) return false;  // injected miss: body will run
  int expected = static_cast<int>(SchedTask::State::kQueued);
  if (!task->state_.compare_exchange_strong(
          expected, static_cast<int>(SchedTask::State::kRevoked),
          std::memory_order_acq_rel)) {
    return false;  // already claimed: cooperative cancellation's job now
  }
  pending_.fetch_sub(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.revoked;
  }
  if (task->on_skipped_) task->on_skipped_(*task);
  // The deque entry is erased lazily; drop the closures now so a parked
  // revoked task owns nothing of its dead race.
  task->fn_ = nullptr;
  task->on_skipped_ = nullptr;
  return true;
}

namespace {

// Drops terminal entries (revoked in place), then removes and returns the
// entry `better` prefers. Index-based: deque erasure invalidates iterators.
template <typename Better>
SchedTaskRef select_queued(std::deque<SchedTaskRef>& tasks, Better better) {
  tasks.erase(std::remove_if(tasks.begin(), tasks.end(),
                             [](const SchedTaskRef& t) {
                               return t->state() != SchedTask::State::kQueued;
                             }),
              tasks.end());
  if (tasks.empty()) return nullptr;
  std::size_t best = 0;
  for (std::size_t i = 1; i < tasks.size(); ++i)
    if (better(*tasks[i], *tasks[best])) best = i;
  SchedTaskRef task = tasks[best];
  tasks.erase(tasks.begin() + static_cast<std::ptrdiff_t>(best));
  return task;
}

}  // namespace

SchedTaskRef SpecScheduler::pop_own(std::size_t self) {
  Deque& d = *deques_[self];
  std::lock_guard<std::mutex> lk(d.mu);
  // Owner end: highest priority; ties LIFO (newest first).
  return select_queued(d.tasks, [](const SchedTask& a, const SchedTask& b) {
    return a.priority() >= b.priority();
  });
}

SchedTaskRef SpecScheduler::steal_from(std::size_t victim,
                                       std::uint64_t thief) {
  Deque& d = *deques_[victim];
  const bool from_inbox = victim == inbox_index();
  SchedTaskRef task;
  {
    std::lock_guard<std::mutex> lk(d.mu);
    // Thief end: lowest priority; ties FIFO (oldest first) — steal the
    // coarsest, least-locality-sensitive work and leave the owner its most
    // promising alternatives. The shared inbox has no owner to be polite
    // to: it drains highest-priority first (ties FIFO), so an externally
    // submitted race starts with the alternative most likely to win.
    task = select_queued(d.tasks, [&](const SchedTask& a, const SchedTask& b) {
      return from_inbox ? a.priority() > b.priority()
                        : a.priority() < b.priority();
    });
    if (!task) return nullptr;
  }
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.stolen;
  }
  MW_TRACE_EVENT(trace::EventKind::kSchedSteal, task->pid_, kNoPid,
                 task->group_, thief);
  return task;
}

SchedTaskRef SpecScheduler::take_any_as_thief(std::uint64_t thief,
                                              std::size_t skip_own) {
  // Inbox first — external work-sharing — then sweep the other workers.
  SchedTaskRef task = steal_from(inbox_index(), thief);
  if (task) return task;
  for (std::size_t v = 0; v < deques_.size() - 1; ++v) {
    if (v == skip_own) continue;
    task = steal_from(v, thief);
    if (task) return task;
  }
  return nullptr;
}

bool SpecScheduler::execute(const SchedTaskRef& task, bool stolen) {
  int expected = static_cast<int>(SchedTask::State::kQueued);
  if (!task->state_.compare_exchange_strong(
          expected, static_cast<int>(SchedTask::State::kRunning),
          std::memory_order_acq_rel)) {
    return false;  // revoked between deque removal and the claim
  }
  pending_.fetch_sub(1, std::memory_order_release);

  if (stolen) {
    // The steal-path fault point: a kill fault here models a worker dying
    // with a stolen task in hand — the task terminates without running and
    // the submitter sees a crash, never a hang.
    const FaultAction fa = MW_FAULT_POINT("sched.steal");
    if (is_kill_fault(fa.kind)) {
      task->state_.store(static_cast<int>(SchedTask::State::kFaulted),
                         std::memory_order_release);
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.faulted;
      }
      if (task->on_skipped_) task->on_skipped_(*task);
      task->fn_ = nullptr;
      task->on_skipped_ = nullptr;
      return true;
    }
    if (fa.kind == FaultKind::kDelay && !deterministic()) {
      std::this_thread::sleep_for(std::chrono::microseconds(fa.delay));
    }
  }

  task->fn_();
  task->state_.store(static_cast<int>(SchedTask::State::kDone),
                     std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.executed;
  }
  task->fn_ = nullptr;
  task->on_skipped_ = nullptr;
  return true;
}

void SpecScheduler::worker_loop(std::size_t self) {
  t_worker.sched = this;
  t_worker.index = self;
  // Claim a pagestore slot: the frames and radix nodes the tasks this
  // worker runs allocate come from its own lock-free free lists, and its
  // ledger slot, instead of the shared locked path. A worker that finds
  // every slot held (many runtimes in one process) stays on the shared
  // path; unbind() hands its lists back.
  PageShard::bind();
  while (true) {
    SchedTaskRef task = pop_own(self);
    bool stolen = false;
    if (!task) {
      task = take_any_as_thief(self, self);
      stolen = task != nullptr;
    }
    if (task) {
      execute(task, stolen);
      continue;
    }
    std::unique_lock<std::mutex> lk(work_mu_);
    work_cv_.wait_for(lk, std::chrono::milliseconds(10), [&] {
      return pending_.load(std::memory_order_acquire) > 0 ||
             shutdown_.load(std::memory_order_acquire);
    });
    if (shutdown_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      break;
    }
  }
  PageShard::unbind();
  t_worker.sched = nullptr;
}

bool SpecScheduler::run_one() {
  if (deterministic()) return run_one_deterministic();
  // Threaded mode: an external or worker thread helping while it waits
  // acts as a thief (its own deque first if it is a worker).
  SchedTaskRef task;
  bool stolen = false;
  if (t_worker.sched == this) {
    task = pop_own(t_worker.index);
    if (!task) {
      task = take_any_as_thief(t_worker.index, t_worker.index);
      stolen = task != nullptr;
    }
  } else {
    task = take_any_as_thief(kSchedExternalHelper, deques_.size());
    stolen = task != nullptr;
  }
  if (!task) return false;
  return execute(task, stolen);
}

bool SpecScheduler::run_one_deterministic() {
  // One seeded scheduling step: pick a non-empty deque, then act as its
  // owner (priority/LIFO) or as a thief (FIFO steal) — the coin that
  // enumerates interleavings across seeds.
  std::size_t victim = deques_.size();
  bool as_thief = false;
  {
    std::lock_guard<std::mutex> lk(det_mu_);
    std::vector<std::size_t> nonempty;
    for (std::size_t i = 0; i < deques_.size(); ++i) {
      std::lock_guard<std::mutex> dlk(deques_[i]->mu);
      for (const auto& t : deques_[i]->tasks) {
        if (t->state() == SchedTask::State::kQueued) {
          nonempty.push_back(i);
          break;
        }
      }
    }
    if (nonempty.empty()) return false;
    victim = nonempty[det_rng_.next_below(nonempty.size())];
    // Owner order and inbox-steal order both take the highest priority
    // first, so the coin varies only the tie-breaking (LIFO vs FIFO) —
    // priority hints stay honoured while seeds explore the interleavings
    // of equal-priority tasks.
    as_thief = det_rng_.next_bool(cfg_.deterministic_steal_prob);
  }
  SchedTaskRef task =
      as_thief ? steal_from(victim, kSchedDetDriver) : pop_own(victim);
  if (!task) return false;
  return execute(task, as_thief);
}

void SpecScheduler::drain() {
  MW_CHECK(deterministic());
  while (run_one_deterministic()) {
  }
}

bool SpecScheduler::should_help() const {
  return deterministic() || t_worker.sched == this;
}

bool SpecScheduler::admit(std::size_t worlds, Pid requester,
                          std::uint64_t group) {
  const FaultAction fa = MW_FAULT_POINT("sched.admit");
  if (is_kill_fault(fa.kind)) {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.admission_rejected;
    return false;
  }
  const std::size_t budget = cfg_.max_live_worlds;
  auto fits = [&] {
    if (budget != 0 && live_worlds_ + worlds > budget) {
      return false;
    }
    if (cfg_.max_resident_pages != 0 &&
        Page::live_instances() >=
            static_cast<std::int64_t>(cfg_.max_resident_pages)) {
      return false;
    }
    return true;
  };

  std::unique_lock<std::mutex> lk(admit_mu_);
  const bool forced_defer = fa.kind == FaultKind::kDelay;
  if (fits() && !forced_defer) {
    live_worlds_ += worlds;
    return true;
  }

  MW_TRACE_EVENT(trace::EventKind::kSchedAdmitDefer, requester, kNoPid,
                 group, live_worlds_);
  {
    std::lock_guard<std::mutex> slk(stats_mu_);
    ++stats_.admission_deferred;
  }
  if (deterministic()) {
    // Single-threaded: nothing can release capacity while we wait, so a
    // deferred race resolves immediately (admitted iff only force-deferred).
    if (fits()) {
      live_worlds_ += worlds;
      return true;
    }
    std::lock_guard<std::mutex> slk(stats_mu_);
    ++stats_.admission_rejected;
    return false;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(cfg_.admission_wait);
  // Poll in short slices: world releases signal the condvar, but page-count
  // pressure can also ease without any release() (worlds dying elsewhere).
  while (!fits()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::lock_guard<std::mutex> slk(stats_mu_);
      ++stats_.admission_rejected;
      return false;
    }
    admit_cv_.wait_for(lk, std::chrono::milliseconds(1));
  }
  live_worlds_ += worlds;
  return true;
}

void SpecScheduler::release(std::size_t worlds) {
  {
    std::lock_guard<std::mutex> lk(admit_mu_);
    MW_CHECK(live_worlds_ >= worlds);
    live_worlds_ -= worlds;
  }
  admit_cv_.notify_all();
}

void SpecScheduler::scrub(std::uint64_t group) {
  for (auto& d : deques_) {
    std::lock_guard<std::mutex> lk(d->mu);
    d->tasks.erase(
        std::remove_if(d->tasks.begin(), d->tasks.end(),
                       [&](const SchedTaskRef& t) {
                         return t->group_ == group &&
                                t->state() != SchedTask::State::kQueued;
                       }),
        d->tasks.end());
  }
}

std::size_t SpecScheduler::live_worlds() const {
  std::lock_guard<std::mutex> lk(admit_mu_);
  return live_worlds_;
}

SchedStats SpecScheduler::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

}  // namespace mw
