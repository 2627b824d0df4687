#include "dataflow/executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "dataflow/ready_protocol.h"

namespace qnn {
namespace {

/// Collects the first exception of a run and trips the shared abort flag
/// so every other task unwinds instead of deadlocking on a dead neighbour.
class ErrorLatch {
 public:
  explicit ErrorLatch(std::atomic<bool>& abort) : abort_(abort) {}

  void capture() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    abort_.store(true, std::memory_order_relaxed);
  }

  /// After all workers joined: rethrow the captured exception, or report
  /// an external abort (cancel) that produced no task exception.
  void finish() {
    if (error_) std::rethrow_exception(error_);
    QNN_CHECK(!abort_.load(std::memory_order_relaxed),
              "dataflow run aborted");
  }

 private:
  std::atomic<bool>& abort_;
  std::mutex mu_;
  std::exception_ptr error_;
};

// -------------------------------------------------------- ready queue

/// Per-run scheduler state behind make_ready_queue_executor: the ReadyHook
/// the streams call into, the per-worker deques, and the parking lot.
///
/// The task state machine itself — kIdle/kReady/kRunning/kNotify/kDone,
/// the wake CAS loop and the lost-wakeup closure (one fenced re-step per
/// blocked episode, Dekker-paired with the wake fence) — lives in
/// ready_protocol.h as ReadyProtocol<Sync>, instantiated here with
/// RealSync. The model checker (src/mc) explores the SAME template on
/// virtual threads; this class adds the parts the checker abstracts away:
/// per-worker deques, work stealing, the parking lot and the error latch.
///
/// Workers with nothing to run (own deque empty, nothing to steal) park
/// on a condition variable with a short timeout instead of spinning; a
/// missed notify (the enqueue raced the parked-counter check) costs at
/// most one timeout. After two consecutive empty timeouts a worker runs a
/// rescue sweep that re-queues every kIdle task — the liveness backstop
/// for kernels that bind no streams (Kernel::bind_ready default).
class ReadyQueueScheduler final : public ReadyHook {
 public:
  ReadyQueueScheduler(std::span<Kernel* const> tasks, std::size_t workers,
                      std::atomic<bool>& abort)
      : tasks_(tasks),
        abort_(abort),
        latch_(abort),
        proto_(tasks.size()),
        homes_(tasks.size()),
        queues_(workers),
        remaining_(tasks.size()) {
    // Home = block partition of the topologically ordered task list:
    // task i lives on worker i*W/N, so adjacent producer/consumer kernels
    // share a deque.
    const std::size_t n = tasks.size();
    for (std::size_t i = 0; i < n; ++i) {
      homes_[i] = i * workers / n;
      queues_[homes_[i]].q.push_back(static_cast<int>(i));
    }
  }

  void wake(int task) override {
    proto_.wake(task, [this](int t) { enqueue(t); });
  }

  void worker(std::size_t wid) {
    // Rescue only when the whole scheduler looks dead: an idle worker
    // parking while its peers stream data must NOT sweep all n tasks
    // every few hundred microseconds — on deep graphs that re-queues
    // (and no-op re-steps) every idle kernel, costing O(n) per sweep.
    // The activity counter ticks on every enqueue and completion, so a
    // parker that keeps observing fresh activity just backs off.
    int stale_timeouts = 0;
    std::uint64_t seen = activity_.load(std::memory_order_acquire);
    while (remaining_.load(std::memory_order_acquire) != 0 &&
           !abort_.load(std::memory_order_relaxed)) {
      int t = pop_local(wid);
      if (t < 0) t = steal(wid);
      if (t < 0) {
        park(stale_timeouts);
        const std::uint64_t now = activity_.load(std::memory_order_acquire);
        if (now != seen) {
          seen = now;
          stale_timeouts = 0;
        } else if (++stale_timeouts >= 2) {
          rescue();
          stale_timeouts = 0;
        }
        continue;
      }
      stale_timeouts = 0;
      execute(t);
    }
    // Exit path: make peers re-check remaining/abort promptly.
    notify_all_parked();
  }

  /// After all workers joined: rethrow / report per ErrorLatch.
  void finish() { latch_.finish(); }

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<int> q;
  };

  void enqueue(int task) {
    WorkerQueue& wq = queues_[homes_[static_cast<std::size_t>(task)]];
    {
      const std::lock_guard<std::mutex> lock(wq.mu);
      wq.q.push_back(task);
    }
    // Notify only when a peer is parked: every enqueue comes from a worker
    // (a kernel step or a rescue sweep), and a worker always drains the
    // deques — pop_local then steal — before it parks, so while every
    // worker is awake a ready task needs no futex wake. The pool never
    // exceeds the core count (ReadyQueueExecutor::run), so a parked peer
    // always has an idle core to run on.
    activity_.fetch_add(1, std::memory_order_release);
    if (parked_.load(std::memory_order_seq_cst) > 0) {
      // Lock so the notify cannot fall between a parker's counter bump
      // and its wait; a parker that has not bumped yet just eats one
      // timeout instead.
      const std::lock_guard<std::mutex> lock(park_mu_);
      park_cv_.notify_one();
    }
  }

  int pop_local(std::size_t wid) {
    WorkerQueue& wq = queues_[wid];
    const std::lock_guard<std::mutex> lock(wq.mu);
    if (wq.q.empty()) return -1;
    const int t = wq.q.back();  // LIFO: the task whose data is cache-hot
    wq.q.pop_back();
    return t;
  }

  int steal(std::size_t wid) {
    for (std::size_t j = 1; j < queues_.size(); ++j) {
      WorkerQueue& wq = queues_[(wid + j) % queues_.size()];
      const std::lock_guard<std::mutex> lock(wq.mu);
      if (wq.q.empty()) continue;
      const int t = wq.q.front();  // FIFO side: the victim's coldest task
      wq.q.pop_front();
        return t;
    }
    return -1;
  }

  /// Timed park with exponential backoff: a worker that keeps finding
  /// nothing sleeps longer (200us up to 3.2ms) so an idle pool costs a
  /// bounded trickle of timeout rescans instead of a busy loop. A
  /// surplus notify (enqueue) cuts any wait short.
  void park(int stale_timeouts) {
    std::unique_lock<std::mutex> lock(park_mu_);
    parked_.fetch_add(1, std::memory_order_seq_cst);
    const auto wait =
        std::chrono::microseconds(200u << std::min(stale_timeouts, 4));
    park_cv_.wait_for(lock, wait);
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }

  void notify_all_parked() {
    const std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_all();
  }

  /// Re-queue every idle task. Spurious readiness is harmless (the step
  /// reports kBlocked and the task goes idle again); missing liveness is
  /// not.
  void rescue() {
    for (std::size_t i = 0; i < proto_.size(); ++i) {
      if (proto_.make_ready(static_cast<int>(i))) {
        enqueue(static_cast<int>(i));
      }
    }
  }

  void task_done() {
    activity_.fetch_add(1, std::memory_order_release);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      notify_all_parked();
    }
  }

  void execute(int t) {
    if (!proto_.claim(t)) {
      return;  // kDone raced in (captured error); drop the queue entry
    }
    const DriveResult r = proto_.drive(t, [this, t]() -> ProtoStep {
      if (abort_.load(std::memory_order_relaxed)) return ProtoStep::kAbort;
      try {
        switch (tasks_[static_cast<std::size_t>(t)]->step_checked()) {
          case StepResult::kDone:
            return ProtoStep::kDone;
          case StepResult::kProgress:
            return ProtoStep::kProgress;
          case StepResult::kBlocked:
            return ProtoStep::kBlocked;
        }
      } catch (...) {
        latch_.capture();
      }
      return ProtoStep::kFailed;
    });
    if (r == DriveResult::kCompleted) {
      task_done();
    } else if (r == DriveResult::kFailed) {
      task_done();
      notify_all_parked();  // abort is set; stop peers from sleeping
    }
    // kIdle / kRequeued / kAborted need nothing further from this worker.
  }

  std::span<Kernel* const> tasks_;
  std::atomic<bool>& abort_;
  ErrorLatch latch_;
  ReadyProtocol<RealSync> proto_;
  std::vector<std::size_t> homes_;
  std::vector<WorkerQueue> queues_;
  std::atomic<std::size_t> remaining_;
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<int> parked_{0};
  std::atomic<std::uint64_t> activity_{0};  // enqueues + completions
};

/// Ready-queue executor with a persistent worker pool. Spawning and
/// joining a pool of OS threads costs tens of microseconds per thread —
/// for a serving-shaped workload (one image per run()) through a deep
/// pipeline that fixed cost dwarfs the compute, and it grows linearly
/// with the pool size. Workers are therefore spawned once, lazily, and
/// parked on a generation counter between runs: each run() publishes a
/// fresh ReadyQueueScheduler, bumps the generation, and waits until every
/// participating worker has finished that generation. The destructor
/// raises shutdown and joins.
class ReadyQueueExecutor final : public Executor {
 public:
  explicit ReadyQueueExecutor(unsigned threads) : threads_(threads) {}

  ~ReadyQueueExecutor() override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
      ++gen_;
    }
    start_cv_.notify_all();
    for (auto& t : pool_) t.join();
  }

  void run(std::span<Kernel* const> tasks,
           std::atomic<bool>& abort) override {
    const std::size_t n = tasks.size();
    if (n == 0) return;
    // A worker beyond the core count has no core to run on — it could
    // only preempt a productive peer — so the pool never exceeds it.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t workers = std::min<std::size_t>(
        threads_ != 0 ? std::min(threads_, hw) : hw, n);

    ReadyQueueScheduler sched(tasks, workers, abort);
    // Bind the readiness seam before any worker starts; unbind after they
    // join, exception or not, so a cancelled run never leaves a stream
    // waking into a dead scheduler on the next run.
    for (std::size_t i = 0; i < n; ++i) {
      tasks[i]->bind_ready(&sched, static_cast<int>(i));
    }
    struct Unbind {
      std::span<Kernel* const> tasks;
      ~Unbind() {
        for (Kernel* t : tasks) t->bind_ready(nullptr, -1);
      }
    } unbind{tasks};

    {
      std::unique_lock<std::mutex> lock(mu_);
      while (pool_.size() < workers) {
        const std::size_t wid = pool_.size();
        pool_.emplace_back([this, wid] { pool_worker(wid); });
      }
      sched_ = &sched;
      run_workers_ = workers;
      active_ = workers;
      ++gen_;
      start_cv_.notify_all();
      done_cv_.wait(lock, [this] { return active_ == 0; });
      sched_ = nullptr;
    }
    sched.finish();
  }

 private:
  void pool_worker(std::size_t wid) {
    std::uint64_t seen = 0;
    for (;;) {
      ReadyQueueScheduler* sched = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        start_cv_.wait(lock, [&] { return shutdown_ || gen_ != seen; });
        seen = gen_;
        if (shutdown_) return;
        // A run may use fewer workers than the pool holds (task count
        // shrank); surplus workers sit this generation out.
        if (wid < run_workers_) sched = sched_;
      }
      if (sched != nullptr) {
        sched->worker(wid);
        const std::lock_guard<std::mutex> lock(mu_);
        if (--active_ == 0) done_cv_.notify_all();
      }
    }
  }

  unsigned threads_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> pool_;
  ReadyQueueScheduler* sched_ = nullptr;
  std::size_t run_workers_ = 0;
  std::size_t active_ = 0;
  std::uint64_t gen_ = 0;
  bool shutdown_ = false;
};

}  // namespace

std::unique_ptr<Executor> make_ready_queue_executor(unsigned threads) {
  return std::make_unique<ReadyQueueExecutor>(threads);
}

}  // namespace qnn
