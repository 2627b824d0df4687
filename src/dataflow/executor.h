// The engine's executor: drives a set of resumable kernel tasks to
// completion on a small pool of host threads.
//
// Scheduling is event-driven: every Stream wakes its blocked neighbour
// through the ReadyHook seam (ring_core.h) when a ring transaction lands,
// so a kernel is queued only while it has something to do. Workers pull
// from per-worker deques (LIFO for cache warmth) and steal from peers when
// their own runs dry; idle workers park on a condition variable instead of
// sweeping, so a deep chain where only a few kernels are runnable costs no
// O(tasks) scan per step and no spinning. The home deque of each task is
// the block partition of the topologically ordered task list, which places
// producer/consumer pairs on the same worker.
//
// The pool holds min(requested threads, hardware_concurrency, tasks)
// workers: one fixed datapath per layer, as many host cores as the
// machine has. The first kernel exception aborts the run (through the
// shared abort flag every worker polls) and is rethrown to the caller
// after all workers have quiesced.
#pragma once

#include <atomic>
#include <memory>
#include <span>

#include "dataflow/kernels.h"

namespace qnn {

class Executor {
 public:
  virtual ~Executor() = default;

  /// Drive every task to completion (StepResult::kDone). Sets `abort` and
  /// rethrows the first task exception once all workers have stopped;
  /// throws Error("dataflow run aborted") if `abort` was raised externally
  /// (StreamEngine::cancel) with no task exception.
  virtual void run(std::span<Kernel* const> tasks,
                   std::atomic<bool>& abort) = 0;
};

/// Event-driven ready-queue scheduler with work stealing (see the file
/// comment). `threads` = 0 means hardware_concurrency; larger requests are
/// clamped to it.
std::unique_ptr<Executor> make_ready_queue_executor(unsigned threads = 0);

}  // namespace qnn
