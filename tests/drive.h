// Blocking drivers for unit tests of streams and kernels.
//
// The engine never blocks: kernels step cooperatively and the executor
// re-queues a blocked kernel when a stream wakes it. A unit test that feeds
// a stream from one thread and drains it from another, or runs one kernel
// alone, wants to wait instead. These helpers retry the non-blocking burst
// API with a yield, and note stall episodes the way kernels do (once per
// continuous wait).
#pragma once

#include <cstdint>
#include <span>
#include <thread>

#include "dataflow/kernels.h"
#include "dataflow/stream.h"

namespace qnn::testutil {

/// Push all of `vs`, waiting while the FIFO is full.
inline void push(Stream& s, std::span<const std::int32_t> vs) {
  bool stalled = false;
  while (!vs.empty()) {
    const std::size_t n = s.try_push_burst(vs);
    if (n == 0) {
      if (!stalled) s.note_push_stall();
      stalled = true;
      std::this_thread::yield();
      continue;
    }
    stalled = false;
    vs = vs.subspan(n);
  }
}

inline void push(Stream& s, std::int32_t v) { push(s, {&v, 1}); }

/// Wait until at least one value is available and move up to `out.size()`
/// of them; returns the count, 0 once the stream is closed and drained.
inline std::size_t pop(Stream& s, std::span<std::int32_t> out) {
  bool stalled = false;
  for (;;) {
    const std::size_t n = s.try_pop_burst(out);
    if (n != 0 || s.drained()) return n;
    if (!stalled) s.note_pop_stall();
    stalled = true;
    std::this_thread::yield();
  }
}

/// Pop one value; false once the stream is closed and drained.
inline bool pop(Stream& s, std::int32_t& v) { return pop(s, {&v, 1}) == 1; }

/// Step `k` until it reports kDone, yielding while it is blocked.
inline void drive(Kernel& k) {
  for (;;) {
    switch (k.step_checked()) {
      case StepResult::kDone:
        return;
      case StepResult::kProgress:
        break;
      case StepResult::kBlocked:
        std::this_thread::yield();
        break;
    }
  }
}

}  // namespace qnn::testutil
