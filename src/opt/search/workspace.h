// Reusable scratch for the joint plan+placement search.
//
// Every planner invocation needs the same family of buffers — the DP tables
// g / best_op keyed by (mask, site), the materialized distance matrices, and
// per-tree placement tables. A PlanWorkspace owns them as one
// bump-allocated arena that grows to the high-water mark and is then reused
// verbatim, so multi-query sessions, the hierarchical optimizers (which run
// one planner call per cluster per level) and the differential fuzzer stop
// paying an allocation storm per call. It also owns the worker pool used by
// the deterministic parallel site sweep.
//
// Lifetime and threading rules (see DESIGN.md §9):
//   * a workspace serves ONE planning thread at a time; the pool inside
//     parallelizes a single invocation, it does not make the workspace
//     shareable;
//   * buffers are invalidated by the next planner call on the same
//     workspace — planner results never alias workspace memory;
//   * thread count changes take effect on the next invocation and never
//     change planner output (the sweep's reduction order is fixed).
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"

namespace iflow::opt {

class PlanWorkspace {
 public:
  /// threads < 0: use the IFLOW_THREADS environment variable when set, else
  /// one per hardware thread. threads == 0 or 1: serial. The pool is
  /// created lazily on the first parallel sweep.
  explicit PlanWorkspace(int threads = -1);

  /// Effective thread count (>= 1) the next sweep will use.
  int threads() const { return threads_; }

  /// Reconfigures the worker count; drops the existing pool.
  void set_threads(int threads);

  ThreadPool& pool();

  /// Resets the bump pointer and guarantees `bytes` of arena capacity so
  /// the carve() calls that follow never reallocate (pointer stability for
  /// the duration of one planner invocation).
  void begin(std::size_t bytes);

  /// Carves an uninitialized array of n Ts from the arena. T must be
  /// trivially destructible. Alignment is rounded up to alignof(T).
  template <typename T>
  T* carve(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    std::size_t off = (used_ + alignof(T) - 1) & ~(alignof(T) - 1);
    IFLOW_CHECK_MSG(off + n * sizeof(T) <= arena_.size(),
                    "arena overrun: begin() reserved too little");
    used_ = off + n * sizeof(T);
    return reinterpret_cast<T*>(arena_.data() + off);
  }

  /// Arena capacity high-water mark in bytes (diagnostics, tests).
  std::size_t capacity() const { return arena_.size(); }

 private:
  int threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::byte> arena_;
  std::size_t used_ = 0;
};

/// Thread-local fallback workspace used when the caller supplies none
/// (OptimizerEnv::workspace == nullptr); keeps casual callers — tests,
/// examples, single planner calls — on the reuse path with no plumbing.
PlanWorkspace& default_workspace();

}  // namespace iflow::opt
