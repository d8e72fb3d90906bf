// Copyright 2026 The SPLASH Reproduction Authors.
//
// PipelineThread: the one-slot background stage of the serving layer's
// catch-up (serve/service.h). It owns a single persistent thread and at
// most ONE job in flight: after the apply thread publishes micro-batch k,
// the pipeline thread catches the other replica up on batch k while the
// apply thread waits for batch k+1; Wait() is the hand-off barrier before
// the apply thread writes that replica again.
// Offline replay (eval/stream_executor.h) starts no thread.
//
// Design rules:
//   - Submit() takes a function pointer + context pointer, never a
//     std::function, so the steady-state submit path performs zero heap
//     allocations (allocation_steady_state_test gates this);
//   - Submit() requires the slot to be idle (call Wait() first); one slot
//     is a feature, not a limitation: batch k+1 is applied to the replica
//     the batch-k job writes, so it can only start after that job.

#ifndef SPLASH_RUNTIME_PIPELINE_H_
#define SPLASH_RUNTIME_PIPELINE_H_

#include <condition_variable>
#include <mutex>
#include <thread>

namespace splash {

class PipelineThread {
 public:
  using Fn = void (*)(void* ctx);

  PipelineThread();
  ~PipelineThread();

  PipelineThread(const PipelineThread&) = delete;
  PipelineThread& operator=(const PipelineThread&) = delete;

  /// Hands `fn(ctx)` to the background thread. The slot must be idle
  /// (construction, or after a Wait()); `ctx` must stay alive until the
  /// matching Wait() returns.
  void Submit(Fn fn, void* ctx);

  /// Blocks until the in-flight job (if any) finished. Returns immediately
  /// when idle. This is the pipeline barrier: after Wait() the caller owns
  /// all state the job touched.
  void Wait();

 private:
  void Loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  Fn fn_ = nullptr;   // non-null while a job is queued or running
  void* ctx_ = nullptr;
  bool busy_ = false;
  bool shutdown_ = false;
  std::thread worker_;
};

}  // namespace splash

#endif  // SPLASH_RUNTIME_PIPELINE_H_
