// DelayWheel — a dedicated timing thread for transport-level delay
// injection on the real-time engine.
//
// Slow-link faults (LinkFault::extra_latency) used to park the delayed
// datagram on a *stack's* timer heap, which had two problems: the delay
// competed with protocol timers for the stack thread's attention (a busy
// event loop skews the injected latency), and it created a cross-thread
// dependency from the transport into a host's timer state.  The wheel owns
// one plain thread and a deadline-ordered heap of closures; scheduling is
// mutex + condvar, and the closures it runs (enqueue_packet / socket_send)
// are thread-safe transport entry points, so no stack state is ever
// touched from the wheel thread.
//
// stop() joins the thread and DROPS whatever has not come due — matching
// the old behavior of discarding a stopping stack's timer heap: a delayed
// datagram that has not been "transmitted" by shutdown was never on the
// wire.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/time.hpp"

namespace dpu {

class DelayWheel {
 public:
  DelayWheel() : thread_([this] { loop(); }) {}

  DelayWheel(const DelayWheel&) = delete;
  DelayWheel& operator=(const DelayWheel&) = delete;

  ~DelayWheel() { stop(); }

  /// Runs `fn` on the wheel thread once `delay` has elapsed.  Entries with
  /// equal deadlines run in schedule order.
  void schedule(Duration delay, std::function<void()> fn) {
    const auto due = std::chrono::steady_clock::now() +
                     std::chrono::nanoseconds(std::max<Duration>(delay, 0));
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      heap_.push_back(Entry{due, next_seq_++, std::move(fn)});
      std::push_heap(heap_.begin(), heap_.end(), After{});
    }
    cv_.notify_one();
  }

  /// Joins the wheel thread; pending (not yet due) entries are dropped.
  /// Idempotent.
  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
      stopping_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  struct Entry {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct After {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (stopping_) return;
      if (heap_.empty()) {
        cv_.wait(lock);
        continue;
      }
      const auto due = heap_.front().due;
      if (std::chrono::steady_clock::now() < due) {
        cv_.wait_until(lock, due);
        continue;
      }
      std::pop_heap(heap_.begin(), heap_.end(), After{});
      std::function<void()> fn = std::move(heap_.back().fn);
      heap_.pop_back();
      lock.unlock();
      fn();  // thread-safe transport entry points only
      lock.lock();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
  std::thread thread_;  // last member: started after the state it uses
};

}  // namespace dpu
