// Module base class and timer RAII helper.
//
// A module is one per-machine instance of a protocol (paper §2: "protocols
// are implemented by a set of identical modules, each module running on a
// different machine").  Modules are owned by their Stack, are created and
// destroyed dynamically, and interact with the rest of the stack exclusively
// through services (core/service.hpp).
#pragma once

#include <functional>
#include <string>

#include "runtime/host.hpp"

namespace dpu {

class Stack;

class Module {
 public:
  /// `instance_name` identifies this module instance; dynamically created
  /// protocol instances use names that are identical across stacks (e.g.
  /// "abcast.ct@2") so traces can correlate them for the protocol-
  /// operationability property.
  Module(Stack& stack, std::string instance_name)
      : stack_(&stack), instance_name_(std::move(instance_name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Called once after the module has been created, bound, and its required
  /// services resolved; modules arm timers and begin I/O here.
  virtual void start() {}

  /// Called before destruction; modules cancel timers and detach here.
  /// Service bindings and listeners registered with an owner are removed by
  /// the Stack automatically.
  virtual void stop() {}

  [[nodiscard]] const std::string& instance_name() const {
    return instance_name_;
  }
  [[nodiscard]] Stack& stack() const { return *stack_; }

  /// Idempotent start, used by Stack::start_all and create_module.
  void start_once() {
    if (!started_) {
      started_ = true;
      start();
    }
  }

  [[nodiscard]] bool started() const { return started_; }

 protected:
  [[nodiscard]] HostEnv& env() const;

 private:
  Stack* stack_;
  std::string instance_name_;
  bool started_ = false;
};

/// RAII one-shot timer owned by a module.  Re-scheduling cancels the
/// previous shot; destruction cancels any pending shot, so a destroyed
/// module can never receive a stale callback.
///
/// The callback is stored in the slot and the engine-facing wrapper only
/// captures `this`, so arming a timer never heap-allocates (hot paths arm
/// timers per delivery batch / per retransmit tick).
class TimerSlot {
 public:
  explicit TimerSlot(HostEnv& host) : host_(&host) {}
  ~TimerSlot() { cancel(); }

  TimerSlot(const TimerSlot&) = delete;
  TimerSlot& operator=(const TimerSlot&) = delete;

  /// Arms the timer `after` from now, replacing any pending shot.
  void schedule(Duration after, std::function<void()> cb) {
    cancel();
    cb_ = std::move(cb);
    id_ = host_->set_timer(after, [this]() {
      // Move out before invoking: the callback may re-schedule this slot,
      // which would otherwise assign cb_ while it is executing.
      auto pending_cb = std::move(cb_);
      id_ = kNoTimer;
      pending_cb();
    });
  }

  void cancel() {
    if (id_ != kNoTimer) {
      host_->cancel_timer(id_);
      id_ = kNoTimer;
      cb_ = nullptr;
    }
  }

  [[nodiscard]] bool pending() const { return id_ != kNoTimer; }

 private:
  HostEnv* host_;
  TimerId id_ = kNoTimer;
  std::function<void()> cb_;
};

/// RAII turn-end request owned by a module (HostEnv::at_turn_end): the
/// callback is fixed at construction, request() is idempotent until it
/// runs, and destruction cancels, so a destroyed module never receives a
/// stale call.  Like TimerSlot, the engine-facing wrapper only captures
/// `this`.
class TurnEndSlot {
 public:
  TurnEndSlot(HostEnv& host, std::function<void()> cb)
      : host_(&host), cb_(std::move(cb)) {}
  ~TurnEndSlot() { cancel(); }

  TurnEndSlot(const TurnEndSlot&) = delete;
  TurnEndSlot& operator=(const TurnEndSlot&) = delete;

  void request() {
    if (id_ != kNoTurnEnd) return;
    id_ = host_->at_turn_end([this]() {
      id_ = kNoTurnEnd;  // first: the callback may request the next turn
      cb_();
    });
  }

  void cancel() {
    if (id_ != kNoTurnEnd) {
      host_->cancel_turn_end(id_);
      id_ = kNoTurnEnd;
    }
  }

 private:
  HostEnv* host_;
  TurnEndId id_ = kNoTurnEnd;
  std::function<void()> cb_;
};

}  // namespace dpu
