// Cooperative cancellation for in-flight evaluation. A CancelToken is the
// one cell a submitter and an evaluating worker share: the submitter (or a
// dropped future) flips the atomic flag, the engine's hot loops poll it at
// decimated cancellation points and unwind with whatever partial answer set
// they have gathered. The deadline rides in the same token so a single
// ShouldStop() probe covers both "cancelled from outside" and "evaluation
// budget exhausted mid-traversal".
//
// Cost model: callers poll every N work units (see Engine::kCancelCheckStride)
// so the steady_clock read — the expensive part — is amortized to noise; the
// flag itself is one relaxed atomic load. The deadline is written once,
// before the token is handed to another thread (the submission queue's mutex
// publishes it), so it needs no atomicity of its own; only the flag is
// flipped cross-thread mid-flight.
#ifndef BINCHAIN_UTIL_CANCEL_TOKEN_H_
#define BINCHAIN_UTIL_CANCEL_TOKEN_H_

#include <atomic>
#include <chrono>

namespace binchain {

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation; safe from any thread, idempotent. Evaluation
  /// already past its last cancellation point still completes normally.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Arms the evaluation budget: the token reads as expired once `now`
  /// passes `deadline`. Must be called before the token is shared with the
  /// evaluating thread (submission publishes it); not thread-safe against
  /// concurrent ShouldStop().
  void SetDeadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  void SetDeadlineAfter(double budget_ms) {
    SetDeadline(Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(budget_ms)));
  }

  bool has_deadline() const { return has_deadline_; }

  /// The armed deadline, or Clock::time_point::max() when none is armed:
  /// "no deadline" orders as the latest deadline of all.
  Clock::time_point deadline() const {
    return has_deadline_ ? deadline_ : Clock::time_point::max();
  }

  bool Expired() const {
    return has_deadline_ && Clock::now() >= deadline_;
  }

  /// The polled predicate: cancelled from outside, or past the deadline.
  /// The clock is only read when a deadline is armed.
  bool ShouldStop() const { return cancelled() || Expired(); }

 private:
  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
};

}  // namespace binchain

#endif  // BINCHAIN_UTIL_CANCEL_TOKEN_H_
