// Clock seam for the observability layer: every timestamp in the metrics
// and tracing subsystems flows through the process-wide obs::Clock, so
// tests can inject a deterministic clock and get byte-stable traces.
//
// SteadyClock (the default) reads std::chrono::steady_clock — the only
// permitted user of it inside src/ (machine-checked by refit-check's
// `obs-timing` rule). ManualClock advances a fixed step per call *per
// calling thread*, so a thread's timestamp sequence does not depend on
// how many pool workers happen to read the clock concurrently — that
// independence is what makes golden traces byte-identical at 1 and 4
// threads (tests/test_obs.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <thread>

namespace refit::obs {

/// Monotonic nanosecond time source.
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual std::uint64_t now_ns() = 0;
};

/// Wall clock over std::chrono::steady_clock.
class SteadyClock final : public Clock {
 public:
  [[nodiscard]] std::uint64_t now_ns() override;
};

/// Deterministic test clock: the n-th call *from a given thread* returns
/// base + (n + 1) * step. Sequences are per-thread (not a shared counter)
/// so a caller's timestamps stay identical whether or not worker threads
/// are also reading the clock.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(std::uint64_t step_ns = 1000, std::uint64_t base_ns = 0)
      : step_(step_ns), base_(base_ns) {}
  [[nodiscard]] std::uint64_t now_ns() override;

 private:
  std::uint64_t step_;
  std::uint64_t base_;
  std::mutex mu_;
  std::map<std::thread::id, std::uint64_t> calls_;
};

/// Install a process-wide clock; nullptr restores the steady clock. Not
/// synchronized: call while no spans or stopwatches are live (test setup).
void set_clock(Clock* clock);

/// Read the installed clock (nanoseconds, monotonic).
[[nodiscard]] std::uint64_t now_ns();

/// Wall-time stopwatch over the installed clock — the project-wide
/// replacement for ad-hoc std::chrono timing (see the obs-timing lint
/// rule and docs/observability.md).
class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}
  void reset() { start_ = now_ns(); }
  [[nodiscard]] std::uint64_t elapsed_ns() const { return now_ns() - start_; }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

 private:
  std::uint64_t start_;
};

}  // namespace refit::obs
