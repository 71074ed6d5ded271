// Span tracer emitting Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
//
// Record path: each thread appends completed spans to its own
// thread-local buffer — the only lock is one registry mutex acquisition
// per *thread*, not per event, so parallel_for bodies can record without
// contention. Buffers are merged (live threads flushed, exited threads'
// events retired) at write time, and the merged stream is sorted by
// (timestamp, duration desc, tid, name) so output is deterministic.
//
// Timestamps come from the obs::Clock seam (clock.hpp); tests inject a
// ManualClock to get byte-stable golden traces. The tracer is runtime-
// disabled by default: a TraceSpan constructed while disabled, or on a
// thread running a pool chunk, performs no clock read and records nothing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace refit::obs {

/// One completed ("ph":"X") span.
struct TraceEvent {
  std::string name;
  std::string category;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
};

class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const;

  /// Record a completed span measured by the caller (ObsObserver's phase
  /// begin/end pairs use this; most call sites want TraceSpan instead).
  void emit_complete(const char* name, const char* category,
                     std::uint64_t ts_ns, std::uint64_t dur_ns);

  /// Name the calling thread's trace track. Pool workers pass their lane
  /// index; unnamed threads get sequential ids (main thread first → 0).
  static void set_thread_tid(std::uint32_t tid);

  /// Merge every thread's buffer into one sorted event list. Caller must
  /// ensure no thread is concurrently recording (i.e. between, not
  /// inside, parallel_for calls).
  [[nodiscard]] std::vector<TraceEvent> collect() const;

  /// Chrome trace-event JSON: {"traceEvents":[...]}; ts/dur in
  /// microseconds with fixed 3-decimal formatting (byte-deterministic).
  void write_chrome_json(std::ostream& os) const;

  /// Drop all recorded events (tests). Same quiescence contract as
  /// collect().
  void reset();

 private:
  Tracer() = default;
  ~Tracer() = delete;  // leaked singleton — thread buffers retire into it
};

/// Mark whether the calling thread is running a thread-pool chunk: a
/// worker, the caller's own chunk, or the pool's 1-lane inline run
/// (common/thread_pool.cpp sets it around each). Which chunks a thread
/// runs depends on the pool size, so a span there would make the trace,
/// and a ManualClock's per-thread sequence, depend on it too.
void set_in_pool_chunk(bool on);
[[nodiscard]] bool in_pool_chunk();

/// RAII span on the global tracer. Decides at construction: when tracing
/// is disabled, or the thread is running a pool chunk, it never reads the
/// clock and the destructor is a no-op.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "");
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;  // nullptr → disabled at construction
  const char* category_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

}  // namespace refit::obs
