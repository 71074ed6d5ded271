// Structured event log: a process-global, lock-free ring of typed events
// (fault-detected, soft-classified, remap, checkpoint, phase-error) with a
// severity and a small key/value payload.
//
// Design mirrors the metrics layer: emission is wait-free for writers (a
// single fetch_add claims a slot; payload keys must be string literals so
// a record is a handful of POD stores), the ring keeps the most recent
// kCapacity events, and all formatting happens at write_jsonl() time. The
// log doubles as a flight recorder: enabling it installs a hook (see
// common/check.hpp) that dumps the ring tail to stderr when a REFIT_CHECK
// or REFIT_DCHECK fails, so post-mortems see the last things the engine
// did before the invariant broke.
//
// Determinism: event sequence numbers come from the claim counter, so as
// long as emission sites are serial (engine phases run on the calling
// thread) the JSONL output is byte-identical at any worker-thread count.
// Like Tracer, collect()/write_jsonl() must not race live emit() calls —
// call them when the instrumented work is quiescent.
//
// The log starts disabled and emit() is a relaxed load until
// set_enabled(true). The state is intentionally leaked (never destroyed).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace refit::obs {

enum class EventKind : std::uint8_t {
  kFaultDetected,
  kSoftClassified,
  kRemap,
  kCheckpoint,
  kPhaseError,
};

enum class EventSeverity : std::uint8_t { kInfo, kWarn, kError };

[[nodiscard]] const char* event_kind_name(EventKind kind);
[[nodiscard]] const char* event_severity_name(EventSeverity severity);

/// One payload entry. `key` must be a string literal (or otherwise outlive
/// the process) — the ring stores the pointer, not a copy.
struct EventField {
  const char* key;
  double value;
};

/// Snapshot-side representation returned by collect().
struct Event {
  std::uint64_t seq = 0;   // global emission order (0-based)
  std::uint64_t t_ns = 0;  // obs::now_ns() at emit time
  EventKind kind = EventKind::kFaultDetected;
  EventSeverity severity = EventSeverity::kInfo;
  std::string detail;  // optional free-text tag (e.g. a phase name)
  std::vector<std::pair<std::string, double>> fields;
};

class EventLog {
 public:
  /// Ring capacity: the log keeps the most recent kCapacity events.
  static constexpr std::size_t kCapacity = 4096;
  /// Payload entries beyond this are dropped at emit time.
  static constexpr std::size_t kMaxFields = 8;
  /// How many trailing events dump_tail() prints by default.
  static constexpr std::size_t kDefaultTail = 32;

  static EventLog& global();

  /// Runtime gate. Enabling installs the flight-recorder hook that dumps
  /// the ring tail to stderr on REFIT_CHECK/REFIT_DCHECK failure;
  /// disabling removes it.
  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const;

  /// Record one event. Lock-free; safe from any thread. `detail` and all
  /// field keys must be string literals (stored by pointer).
  void emit(EventKind kind, EventSeverity severity, const char* detail,
            std::initializer_list<EventField> fields);
  void emit(EventKind kind, EventSeverity severity,
            std::initializer_list<EventField> fields) {
    emit(kind, severity, nullptr, fields);
  }

  /// Number of events ever emitted (including any the ring has dropped).
  [[nodiscard]] std::uint64_t emitted() const;

  /// The retained events in emission order. Quiescent-only (see header
  /// comment).
  [[nodiscard]] std::vector<Event> collect() const;

  /// One JSON object per line, in emission order. Quiescent-only.
  void write_jsonl(std::ostream& os) const;

  /// Flight-recorder dump: the last `n` retained events, human-readable.
  /// Best-effort by design — it runs inside failure paths.
  void dump_tail(std::ostream& os, std::size_t n = kDefaultTail) const;

  /// Drop all retained events and reset the sequence counter.
  void reset_for_tests();

 private:
  EventLog();
  ~EventLog() = delete;  // leaked singleton — see the header comment
  struct Impl;
  Impl* impl_;
};

}  // namespace refit::obs
