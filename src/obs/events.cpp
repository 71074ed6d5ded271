// Lock-free ring implementation behind the structured event log
// (obs/events.hpp), plus the failure-hook slot the flight recorder
// installs so REFIT_CHECK failures dump the event tail.
#include "obs/events.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <ostream>

#include "obs/clock.hpp"
#include "obs/failure_hook.hpp"

namespace refit::obs {

// ---------------------------------------------------------------------------
// Failure-hook slot (see failure_hook.hpp).

namespace {
std::atomic<FailureHook> g_failure_hook{nullptr};
}  // namespace

void set_failure_hook(FailureHook hook) {
  g_failure_hook.store(hook, std::memory_order_release);
}

void invoke_failure_hook() noexcept {
  FailureHook hook = g_failure_hook.load(std::memory_order_acquire);
  if (hook == nullptr) return;
  try {
    hook();
  } catch (...) {
    // Flight-recorder dumps are best-effort; never mask the CheckError.
  }
}

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kFaultDetected:
      return "fault-detected";
    case EventKind::kSoftClassified:
      return "soft-classified";
    case EventKind::kRemap:
      return "remap";
    case EventKind::kCheckpoint:
      return "checkpoint";
    case EventKind::kPhaseError:
      return "phase-error";
  }
  return "unknown";
}

const char* event_severity_name(EventSeverity severity) {
  switch (severity) {
    case EventSeverity::kInfo:
      return "info";
    case EventSeverity::kWarn:
      return "warn";
    case EventSeverity::kError:
      return "error";
  }
  return "unknown";
}

namespace {

/// One ring slot. `published` holds seq + 1 once the payload stores are
/// visible (0 = empty/claimed); readers use it to skip slots that are
/// mid-write after a wraparound.
struct EventCell {
  std::atomic<std::uint64_t> published{0};
  std::uint64_t t_ns = 0;
  EventKind kind = EventKind::kFaultDetected;
  EventSeverity severity = EventSeverity::kInfo;
  const char* detail = nullptr;
  std::uint32_t nfields = 0;
  const char* keys[EventLog::kMaxFields] = {};
  double values[EventLog::kMaxFields] = {};
};

/// %.12g, matching the metrics writers so goldens share one format.
void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out += buf;
}

}  // namespace

struct EventLog::Impl {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> next{0};
  EventCell ring[kCapacity];
};

EventLog::EventLog() : impl_(new Impl) {}

EventLog& EventLog::global() {
  static EventLog* log = new EventLog();  // leaked — see header
  return *log;
}

namespace {
void flight_recorder_hook() {
  std::cerr << "== refit flight recorder: last events before check failure ==\n";
  EventLog::global().dump_tail(std::cerr);
  std::cerr.flush();
}
}  // namespace

void EventLog::set_enabled(bool on) {
  impl_->enabled.store(on, std::memory_order_relaxed);
  set_failure_hook(on ? &flight_recorder_hook : nullptr);
}

bool EventLog::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void EventLog::emit(EventKind kind, EventSeverity severity, const char* detail,
                    std::initializer_list<EventField> fields) {
  if (!enabled()) return;
  const std::uint64_t seq =
      impl_->next.fetch_add(1, std::memory_order_relaxed);
  EventCell& cell = impl_->ring[seq % kCapacity];
  // Claim: mark the slot unpublished so a concurrent reader skips it
  // rather than seeing a mix of the old and new payload.
  cell.published.store(0, std::memory_order_release);
  cell.t_ns = now_ns();
  cell.kind = kind;
  cell.severity = severity;
  cell.detail = detail;
  std::uint32_t n = 0;
  for (const EventField& f : fields) {
    if (n == kMaxFields) break;
    cell.keys[n] = f.key;
    cell.values[n] = f.value;
    ++n;
  }
  cell.nfields = n;
  cell.published.store(seq + 1, std::memory_order_release);
}

std::uint64_t EventLog::emitted() const {
  return impl_->next.load(std::memory_order_relaxed);
}

std::vector<Event> EventLog::collect() const {
  const std::uint64_t next = impl_->next.load(std::memory_order_acquire);
  const std::uint64_t first = next > kCapacity ? next - kCapacity : 0;
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(next - first));
  for (std::uint64_t seq = first; seq < next; ++seq) {
    const EventCell& cell = impl_->ring[seq % kCapacity];
    if (cell.published.load(std::memory_order_acquire) != seq + 1) continue;
    Event ev;
    ev.seq = seq;
    ev.t_ns = cell.t_ns;
    ev.kind = cell.kind;
    ev.severity = cell.severity;
    if (cell.detail != nullptr) ev.detail = cell.detail;
    ev.fields.reserve(cell.nfields);
    for (std::uint32_t i = 0; i < cell.nfields; ++i) {
      ev.fields.emplace_back(cell.keys[i], cell.values[i]);
    }
    out.push_back(std::move(ev));
  }
  return out;
}

void EventLog::write_jsonl(std::ostream& os) const {
  for (const Event& ev : collect()) {
    std::string line = "{\"seq\":";
    line += std::to_string(ev.seq);
    line += ",\"t_ns\":";
    line += std::to_string(ev.t_ns);
    line += ",\"kind\":\"";
    line += event_kind_name(ev.kind);
    line += "\",\"severity\":\"";
    line += event_severity_name(ev.severity);
    line += '"';
    if (!ev.detail.empty()) {
      line += ",\"detail\":\"";
      line += ev.detail;  // details are static literals, no escaping needed
      line += '"';
    }
    line += ",\"fields\":{";
    bool first = true;
    for (const auto& [key, value] : ev.fields) {
      if (!first) line += ',';
      first = false;
      line += '"';
      line += key;
      line += "\":";
      append_double(line, value);
    }
    line += "}}\n";
    os << line;
  }
}

void EventLog::dump_tail(std::ostream& os, std::size_t n) const {
  std::vector<Event> events = collect();
  const std::size_t start = events.size() > n ? events.size() - n : 0;
  for (std::size_t i = start; i < events.size(); ++i) {
    const Event& ev = events[i];
    char head[96];
    std::snprintf(head, sizeof(head), "  [%6" PRIu64 "] t=%" PRIu64 "ns %-7s %s",
                  ev.seq, ev.t_ns, event_severity_name(ev.severity),
                  event_kind_name(ev.kind));
    os << head;
    if (!ev.detail.empty()) os << " (" << ev.detail << ")";
    for (const auto& [key, value] : ev.fields) {
      std::string kv = " ";
      kv += key;
      kv += '=';
      append_double(kv, value);
      os << kv;
    }
    os << '\n';
  }
}

void EventLog::reset_for_tests() {
  impl_->next.store(0, std::memory_order_relaxed);
  for (EventCell& cell : impl_->ring) {
    cell.published.store(0, std::memory_order_relaxed);
  }
}

}  // namespace refit::obs
