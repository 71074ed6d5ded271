// Tracer implementation (see trace.hpp): per-thread span buffers, the
// merge-and-sort collector, and the Chrome trace-event JSON writer.
#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <ostream>

#include "obs/clock.hpp"

namespace refit::obs {

namespace {

struct ThreadBuf;

struct TracerState {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint32_t> next_tid{0};
  std::mutex mu;
  std::vector<ThreadBuf*> live;        // registered thread buffers
  std::vector<TraceEvent> retired;     // events from exited threads
};

// Leaked: thread buffers retire into it from thread-exit destructors,
// which can run during static teardown.
TracerState& state() {
  static TracerState* s = new TracerState();
  return *s;
}

// Set while the thread runs a pool chunk (set_in_pool_chunk).
thread_local bool t_in_pool_chunk = false;

// Explicit track id for the calling thread (pool workers set their lane
// before the buffer exists); -1 → assign from the counter on first use.
thread_local std::int64_t t_requested_tid = -1;

struct ThreadBuf {
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;

  ThreadBuf() {
    TracerState& s = state();
    tid = t_requested_tid >= 0
              ? static_cast<std::uint32_t>(t_requested_tid)
              : s.next_tid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(s.mu);
    s.live.push_back(this);
  }

  ~ThreadBuf() {
    TracerState& s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.retired.insert(s.retired.end(), events.begin(), events.end());
    s.live.erase(std::remove(s.live.begin(), s.live.end(), this),
                 s.live.end());
  }
};

ThreadBuf& local_buf() {
  thread_local ThreadBuf buf;
  return buf;
}

/// Minimal JSON string escaping for span names/categories.
void write_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
      continue;
    }
    os << c;
  }
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::set_enabled(bool on) {
  state().enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() const {
  return state().enabled.load(std::memory_order_relaxed);
}

void Tracer::emit_complete(const char* name, const char* category,
                           std::uint64_t ts_ns, std::uint64_t dur_ns) {
  if (!enabled()) return;
  ThreadBuf& buf = local_buf();
  buf.events.push_back(TraceEvent{name, category, ts_ns, dur_ns, buf.tid});
}

void Tracer::set_thread_tid(std::uint32_t tid) {
  t_requested_tid = tid;
}

std::vector<TraceEvent> Tracer::collect() const {
  TracerState& s = state();
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    out = s.retired;
    for (const ThreadBuf* buf : s.live)
      out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.name < b.name;
            });
  return out;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  const std::vector<TraceEvent> events = collect();
  auto write_us = [&os](std::uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    os << buf;
  };
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"";
    write_escaped(os, ev.name);
    os << "\",\"cat\":\"";
    write_escaped(os, ev.category.empty() ? std::string("refit") : ev.category);
    os << "\",\"ph\":\"X\",\"ts\":";
    write_us(ev.ts_ns);
    os << ",\"dur\":";
    write_us(ev.dur_ns);
    os << ",\"pid\":1,\"tid\":" << ev.tid << "}";
  }
  os << (events.empty() ? "]}" : "\n]}") << "\n";
}

void Tracer::reset() {
  TracerState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.retired.clear();
  for (ThreadBuf* buf : s.live) buf->events.clear();
}

void set_in_pool_chunk(bool on) { t_in_pool_chunk = on; }

bool in_pool_chunk() { return t_in_pool_chunk; }

TraceSpan::TraceSpan(const char* name, const char* category) {
  if (t_in_pool_chunk || !Tracer::global().enabled()) return;
  name_ = name;
  category_ = category;
  start_ns_ = now_ns();
}

TraceSpan::~TraceSpan() {
  if (name_ == nullptr) return;
  Tracer::global().emit_complete(name_, category_, start_ns_,
                                 now_ns() - start_ns_);
}

}  // namespace refit::obs
