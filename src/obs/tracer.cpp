#include "obs/tracer.hpp"

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/sync.hpp"

namespace cbq::obs {

namespace detail {
std::atomic<bool> g_traceEnabled{false};
}  // namespace detail

namespace {

struct SpanEvent {
  const char* category;  // string literal, stored by pointer
  std::int64_t startNs;
  std::int64_t endNs;
  char name[48];
};

/// One thread's span storage. Owned jointly by the thread (thread_local
/// shared_ptr) and the global registry, so events survive thread exit and
/// can still be flushed. `mu` serialises the owning thread's appends
/// against flush/clear from other threads; appends are uncontended in the
/// steady state.
struct ThreadBuffer {
  util::Mutex mu;
  std::vector<SpanEvent> ring CBQ_GUARDED_BY(mu);
  std::size_t capacity CBQ_GUARDED_BY(mu) = 0;
  std::size_t next CBQ_GUARDED_BY(mu) = 0;     // ring write cursor
  std::size_t dropped CBQ_GUARDED_BY(mu) = 0;  // overwritten by wrap
  bool wrapped CBQ_GUARDED_BY(mu) = false;
  std::string label CBQ_GUARDED_BY(mu);  // thread_name, "" = unnamed
  std::uint32_t tid = 0;  // written once before publication, then const
};

struct Registry {
  util::Mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers CBQ_GUARDED_BY(mu);
  std::size_t capacity CBQ_GUARDED_BY(mu) = 1 << 16;
  std::uint32_t nextTid CBQ_GUARDED_BY(mu) = 1;
};

Registry& registry() {
  // cbq-lint: allow(naked-new) intentionally leaked singleton so spans
  // recorded by late-exiting threads never touch a destroyed registry
  static Registry* g = new Registry();
  return *g;
}

const std::chrono::steady_clock::time_point g_anchor =
    std::chrono::steady_clock::now();

ThreadBuffer& localBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Registry& reg = registry();
    const util::MutexLock lock(reg.mu);
    const util::MutexLock bufLock(b->mu);  // uncontended: not yet shared
    b->capacity = reg.capacity;
    b->tid = reg.nextTid++;
    reg.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

void appendEvent(ThreadBuffer& buf, const SpanEvent& ev) {
  const util::MutexLock lock(buf.mu);
  if (buf.capacity == 0) return;
  if (buf.ring.size() < buf.capacity) {
    buf.ring.push_back(ev);
    buf.next = buf.ring.size() % buf.capacity;
    buf.wrapped = buf.ring.size() == buf.capacity && buf.next == 0;
    return;
  }
  buf.ring[buf.next] = ev;
  buf.next = (buf.next + 1) % buf.capacity;
  buf.wrapped = true;
  ++buf.dropped;
}

}  // namespace

namespace detail {

std::int64_t traceNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_anchor)
      .count();
}

void recordSpan(const char* category, const char* name, std::int64_t startNs,
                std::int64_t endNs) {
  SpanEvent ev;
  ev.category = category;
  ev.startNs = startNs;
  ev.endNs = endNs;
  const std::size_t n = std::char_traits<char>::length(name);
  const std::size_t m = n < sizeof(ev.name) - 1 ? n : sizeof(ev.name) - 1;
  std::memcpy(ev.name, name, m);
  ev.name[m] = '\0';
  appendEvent(localBuffer(), ev);
}

}  // namespace detail

void enableTracing(std::size_t perThreadCapacity) {
  Registry& reg = registry();
  {
    const util::MutexLock lock(reg.mu);
    reg.capacity = perThreadCapacity == 0 ? 1 : perThreadCapacity;
    for (auto& buf : reg.buffers) {
      const util::MutexLock bufLock(buf->mu);
      buf->ring.clear();
      buf->ring.shrink_to_fit();
      buf->capacity = reg.capacity;
      buf->next = 0;
      buf->dropped = 0;
      buf->wrapped = false;
    }
  }
  detail::g_traceEnabled.store(true, std::memory_order_relaxed);
}

void disableTracing() {
  detail::g_traceEnabled.store(false, std::memory_order_relaxed);
}

void clearTrace() {
  Registry& reg = registry();
  const util::MutexLock lock(reg.mu);
  for (auto& buf : reg.buffers) {
    const util::MutexLock bufLock(buf->mu);
    buf->ring.clear();
    buf->next = 0;
    buf->dropped = 0;
    buf->wrapped = false;
  }
}

void setThreadLabel(std::string_view label) {
  ThreadBuffer& buf = localBuffer();
  const util::MutexLock lock(buf.mu);
  buf.label.assign(label.data(), label.size());
}

void writeChromeTrace(std::ostream& out) {
  // Snapshot every buffer under its lock, then serialise lock-free.
  struct Snapshot {
    std::uint32_t tid;
    std::string label;
    std::vector<SpanEvent> events;  // in emission order
  };
  std::vector<Snapshot> snaps;
  std::size_t totalDropped = 0;
  {
    Registry& reg = registry();
    const util::MutexLock lock(reg.mu);
    snaps.reserve(reg.buffers.size());
    for (auto& buf : reg.buffers) {
      const util::MutexLock bufLock(buf->mu);
      Snapshot s;
      s.tid = buf->tid;
      s.label = buf->label;
      if (buf->wrapped && buf->ring.size() == buf->capacity) {
        // Oldest event sits at the write cursor once the ring wrapped.
        s.events.insert(s.events.end(), buf->ring.begin() + buf->next,
                        buf->ring.end());
        s.events.insert(s.events.end(), buf->ring.begin(),
                        buf->ring.begin() + buf->next);
      } else {
        s.events = buf->ring;
      }
      totalDropped += buf->dropped;
      snaps.push_back(std::move(s));
    }
  }
  globalMetrics().add("obs.trace.flushed_events", [&] {
    std::int64_t n = 0;
    for (const auto& s : snaps) n += static_cast<std::int64_t>(s.events.size());
    return n;
  }());
  if (totalDropped > 0)
    globalMetrics().add("obs.trace.dropped_events",
                        static_cast<std::int64_t>(totalDropped));

  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const auto& s : snaps) {
    if (!s.label.empty()) {
      out << (first ? "" : ",\n")
          << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << s.tid
          << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
          << jsonEscape(s.label) << "\"}}";
      first = false;
    }
    for (const auto& ev : s.events) {
      // Chrome trace timestamps/durations are microseconds (doubles keep
      // sub-microsecond spans from collapsing to zero width).
      const double tsUs = static_cast<double>(ev.startNs) / 1000.0;
      const double durUs = static_cast<double>(ev.endNs - ev.startNs) / 1000.0;
      out << (first ? "" : ",\n")
          << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
          << ", \"ts\": " << tsUs << ", \"dur\": " << durUs << ", \"cat\": \""
          << jsonEscape(ev.category) << "\", \"name\": \""
          << jsonEscape(ev.name) << "\"}";
      first = false;
    }
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

TraceStats traceStats() {
  TraceStats stats;
  Registry& reg = registry();
  const util::MutexLock lock(reg.mu);
  stats.threads = reg.buffers.size();
  for (auto& buf : reg.buffers) {
    const util::MutexLock bufLock(buf->mu);
    stats.events += buf->ring.size();
    stats.dropped += buf->dropped;
  }
  return stats;
}

}  // namespace cbq::obs
