#include "obs/span.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/federation.hpp"
#include "util/fs.hpp"

namespace mosaic::obs {

namespace {

/// Thread-local handle: the owning tracer generation plus the buffer the
/// thread writes to. A stale generation (after reset()) re-registers.
struct ThreadSlot {
  std::uint64_t generation = ~std::uint64_t{0};
  std::shared_ptr<void> buffer;  ///< keeps the buffer alive past thread exit
};

thread_local ThreadSlot t_slot;

thread_local std::uint64_t t_clock_reads = 0;

}  // namespace

SpanTracer& SpanTracer::global() {
  // Leaked on purpose: pool workers may unwind spans during static teardown.
  static SpanTracer* instance = new SpanTracer();
  return *instance;
}

std::uint64_t SpanTracer::now_ns() noexcept {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  ++t_clock_reads;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

std::uint64_t SpanTracer::clock_reads() noexcept { return t_clock_reads; }

void SpanTracer::enable(std::size_t per_thread_capacity) {
  capacity_.store(std::max<std::size_t>(16, per_thread_capacity),
                  std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void SpanTracer::disable() noexcept {
  enabled_.store(false, std::memory_order_relaxed);
}

SpanTracer::ThreadBuffer& SpanTracer::buffer_for_this_thread() noexcept {
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  if (t_slot.buffer == nullptr || t_slot.generation != generation) {
    auto buffer = std::make_shared<ThreadBuffer>();
    buffer->ring.reserve(std::min<std::size_t>(
        capacity_.load(std::memory_order_relaxed), 1024));
    {
      const std::scoped_lock lock(registry_mutex_);
      buffer->tid = static_cast<std::uint32_t>(buffers_.size());
      buffers_.push_back(buffer);
    }
    t_slot.generation = generation;
    t_slot.buffer = buffer;
  }
  return *static_cast<ThreadBuffer*>(t_slot.buffer.get());
}

void SpanTracer::record(const char* name, std::uint64_t start_ns,
                        std::uint64_t end_ns) noexcept {
  if (!enabled()) return;
  ThreadBuffer& buffer = buffer_for_this_thread();
  const std::scoped_lock lock(buffer.mutex);  // uncontended except on drain
  const SpanEvent event{name, start_ns, end_ns, buffer.tid};
  const std::size_t capacity = capacity_.load(std::memory_order_relaxed);
  if (buffer.ring.size() < capacity) {
    buffer.ring.push_back(event);
  } else {
    buffer.ring[buffer.next] = event;
    buffer.next = (buffer.next + 1) % buffer.ring.size();
    ++buffer.dropped;
  }
}

std::vector<SpanEvent> SpanTracer::collect() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::scoped_lock lock(registry_mutex_);
    buffers = buffers_;
  }
  std::vector<SpanEvent> events;
  for (const auto& buffer : buffers) {
    const std::scoped_lock lock(buffer->mutex);
    events.insert(events.end(), buffer->ring.begin(), buffer->ring.end());
  }
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns < b.end_ns;
            });
  return events;
}

std::uint64_t SpanTracer::dropped() const noexcept {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::scoped_lock lock(registry_mutex_);
    buffers = buffers_;
  }
  std::uint64_t total = 0;
  for (const auto& buffer : buffers) {
    const std::scoped_lock lock(buffer->mutex);
    total += buffer->dropped;
  }
  return total;
}

std::string SpanTracer::chrome_trace_json() const {
  // One lane, pid 1: the single-process export is the one-lane case of the
  // fleet serializer (obs/federation.hpp), so named process/thread metadata
  // and event schema stay identical between solo and merged traces.
  const std::vector<SpanEvent> events = collect();
  TraceLane lane;
  lane.process_name = "mosaic";
  lane.spans.reserve(events.size());
  for (const SpanEvent& event : events) {
    lane.spans.push_back(
        {event.name, event.start_ns, event.end_ns, event.tid});
  }
  return chrome_trace_from_lanes({std::move(lane)});
}

util::Status SpanTracer::write_chrome_trace(const std::string& path) const {
  return util::write_file_atomic(path, chrome_trace_json());
}

void SpanTracer::reset() {
  const std::scoped_lock lock(registry_mutex_);
  buffers_.clear();
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace mosaic::obs
