#include "span_log.hpp"

#include <chrono>
#include <cstdlib>
#include <new>

#include "support/json.hpp"

// Counting global allocator, as in tests/sim/fault_noalloc_test.cpp:
// per-binary, and compiled out under sanitizers so their interposed
// allocator stays in charge. The counter is a plain integer because the
// benchmark and the library never allocate from a second thread.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_NO_ALLOC_HOOK 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_NO_ALLOC_HOOK 1
#endif
#endif

namespace {
uint64_t g_allocations = 0;
}  // namespace

#if !defined(PERFBENCH_NO_ALLOC_HOOK)

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // !PERFBENCH_NO_ALLOC_HOOK

namespace perfbench {

uint64_t allocations() noexcept { return g_allocations; }

bool allocation_counting() noexcept {
#if defined(PERFBENCH_NO_ALLOC_HOOK)
  return false;
#else
  return true;
#endif
}

int64_t host_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog::SpanLog(std::string workload, uint64_t seed)
    : workload_(std::move(workload)), seed_(seed) {}

uint64_t SpanLog::begin(std::string name, std::string detail) {
  sample("begin");
  HostSpan s;
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? 0 : open_.back();
  s.name = std::move(name);
  s.detail = std::move(detail);
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  child_allocs_.push_back(0);
  // Read the clocks last, so the span's own bookkeeping stays outside it.
  spans_.back().allocs = allocations();
  spans_.back().start_ns = host_ns();
  return spans_.back().id;
}

void SpanLog::end(uint64_t id) {
  const int64_t now = host_ns();
  const uint64_t allocs_now = allocations();
  if (open_.empty() || open_.back() != id) return;  // spans nest strictly
  HostSpan& s = spans_[id - 1];
  s.end_ns = now;
  s.allocs = allocs_now - s.allocs;
  s.self_allocs = s.allocs - child_allocs_.back();
  open_.pop_back();
  child_allocs_.pop_back();
  if (!child_allocs_.empty()) child_allocs_.back() += s.allocs;
  sample("end");
}

void SpanLog::sample(const char* at) {
  if (!sampler_) return;
  CounterSample s;
  s.at = at;
  s.span = open_.empty() ? 0 : open_.back();
  s.host_ns = host_ns();
  sampler_(s);
  samples_.push_back(s);
}

double SpanLog::seconds(std::string_view name) const {
  double total = 0;
  for (const HostSpan& s : spans_) {
    if (s.name == name && s.end_ns != 0) total += s.seconds();
  }
  return total;
}

uint64_t SpanLog::allocs(std::string_view name) const {
  uint64_t total = 0;
  for (const HostSpan& s : spans_) {
    if (s.name == name && s.end_ns != 0) total += s.allocs;
  }
  return total;
}

std::string SpanLog::json() const {
  using wasmctr::json::Array;
  using wasmctr::json::Object;
  using wasmctr::json::Value;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  Array spans;
  for (const HostSpan& s : spans_) {
    Object o;
    o["id"] = s.id;
    o["parent"] = s.parent;
    o["name"] = s.name;
    if (!s.detail.empty()) o["detail"] = s.detail;
    o["start_ns"] = s.start_ns - origin;
    o["end_ns"] = s.end_ns - origin;
    o["allocs"] = s.allocs;
    o["self_allocs"] = s.self_allocs;
    spans.emplace_back(std::move(o));
  }
  Array samples;
  for (const CounterSample& c : samples_) {
    Object o;
    o["at"] = c.at;
    o["span"] = c.span;
    o["host_ns"] = c.host_ns - origin;
    o["virtual_s"] = c.virtual_s;
    o["events"] = c.events;
    o["heap"] = c.heap;
    o["pending"] = c.pending;
    o["runnable"] = c.runnable;
    samples.emplace_back(std::move(o));
  }
  Object root;
  root["workload"] = workload_;
  root["seed"] = seed_;
  root["allocation_counting"] = allocation_counting();
  root["spans"] = std::move(spans);
  root["samples"] = std::move(samples);
  return Value(std::move(root)).dump(1) + "\n";
}

}  // namespace perfbench
