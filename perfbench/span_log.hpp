// Host-time spans, counter samples and allocation accounting for the
// benchmark's traced run.
//
// The spans wrap the benchmark's own calls into the program (named
// `<layer>.<function>`), so the library itself stays uninstrumented. The
// kernel is single-threaded, and so is this log: there is one implicit
// "current span", the innermost open one, and every allocation made while
// it is open is attributed to it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Global `operator new` calls made by this process so far. Stays 0 when
/// the counting hook is compiled out (sanitizer builds).
[[nodiscard]] uint64_t allocations() noexcept;
[[nodiscard]] bool allocation_counting() noexcept;

/// Host monotonic clock in nanoseconds.
[[nodiscard]] int64_t host_ns() noexcept;

struct HostSpan {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  std::string name;     ///< `<layer>.<function>`
  std::string detail;   ///< free-form qualifier (paper cell, engine, ...)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t allocs = 0;       ///< inclusive of child spans
  uint64_t self_allocs = 0;  ///< attributed to this span alone

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
};

/// Layer counters read at a span boundary or a virtual tick.
struct CounterSample {
  const char* at = "";  ///< "begin", "end" or "tick"
  uint64_t span = 0;    ///< innermost open span when sampled
  int64_t host_ns = 0;
  double virtual_s = 0;
  uint64_t events = 0;    ///< Kernel::executed()
  uint64_t heap = 0;      ///< Kernel::heap_size()
  uint64_t pending = 0;   ///< Kernel::pending()
  uint64_t runnable = 0;  ///< max CpuScheduler::runnable() over nodes
};

class SpanLog {
 public:
  using Sampler = std::function<void(CounterSample&)>;

  SpanLog(std::string workload, uint64_t seed);

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  uint64_t begin(std::string name, std::string detail = {});
  void end(uint64_t id);

  /// Install the reader for the layer counters (the workload's live
  /// cluster); an empty sampler records no counter samples.
  void set_sampler(Sampler sampler) { sampler_ = std::move(sampler); }
  /// Record one sample now, tagged `at`.
  void sample(const char* at);

  [[nodiscard]] const std::vector<HostSpan>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<CounterSample>& samples() const noexcept {
    return samples_;
  }
  /// Summed duration (s) and inclusive allocations of every closed span
  /// named `name`.
  [[nodiscard]] double seconds(std::string_view name) const;
  [[nodiscard]] uint64_t allocs(std::string_view name) const;

  /// Everything recorded, as one JSON document.
  [[nodiscard]] std::string json() const;

 private:
  std::string workload_;
  uint64_t seed_;
  std::vector<HostSpan> spans_;  // id == index + 1
  std::vector<uint64_t> open_;   // stack of open span ids
  std::vector<uint64_t> child_allocs_;  // parallel to open_
  std::vector<CounterSample> samples_;
  Sampler sampler_;
};

/// RAII span. With a null log (the untraced run) it does nothing.
class Span {
 public:
  Span(SpanLog* log, std::string name, std::string detail = {})
      : log_(log),
        id_(log == nullptr ? 0 : log->begin(std::move(name),
                                            std::move(detail))) {}
  ~Span() {
    if (log_ != nullptr) log_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  uint64_t id_;
};

}  // namespace perfbench
