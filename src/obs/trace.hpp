// Per-query tracing: scoped timers that build a span tree.
//
// A TraceBuilder is created when a traced query starts executing and is
// carried along the execution path (service -> modeler); each
// stage opens a Scoped span, nesting under whatever span is open on the
// builder's stack.  The finished SpanTree -- a flat vector with parent
// indices, offsets and durations relative to the trace epoch -- is
// attached to the query's response, so a caller can see exactly where a
// slow answer spent its budget (admission, queue wait, snapshot pickup,
// route resolution, max-min solve, ...).
//
// A TraceBuilder is deliberately not thread-safe: one query's spans are
// produced by the one thread that executes it -- the caller's own -- and
// returned with its response.  Code
// that may run untraced passes a nullptr builder; Scoped tolerates it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace remos::obs {

struct Span {
  std::string name;
  std::int32_t parent = -1;     // index into SpanTree::spans; -1 = root
  std::uint64_t start_us = 0;   // offset from the trace epoch
  std::uint64_t duration_us = 0;
};

struct SpanTree {
  std::vector<Span> spans;

  bool empty() const { return spans.empty(); }

  /// Indented one-line-per-span text (duration-first, tree order).
  std::string render() const;
};

class TraceBuilder {
 public:
  using Clock = std::chrono::steady_clock;

  /// Epoch = now: span offsets count from construction.
  TraceBuilder() : epoch_(Clock::now()) {}
  /// Epoch in the past (e.g. when the query was enqueued), so spans that
  /// conceptually started before the builder existed line up.
  explicit TraceBuilder(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a span under the innermost open span; returns its index.
  std::size_t open(std::string name);
  void close(std::size_t index);

  /// Records an already-finished span (e.g. queue wait measured from
  /// timestamps) under the innermost open span.
  void add_complete(std::string name, std::uint64_t start_us,
                    std::uint64_t duration_us);

  /// Closes any still-open spans and returns the tree.
  SpanTree take();

  /// RAII span; a null builder makes it a no-op.
  class Scoped {
   public:
    Scoped(TraceBuilder* trace, const char* name)
        : trace_(trace), index_(trace ? trace->open(name) : 0) {}
    ~Scoped() {
      if (trace_) trace_->close(index_);
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    TraceBuilder* trace_;
    std::size_t index_;
  };

 private:
  std::uint64_t since_epoch_us() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  // indices of open spans
};

}  // namespace remos::obs
