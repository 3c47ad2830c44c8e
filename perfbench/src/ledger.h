#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

// The per-op time ledger: spans from the engine's TraceCollector and from
// the benchmark's own timers, merged onto one timeline and attributed so
// that every nanosecond of an op's wall time lands in exactly one place.
//
// Attribution rule. On each thread, an instant belongs to the innermost
// span active there (a span's self time is its duration minus what its
// children cover). Across threads, each elementary interval of wall time
// is shared equally among the threads whose innermost span is a layer
// span. Container spans (the op itself, the engine's job and phase spans)
// only mark that a driver thread is waiting on workers; they never take
// wall time from a layer. An interval with no layer span active anywhere
// is unattributed. By construction
//
//   sum(layer self times) + unattributed == op wall time.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One interval on one thread's timeline, in nanoseconds on the op's
/// trace clock (zero = the TraceCollector's epoch).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int tid = 0;
};

/// One event of TraceCollector::ToJson(): complete spans (phase 'X') and
/// instants (phase 'i'). Only numeric args are kept.
struct TraceEvent {
  std::string name;
  char phase = 'X';
  int64_t ts_us = 0;
  int64_t dur_us = 0;
  int tid = 0;
  std::map<std::string, double> args;
};

/// Parses a Chrome trace_event document ({"traceEvents":[...]}) as the
/// engine's TraceCollector renders it. Returns false with *error set on
/// malformed input.
bool ParseTraceEvents(std::string_view json, std::vector<TraceEvent>* events,
                      std::string* error);

/// Spans that only wait on other threads' work: the benchmark's "op"
/// root and the engine's "job", "map_phase" and "reduce_phase" spans.
bool IsContainerSpan(std::string_view name);

struct Ledger {
  double wall_s = 0;
  double unattributed_s = 0;
  /// Wall-time share of each layer span, keyed by span name.
  std::map<std::string, double> self_s;

  /// wall - unattributed - sum(self); zero up to rounding.
  double Residual() const;
};

/// Attributes the window [window_start_ns, window_end_ns) among `spans`
/// by the rule above. Spans are clipped to the window; a child that
/// overhangs its parent on the same thread (clock quantization) is
/// clipped to the parent.
Ledger Attribute(std::vector<Span> spans, int64_t window_start_ns,
                 int64_t window_end_ns);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
