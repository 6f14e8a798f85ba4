// Span recorder of the benchmark harness. Spans are recorded here, around
// the harness's calls into each library module (see layers.h) — never
// from tracing inside the library — kept in memory, and written once as
// chrome-trace JSON when the run ends.
//
// Recording is off unless Enable(true) was called; a disabled Span costs
// one relaxed atomic load. A Span records its name, start, end, the span
// that was open on the same thread when it began (its parent), the
// recording thread, a category ("setup" or "pass": which part of the run
// it belongs to) and optional numeric arguments that carry per-layer
// counts (bytes read, candidates scanned, ...).

#ifndef PERFBENCH_SPAN_H_
#define PERFBENCH_SPAN_H_

#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::string category;
  double start_s = 0.0;  ///< Seconds since the recorder's epoch.
  double end_s = 0.0;
  int id = 0;
  int parent = -1;  ///< Id of the enclosing span on the same thread.
  int thread = 0;   ///< Dense per-process thread number.
  std::vector<std::pair<std::string, double>> args;
};

/// Turns recording on or off for spans that begin afterwards.
void EnableSpans(bool enabled);
bool SpansEnabled();

/// Category stamped on spans that begin afterwards.
void SetSpanCategory(const std::string& category);
std::string SpanCategory();

/// RAII span. Arguments added with Arg() are stored with the record.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Adds `value` to the span's argument `key` (created at zero).
  void Arg(const char* key, double value);

 private:
  bool active_ = false;
  SpanRecord record_;
};

/// Every span recorded so far, in completion order.
std::vector<SpanRecord> RecordedSpans();

/// Writes `spans` as a chrome://tracing JSON array of complete ("X")
/// events; `id`, `parent` and the span arguments go in "args".
neuroprint::Status WriteChromeTrace(const std::string& path,
                                    const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_H_
