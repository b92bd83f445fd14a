// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed call into a library layer: name, start, end and the
// span that was open when it began (its parent). Spans are kept in memory
// and written out once, when the run ends. A span's self time is its
// duration minus the part of its interval covered by its children, so the
// self times of a nested tree sum to the root's duration.
//
// The recorder is single-threaded by design: every traced pipeline calls
// the layers one after another (shard partials included), so an open-span
// stack gives the parent. Spans timed elsewhere (client threads of the
// serve workload) are added afterwards with Add().

#ifndef PIPEBENCH_TRACE_H_
#define PIPEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

// Seconds elapsed since `since`.
inline double SecondsSince(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

struct Span {
  int64_t id = 0;
  int64_t parent = -1;  // -1 for a root span
  std::string name;
  double start_s = 0.0;  // seconds since the recorder's epoch
  double end_s = 0.0;

  double duration() const { return end_s - start_s; }
};

class SpanRecorder {
 public:
  // A disabled recorder records nothing and never reads the clock.
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open span; returns its id (-1 when
  // disabled).
  int64_t Begin(const std::string& name);
  // Closes the innermost open span, which must be `id`.
  void End(int64_t id);
  // Adds an already-timed span (times in seconds since the epoch).
  int64_t Add(const std::string& name, int64_t parent, double start_s,
              double end_s);

  double Now() const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder), id_(recorder->Begin(name)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

// Self time of every span, indexed like `spans` (ids are indices). Child
// intervals are clipped to the parent and merged before subtracting, so
// overlapping children are not counted twice.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

struct SpanTotals {
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

// Per-name totals of duration and self time.
std::map<std::string, SpanTotals> SummarizeByName(
    const std::vector<Span>& spans);

// Sum of the durations of the spans named `name`.
double TotalSeconds(const std::vector<Span>& spans, const std::string& name);

// Sum of the self times of `spans`, and the summed duration of their root
// spans. Roots run one after another in a traced pipeline, and each serve
// connection is one root, so the root sum is the wall time of the traced
// lanes; for properly nested spans the self sum never exceeds it.
void SelfSumAndWall(const std::vector<Span>& spans, double* self_sum,
                    double* wall);

// Appends `from` to `to`, shifting ids and parents so both stay valid.
void AppendSpans(const std::vector<Span>& from, std::vector<Span>* to);

// Writes the spans with their self times as a JSON array; false on I/O
// failure.
bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans);

}  // namespace pipebench

#endif  // PIPEBENCH_TRACE_H_
