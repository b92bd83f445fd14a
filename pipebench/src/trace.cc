#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace pipebench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now()) {}

double SpanRecorder::Now() const { return SecondsSince(epoch_); }

int64_t SpanRecorder::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.name = name;
  span.start_s = Now();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::End(int64_t id) {
  if (!enabled_) return;
  const double now = Now();
  // Spans close innermost-first; anything still open above `id` (an early
  // return skipped its End) is closed at the same instant.
  while (!open_.empty()) {
    const int64_t top = open_.back();
    open_.pop_back();
    spans_[static_cast<size_t>(top)].end_s = now;
    if (top == id) break;
  }
}

int64_t SpanRecorder::Add(const std::string& name, int64_t parent,
                          double start_s, double end_s) {
  if (!enabled_) return -1;
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = parent;
  span.name = name;
  span.start_s = start_s;
  span.end_s = end_s;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const double begin = std::max(span.start_s, parent.start_s);
    const double end = std::min(span.end_s, parent.end_s);
    if (end > begin) {
      children[static_cast<size_t>(span.parent)].emplace_back(begin, end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_begin = 0.0;
    double run_end = -1.0;
    bool open = false;
    for (const auto& [begin, end] : intervals) {
      if (!open || begin > run_end) {
        if (open) covered += run_end - run_begin;
        run_begin = begin;
        run_end = end;
        open = true;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (open) covered += run_end - run_begin;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> SummarizeByName(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_s += spans[i].duration();
    t.self_s += self[i];
  }
  return totals;
}

double TotalSeconds(const std::vector<Span>& spans, const std::string& name) {
  double total = 0.0;
  for (const Span& span : spans) {
    if (span.name == name) total += span.duration();
  }
  return total;
}

void SelfSumAndWall(const std::vector<Span>& spans, double* self_sum,
                    double* wall) {
  *self_sum = 0.0;
  *wall = 0.0;
  for (double self : SelfTimes(spans)) *self_sum += self;
  for (const Span& span : spans) {
    if (span.parent < 0) *wall += span.duration();
  }
}

void AppendSpans(const std::vector<Span>& from, std::vector<Span>* to) {
  const int64_t offset = static_cast<int64_t>(to->size());
  for (Span span : from) {
    span.id += offset;
    if (span.parent >= 0) span.parent += offset;
    to->push_back(std::move(span));
  }
}

bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = SelfTimes(spans);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %lld, \"parent\": %lld, \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f}%s\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.name.c_str(), s.start_s,
                 s.end_s, self[i], i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace pipebench
