// Tests of the benchmark's own logic: the tail-percentile rule, self-time
// arithmetic on nested spans, and the metric names.
//
//   cmake --build .bench_build --target pipebench_test
//   ctest --test-dir .bench_build

#include <cmath>
#include <cstdio>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "metrics.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++failures;                                                      \
    }                                                                  \
  } while (false)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using pipebench::Span;

Span MakeSpan(int64_t id, int64_t parent, double start, double end) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = "s" + std::to_string(id);
  span.start_s = start;
  span.end_s = end;
  return span;
}

void TestTailRule() {
  using pipebench::TailRank;
  // Enough samples: the capped percentile itself, with >= 10 beyond it.
  EXPECT(TailRank(1000, 0.99) == 990);
  EXPECT(TailRank(2000, 0.99) == 1980);
  // Too few for p99: the highest percentile leaving ten samples beyond.
  EXPECT(TailRank(500, 0.99) == 490);
  EXPECT(TailRank(11, 0.99) == 1);
  // No percentile qualifies: the maximum.
  EXPECT(TailRank(10, 0.99) == 10);
  EXPECT(TailRank(1, 0.99) == 1);
  EXPECT(TailRank(0, 0.99) == 0);
  // The rule, exhaustively: the chosen rank leaves >= 10 samples beyond
  // it, stays at or below the cap, and the next rank would break one of
  // the two.
  for (int64_t n = 11; n <= 3000; ++n) {
    const int64_t rank = TailRank(n, 0.99);
    const int64_t cap =
        static_cast<int64_t>(std::ceil(0.99 * static_cast<double>(n) - 1e-9));
    EXPECT(n - rank >= 10);
    EXPECT(rank <= cap);
    EXPECT(n - (rank + 1) < 10 || rank + 1 > cap);
  }

  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);  // unsorted input
  pipebench::Tail tail = pipebench::TailOf(values);
  EXPECT(Near(tail.value, 990.0));
  EXPECT(Near(tail.percentile, 99.0));
  EXPECT(tail.samples == 1000);
  values.resize(500);  // 1000 .. 501
  tail = pipebench::TailOf(values);
  EXPECT(Near(tail.value, 990.0));
  EXPECT(Near(tail.percentile, 98.0));

  EXPECT(Near(pipebench::Median({3.0, 1.0, 2.0}), 2.0));
  EXPECT(Near(pipebench::Median({4.0, 1.0, 2.0, 3.0}), 2.5));
  EXPECT(Near(pipebench::Median({}), 0.0));
}

void TestSelfTimes() {
  // root [0,10]: A [1,4] holds G [2,3]; B [3,6] overlaps A; C [8,12]
  // runs past the root and is clipped to [8,10] when charged to it.
  std::vector<Span> spans = {
      MakeSpan(0, -1, 0, 10), MakeSpan(1, 0, 1, 4), MakeSpan(2, 1, 2, 3),
      MakeSpan(3, 0, 3, 6),   MakeSpan(4, 0, 8, 12),
  };
  std::vector<double> self = pipebench::SelfTimes(spans);
  EXPECT(Near(self[0], 10.0 - (5.0 + 2.0)));  // union [1,6] + [8,10]
  EXPECT(Near(self[1], 2.0));
  EXPECT(Near(self[2], 1.0));
  EXPECT(Near(self[3], 3.0));
  EXPECT(Near(self[4], 4.0));

  // Properly nested, sequential spans: self times sum to the root time.
  std::vector<Span> nested = {
      MakeSpan(0, -1, 0, 10), MakeSpan(1, 0, 1, 4), MakeSpan(2, 1, 1.5, 2),
      MakeSpan(3, 1, 2, 3.5), MakeSpan(4, 0, 5, 9), MakeSpan(5, -1, 11, 12),
  };
  double self_sum = 0.0;
  double wall = 0.0;
  pipebench::SelfSumAndWall(nested, &self_sum, &wall);
  EXPECT(Near(wall, 11.0));
  EXPECT(Near(self_sum, wall));

  // The recorder assigns parents from the open-span stack.
  pipebench::SpanRecorder rec(true);
  {
    pipebench::ScopedSpan outer(&rec, "outer");
    { pipebench::ScopedSpan inner(&rec, "inner"); }
    { pipebench::ScopedSpan second(&rec, "second"); }
  }
  { pipebench::ScopedSpan root(&rec, "root2"); }
  EXPECT(rec.spans().size() == 4);
  EXPECT(rec.spans()[0].parent == -1);
  EXPECT(rec.spans()[1].parent == 0);
  EXPECT(rec.spans()[2].parent == 0);
  EXPECT(rec.spans()[3].parent == -1);
  for (const Span& span : rec.spans()) EXPECT(span.end_s >= span.start_s);
  pipebench::SelfSumAndWall(rec.spans(), &self_sum, &wall);
  EXPECT(self_sum <= wall * (1.0 + 1e-9));

  // A disabled recorder records nothing.
  pipebench::SpanRecorder off(false);
  { pipebench::ScopedSpan span(&off, "ignored"); }
  EXPECT(off.spans().empty());

  // Appending shifts ids and parents.
  std::vector<Span> all = rec.spans();
  pipebench::AppendSpans(rec.spans(), &all);
  EXPECT(all.size() == 8);
  EXPECT(all[5].id == 5 && all[5].parent == 4);
  EXPECT(all[7].parent == -1);
}

void TestMetricNames() {
  const std::regex pattern("[A-Za-z0-9_.-]+");
  std::set<std::string> seen;
  for (const auto* list :
       {&pipebench::EndToEndMetrics(), &pipebench::PerLayerMetrics()}) {
    for (const auto& spec : *list) {
      EXPECT(std::regex_match(spec.name, pattern));
      EXPECT(std::string(spec.name).size() <= 64);
      EXPECT(seen.insert(spec.name).second);
    }
  }
  EXPECT(seen.count("setup_s") == 1);

  // Every metric of the list is printed, unset ones as 0.
  const std::string json = pipebench::ResultJson(
      true, 3, 0, pipebench::EndToEndMetrics(), {{"setup_s", 0.5}});
  EXPECT(json.find("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}") !=
         std::string::npos);
  for (const auto& spec : pipebench::EndToEndMetrics()) {
    EXPECT(json.find("\"" + std::string(spec.name) + "\"") !=
           std::string::npos);
  }
}

}  // namespace

int main() {
  TestTailRule();
  TestSelfTimes();
  TestMetricNames();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("pipebench logic tests passed\n");
  return 0;
}
