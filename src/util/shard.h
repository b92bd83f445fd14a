// Shard arithmetic shared by every partial-build API (DESIGN.md §12).
//
// A sharded build splits a dataset of `total_rows` rows into `num_shards`
// contiguous [begin, end) row ranges. Everything that must agree across
// processes — the range covered by shard i, the kernel-center quota it
// samples, the RNG stream it draws from — is a pure function of
// (total_rows, num_shards, shard, seed) defined here, so independently
// launched workers reach byte-identical partial states without talking to
// each other.
//
// The merge contract rests on two rules this header encodes:
//   1. Shard 0 of a single-shard build consumes the legacy RNG stream
//      (ShardSeed(seed, 0) == seed), which is what pins the shards=1 path
//      bitwise identical to the unsharded builders.
//   2. Merging partial states performs no floating-point arithmetic — it is
//      a sorted disjoint union of per-shard summaries (MergeShardParts), and
//      all numeric reduction happens exactly once, in ascending shard order,
//      at finalize time. That makes the tree-reduce Merge associative and
//      commutative by construction, bitwise.

#ifndef DBS_UTIL_SHARD_H_
#define DBS_UTIL_SHARD_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace dbs {

// Identifies one shard of a sharded build. total_rows is the size of the
// WHOLE dataset, not of the shard's slice.
struct ShardInfo {
  int64_t shard = 0;
  int64_t num_shards = 1;
  int64_t total_rows = 0;
};

[[nodiscard]] inline Status ValidateShardInfo(const ShardInfo& info) {
  if (info.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  if (info.shard < 0 || info.shard >= info.num_shards) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (info.total_rows < 0) {
    return Status::InvalidArgument("total_rows must be non-negative");
  }
  return Status::Ok();
}

// Half-open row range [begin, end).
struct RowRange {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t size() const { return end - begin; }
};

// Contiguous balanced partition: the first (total_rows % num_shards) shards
// get one extra row. Ranges are disjoint and cover [0, total_rows) exactly.
inline RowRange ShardRowRange(int64_t total_rows, int64_t num_shards,
                              int64_t shard) {
  const int64_t base = total_rows / num_shards;
  const int64_t extra = total_rows % num_shards;
  RowRange range;
  range.begin = shard * base + std::min(shard, extra);
  range.end = range.begin + base + (shard < extra ? 1 : 0);
  return range;
}

// The shard-side precondition of every *Partial build: a valid `info`
// whose row range the shard's scan of `scan_rows` rows covers exactly.
// Returns that range.
[[nodiscard]] inline Result<RowRange> ShardScanRange(const ShardInfo& info,
                                                     int64_t scan_rows) {
  DBS_RETURN_IF_ERROR(ValidateShardInfo(info));
  const RowRange range =
      ShardRowRange(info.total_rows, info.num_shards, info.shard);
  if (scan_rows != range.size()) {
    return Status::InvalidArgument(
        "scan does not cover the shard's row range");
  }
  return range;
}

// Splits a kernel-center budget of `m` across shards proportionally to their
// row counts (largest-remainder apportionment, ties to the lower shard
// index). Quotas sum to exactly m, and a shard's quota never exceeds its row
// count when m <= total_rows — so the merged center set has exactly
// min(m, total_rows) centers, matching the unsharded reservoir. Rows are the
// ShardRowRange sizes, so every participant computes the same quotas.
inline std::vector<int64_t> ShardKernelAllocation(int64_t total_rows,
                                                  int64_t num_shards,
                                                  int64_t m) {
  std::vector<int64_t> quota(static_cast<size_t>(num_shards), 0);
  if (total_rows <= 0) return quota;
  std::vector<std::pair<int64_t, int64_t>> remainder;  // (-rem, shard)
  remainder.reserve(static_cast<size_t>(num_shards));
  int64_t assigned = 0;
  for (int64_t i = 0; i < num_shards; ++i) {
    const int64_t rows = ShardRowRange(total_rows, num_shards, i).size();
    const int64_t scaled = m * rows;  // fits: m, rows bounded by practice
    quota[static_cast<size_t>(i)] = scaled / total_rows;
    assigned += quota[static_cast<size_t>(i)];
    remainder.emplace_back(-(scaled % total_rows), i);
  }
  std::sort(remainder.begin(), remainder.end());
  for (int64_t r = m - assigned, i = 0; r > 0; --r, ++i) {
    quota[static_cast<size_t>(remainder[static_cast<size_t>(i)].second)] += 1;
  }
  return quota;
}

// Per-shard RNG seed. Shard 0 passes the user seed through unchanged so a
// single-shard build consumes the exact RNG stream the unsharded builders
// consume; other shards get a splitmix64-style decorrelated stream.
inline uint64_t ShardSeed(uint64_t seed, int64_t shard) {
  if (shard == 0) return seed;
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(shard);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Sorted disjoint union of per-shard summaries — the one merge primitive
// every partial state uses. Part must expose `shard`, `num_shards` and
// `total_rows` members. No arithmetic happens here: the result is the
// two inputs' parts interleaved into ascending shard order, which is why
// merge order cannot affect the finalized model.
template <typename Part>
[[nodiscard]] Status MergeShardParts(std::vector<Part>* into, std::vector<Part>&& from) {
  if (into->empty()) {
    *into = std::move(from);
    return Status::Ok();
  }
  if (from.empty()) return Status::Ok();
  if (into->front().num_shards != from.front().num_shards ||
      into->front().total_rows != from.front().total_rows) {
    return Status::InvalidArgument(
        "cannot merge partial states from different sharded builds");
  }
  std::vector<Part> merged;
  merged.reserve(into->size() + from.size());
  auto a = into->begin();
  auto b = from.begin();
  while (a != into->end() || b != from.end()) {
    if (b == from.end() ||
        (a != into->end() && a->shard < b->shard)) {
      merged.push_back(std::move(*a++));
    } else {
      merged.push_back(std::move(*b++));
    }
  }
  for (size_t i = 1; i < merged.size(); ++i) {
    if (merged[i - 1].shard == merged[i].shard) {
      return Status::InvalidArgument(
          "duplicate shard in partial-state merge");
    }
  }
  *into = std::move(merged);
  return Status::Ok();
}

// The precondition of every Finalize*: the state is COMPLETE — one part per
// shard of a single build, in ascending shard order. `what` names the state
// in the error ("partial KDE state").
template <typename Part>
[[nodiscard]] Status CheckCompleteShards(const std::vector<Part>& parts,
                                         const char* what) {
  if (parts.empty()) {
    return Status::InvalidArgument(std::string(what) + " has no shards");
  }
  bool complete =
      static_cast<int64_t>(parts.size()) == parts.front().num_shards;
  for (size_t i = 0; complete && i < parts.size(); ++i) {
    complete = parts[i].shard == static_cast<int64_t>(i);
  }
  if (!complete) {
    return Status::InvalidArgument(
        std::string(what) + " is incomplete: not every shard is present");
  }
  return Status::Ok();
}

// Pairwise tree reduction of per-shard partial states with
// `merge(Partial, Partial) -> Result<Partial>`. Correctness does not depend
// on the pairing: every merge is a sorted disjoint union (MergeShardParts),
// so any reduction shape yields the same state; the tree shape only bounds
// the reduction depth at log2(parts). Each part is moved into its merge, so
// no copy outlives the step that consumed it.
template <typename Partial, typename MergeFn>
[[nodiscard]] Result<Partial> TreeReduce(std::vector<Partial> parts,
                                         const MergeFn& merge) {
  if (parts.empty()) {
    return Status::InvalidArgument("no partial states to reduce");
  }
  while (parts.size() > 1) {
    std::vector<Partial> next;
    next.reserve((parts.size() + 1) / 2);
    for (size_t i = 0; i + 1 < parts.size(); i += 2) {
      DBS_ASSIGN_OR_RETURN(
          Partial merged,
          merge(std::move(parts[i]), std::move(parts[i + 1])));
      next.push_back(std::move(merged));
    }
    if (parts.size() % 2 == 1) next.push_back(std::move(parts.back()));
    parts = std::move(next);
  }
  return std::move(parts.front());
}

}  // namespace dbs

#endif  // DBS_UTIL_SHARD_H_
