// Copyright 2026 The SPLASH Reproduction Authors.
//
// O(1)-per-edge temporal degree tracking: a flat counter array indexed by
// node id. Feeds the structural augmentation process (degree encoding,
// paper Sec. IV-B3). Header-only; the hot path is two increments.

#ifndef SPLASH_GRAPH_DEGREE_TRACKER_H_
#define SPLASH_GRAPH_DEGREE_TRACKER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/serialize.h"
#include "core/types.h"

namespace splash {

class DegreeTracker {
 public:
  explicit DegreeTracker(size_t num_nodes_hint = 0) {
    EnsureNodeCapacity(num_nodes_hint);
  }

  void EnsureNodeCapacity(size_t n) {
    if (n <= degree_.size()) return;
    degree_.resize(GrowCapacity(degree_.size(), n), 0);
  }

  void Observe(const TemporalEdge& e) {
    const size_t hi = static_cast<size_t>(e.src > e.dst ? e.src : e.dst) + 1;
    if (hi > degree_.size()) EnsureNodeCapacity(hi);
    ++degree_[e.src];
    ++degree_[e.dst];
    ++num_edges_;
  }

  /// Single-counter bump for shard-partitioned bulk ingest: callers
  /// guarantee capacity up front (EnsureNodeCapacity) and that every node's
  /// counter is written by exactly one worker, then account the edge count
  /// once with AddEdges. No growth, no edge counting here.
  void IncrementDegree(NodeId node) { ++degree_[node]; }

  /// Adds `n` edges' worth to the edge counter (the bulk-ingest companion
  /// of IncrementDegree).
  void AddEdges(size_t n) { num_edges_ += n; }

  uint32_t Degree(NodeId node) const {
    return node < degree_.size() ? degree_[node] : 0;
  }

  size_t num_edges() const { return num_edges_; }
  /// Nodes with a counter slot (IncrementDegree's valid range).
  size_t capacity() const { return degree_.size(); }

  void Clear() {
    std::fill(degree_.begin(), degree_.end(), 0u);
    num_edges_ = 0;
  }

  /// Checkpoint hooks: full counter state, including the array capacity
  /// (growth is geometric, so restoring the exact size keeps subsequent
  /// growth decisions — and thus allocation behavior — on the same path).
  void Serialize(ByteWriter* w) const {
    w->U64(num_edges_);
    w->U32Vec(degree_);
  }

  bool Deserialize(ByteReader* r) {
    num_edges_ = static_cast<size_t>(r->U64());
    return r->U32Vec(&degree_) && r->ok();
  }

 private:
  std::vector<uint32_t> degree_;
  size_t num_edges_ = 0;
};

}  // namespace splash

#endif  // SPLASH_GRAPH_DEGREE_TRACKER_H_
