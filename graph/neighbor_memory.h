// Copyright 2026 The SPLASH Reproduction Authors.
//
// Fixed-capacity k-recent neighbor memory, shard-partitioned by node id.
// Node v lives in shard `v & (S-1)` (S a power of two) at local index
// `v >> log2(S)`; each shard owns an independent contiguous ring slab of k
// (neighbor id, time) slots per local node, so
//   - Observe() is still two ring writes — no pointers chased, no heap
//     allocation on the steady-state path (the structure behind the
//     paper's O(1)-per-edge claim, Fig. 11; bench_micro_substrate gates
//     its flatness);
//   - growing one shard never moves another shard's slab.
// The shard geometry is part of the checkpoint bytes (Serialize), which is
// why it stays although every write runs on one thread.
//
// Thread contract: one writer (Observe/ObserveBulk/capacity calls) at a
// time, and no reader concurrently with it; GatherRecent is safe from any
// number of readers while nothing writes.

#ifndef SPLASH_GRAPH_NEIGHBOR_MEMORY_H_
#define SPLASH_GRAPH_NEIGHBOR_MEMORY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/serialize.h"
#include "core/types.h"
#include "graph/edge_stream.h"

namespace splash {

class NeighborMemory {
 public:
  /// `k` is the per-node ring capacity; `num_nodes_hint` pre-sizes the
  /// shard slabs so the first edges do not pay growth cost. `num_shards`
  /// is rounded up to a power of two; 0 picks the default (8).
  explicit NeighborMemory(size_t k, size_t num_nodes_hint = 0,
                          size_t num_shards = 0)
      : k_(k == 0 ? 1 : k) {
    size_t s = 1;
    const size_t want = num_shards == 0 ? kDefaultShards : num_shards;
    while (s < want) s *= 2;
    shard_mask_ = s - 1;
    shard_shift_ = 0;
    for (size_t v = s; v > 1; v >>= 1) ++shard_shift_;
    shards_.resize(s);
    EnsureNodeCapacity(num_nodes_hint);
  }

  size_t k() const { return k_; }
  size_t num_shards() const { return shards_.size(); }

  /// Upper bound on the node-id range currently covered without growth
  /// (max over shards; shards grow independently).
  size_t num_nodes() const {
    size_t hi = 0;
    for (const Shard& sh : shards_) {
      const size_t covered = sh.counts.size() << shard_shift_;
      if (covered > hi) hi = covered;
    }
    return hi;
  }

  /// Grows every shard to cover node ids in [0, n). Geometric growth keeps
  /// the amortized per-edge cost O(1) even when ids arrive unannounced.
  void EnsureNodeCapacity(size_t n) {
    if (n == 0) return;
    const size_t local = LocalCapacityFor(n);
    for (Shard& sh : shards_) EnsureShardCapacity(&sh, local);
  }

  /// Records the edge in both endpoints' rings: dst becomes the most recent
  /// neighbor of src and vice versa. `edge_index` is accepted for interface
  /// stability with event-indexed memories; the ring stores (id, time) only.
  void Observe(const TemporalEdge& e, size_t edge_index) {
    (void)edge_index;
    Push(e.src, e.dst, e.time);
    Push(e.dst, e.src, e.time);
  }

  /// Ingests edges [begin, end) of `stream` in order; equivalent to
  /// calling Observe on each edge.
  void ObserveBulk(const EdgeStream& stream, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) Observe(stream[i], i);
  }

  /// Number of valid entries in `node`'s ring (<= k).
  size_t CountOf(NodeId node) const {
    const Shard& sh = shards_[node & shard_mask_];
    const size_t local = static_cast<size_t>(node) >> shard_shift_;
    return local < sh.counts.size() ? sh.counts[local] : 0;
  }

  /// Copies `node`'s neighbors newest-first into ids[0..count) and
  /// times[0..count); returns count (<= k). Callers pass k-sized scratch.
  size_t GatherRecent(NodeId node, NodeId* ids, double* times) const {
    const Shard& sh = shards_[node & shard_mask_];
    const size_t local = static_cast<size_t>(node) >> shard_shift_;
    if (local >= sh.counts.size()) return 0;
    const size_t count = sh.counts[local];
    const size_t base = local * k_;
    size_t slot = sh.heads[local];  // next write position == oldest entry
    for (size_t i = 0; i < count; ++i) {
      // Walk backwards from the newest entry (head - 1).
      slot = slot == 0 ? k_ - 1 : slot - 1;
      ids[i] = sh.ids[base + slot];
      times[i] = sh.times[base + slot];
    }
    return count;
  }

  /// Forgets everything but keeps the slabs allocated.
  void Clear() {
    for (Shard& sh : shards_) {
      std::fill(sh.heads.begin(), sh.heads.end(), 0u);
      std::fill(sh.counts.begin(), sh.counts.end(), 0u);
    }
  }

  /// Checkpoint hooks: the full ring slabs (ids + times), per-node cursors
  /// (heads) and fill counts of every shard, exactly as laid out in
  /// memory. Deserialize requires the same k and shard geometry the memory
  /// was constructed with — ring layout is derived from both, so a
  /// mismatch means the checkpoint belongs to a different configuration.
  void Serialize(ByteWriter* w) const {
    w->U64(k_);
    w->U64(shards_.size());
    for (const Shard& sh : shards_) {
      w->U32Vec(sh.ids);
      w->F64Vec(sh.times);
      w->U32Vec(sh.heads);
      w->U32Vec(sh.counts);
    }
  }

  bool Deserialize(ByteReader* r) {
    if (r->U64() != k_ || r->U64() != shards_.size()) return false;
    for (Shard& sh : shards_) {
      if (!r->U32Vec(&sh.ids) || !r->F64Vec(&sh.times) ||
          !r->U32Vec(&sh.heads) || !r->U32Vec(&sh.counts)) {
        return false;
      }
      if (sh.ids.size() != sh.counts.size() * k_ ||
          sh.times.size() != sh.ids.size() ||
          sh.heads.size() != sh.counts.size()) {
        return false;
      }
    }
    return r->ok();
  }

 private:
  static constexpr size_t kDefaultShards = 8;

  /// One shard: the ring slabs of every node it owns.
  struct Shard {
    std::vector<NodeId> ids;       // local_nodes * k slab
    std::vector<double> times;     // local_nodes * k slab
    std::vector<uint32_t> heads;   // per-node ring head (next write slot)
    std::vector<uint32_t> counts;  // per-node valid entries (<= k)
  };

  /// Local slots a shard needs so that global ids in [0, n) are covered.
  size_t LocalCapacityFor(size_t n) const {
    return (n + shards_.size() - 1) >> shard_shift_;
  }

  void EnsureShardCapacity(Shard* sh, size_t local_n) {
    if (local_n <= sh->counts.size()) return;
    const size_t target = GrowCapacity(sh->counts.size(), local_n);
    sh->ids.resize(target * k_, kInvalidNode);
    sh->times.resize(target * k_, 0.0);
    sh->heads.resize(target, 0);
    sh->counts.resize(target, 0);
  }

  void Push(NodeId node, NodeId neighbor, double time) {
    Shard& sh = shards_[node & shard_mask_];
    const size_t local = static_cast<size_t>(node) >> shard_shift_;
    if (local >= sh.counts.size()) EnsureShardCapacity(&sh, local + 1);
    const size_t base = local * k_;
    uint32_t& head = sh.heads[local];
    sh.ids[base + head] = neighbor;
    sh.times[base + head] = time;
    head = head + 1 == k_ ? 0 : head + 1;
    if (sh.counts[local] < k_) ++sh.counts[local];
  }

  size_t k_;
  size_t shard_mask_ = 0;
  size_t shard_shift_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace splash

#endif  // SPLASH_GRAPH_NEIGHBOR_MEMORY_H_
