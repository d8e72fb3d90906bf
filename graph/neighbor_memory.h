// Copyright 2026 The SPLASH Reproduction Authors.
//
// Fixed-capacity k-recent neighbor memory in one slab. Node v's ring
// cursor, an 8-byte {head, count} pair, is cursors_[v], and its k packed
// 12-byte (neighbor id, time) slots are slots_[v*k, (v+1)*k): 8 + 12k
// bytes per node. Observe() is two pushes, and a push touches its node's
// cursor and one slot — no pointers chased, no heap allocation on the
// steady-state path (the structure behind the paper's O(1)-per-edge
// claim, Fig. 11; bench_micro_substrate gates its flatness).
// The checkpoint bytes (Serialize) are the four-array layout, the ids,
// times, heads and counts arrays, so the in-memory layout is free to
// change without a format bump.
//
// Thread contract: one writer (Observe/ObserveBulk/capacity calls) at a
// time, and no reader concurrently with it; GatherRecent is safe from any
// number of readers while nothing writes.

#ifndef SPLASH_GRAPH_NEIGHBOR_MEMORY_H_
#define SPLASH_GRAPH_NEIGHBOR_MEMORY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/serialize.h"
#include "core/types.h"
#include "graph/edge_stream.h"

namespace splash {

class NeighborMemory {
 public:
  /// `k` is the per-node ring capacity; `num_nodes_hint` pre-sizes the
  /// slab so the first edges do not pay growth cost.
  explicit NeighborMemory(size_t k, size_t num_nodes_hint = 0)
      : k_(k == 0 ? 1 : k) {
    EnsureNodeCapacity(num_nodes_hint);
  }

  size_t k() const { return k_; }

  /// The node-id range currently covered without growth.
  size_t num_nodes() const { return cursors_.size(); }

  /// Grows the slab to cover node ids in [0, n). Geometric growth keeps
  /// the amortized per-edge cost O(1) even when ids arrive unannounced.
  void EnsureNodeCapacity(size_t n) {
    if (n <= cursors_.size()) return;
    const size_t target = GrowCapacity(cursors_.size(), n);
    const size_t old_slots = slots_.size();
    slots_.resize(target * k_);
    FillEmpty(slots_.data() + old_slots, target * k_ - old_slots);
    cursors_.resize(target, Cursor{0, 0});
  }

  /// Records the edge in both endpoints' rings: dst becomes the most recent
  /// neighbor of src and vice versa.
  void Observe(const TemporalEdge& e) {
    Push(e.src, e.dst, e.time);
    Push(e.dst, e.src, e.time);
  }

  /// Ingests edges [begin, end) of `stream` in order, read from its
  /// columns; equivalent to calling Observe on each edge.
  void ObserveBulk(const EdgeStream& stream, size_t begin, size_t end) {
    const NodeId* src = stream.src_data();
    const NodeId* dst = stream.dst_data();
    const double* time = stream.time_data();
    for (size_t i = begin; i < end; ++i) {
      Push(src[i], dst[i], time[i]);
      Push(dst[i], src[i], time[i]);
    }
  }

  /// Number of valid entries in `node`'s ring (<= k).
  size_t CountOf(NodeId node) const {
    return node < cursors_.size() ? cursors_[node].count : 0;
  }

  /// Copies `node`'s neighbors newest-first into ids[0..count) and
  /// times[0..count); returns count (<= k). Callers pass k-sized scratch.
  size_t GatherRecent(NodeId node, NodeId* ids, double* times) const {
    if (node >= cursors_.size()) return 0;
    const Cursor cursor = cursors_[node];
    const Slot* ring = slots_.data() + static_cast<size_t>(node) * k_;
    size_t slot = cursor.head;  // next write position == oldest entry
    for (size_t i = 0; i < cursor.count; ++i) {
      // Walk backwards from the newest entry (head - 1).
      slot = slot == 0 ? k_ - 1 : slot - 1;
      ids[i] = ring[slot].id;
      times[i] = ring[slot].time;
    }
    return cursor.count;
  }

  /// Forgets everything but keeps the slab allocated.
  void Clear() { std::fill(cursors_.begin(), cursors_.end(), Cursor{0, 0}); }

  /// Checkpoint hooks. k, then four length-prefixed arrays: every slot's
  /// neighbor id (u32), every slot's time (f64), then every node's head
  /// (the next write slot) and count (valid entries) as u32 — the byte
  /// layout of the four typed arrays this memory once held, which
  /// Serialize converts to and Deserialize from. Deserialize requires the
  /// k the memory was constructed with (the ring layout is derived from
  /// it, so a mismatch means the checkpoint belongs to a different
  /// configuration) and cursors a run of pushes can reach: head < k,
  /// count <= k, and head == count while count < k. A refused blob leaves
  /// the memory as it was.
  void Serialize(ByteWriter* w) const {
    w->U64(k_);
    const size_t slots = slots_.size(), nodes = cursors_.size();
    WriteArray<NodeId>(w, slots, [&](size_t j) { return slots_[j].id; });
    WriteArray<double>(w, slots, [&](size_t j) { return slots_[j].time; });
    WriteArray<uint32_t>(w, nodes, [&](size_t j) { return cursors_[j].head; });
    WriteArray<uint32_t>(w, nodes,
                         [&](size_t j) { return cursors_[j].count; });
  }

  bool Deserialize(ByteReader* r) {
    if (r->U64() != k_) return false;
    size_t n_ids = 0, n_times = 0, n_heads = 0, n_counts = 0;
    const uint8_t* ids = r->VecSpan(sizeof(NodeId), &n_ids);
    const uint8_t* times = r->VecSpan(sizeof(double), &n_times);
    const uint8_t* heads = r->VecSpan(sizeof(uint32_t), &n_heads);
    const uint8_t* counts = r->VecSpan(sizeof(uint32_t), &n_counts);
    if (counts == nullptr || n_heads != n_counts || n_ids != n_counts * k_ ||
        n_times != n_ids) {
      return false;
    }
    // Every cursor is checked before the memory is touched.
    for (size_t j = 0; j < n_counts; ++j) {
      const uint32_t head = LoadAt<uint32_t>(heads, j);
      const uint32_t count = LoadAt<uint32_t>(counts, j);
      if (head >= k_ || count > k_ || (count < k_ && head != count)) {
        return false;
      }
    }
    cursors_.resize(n_counts);
    for (size_t j = 0; j < n_counts; ++j) {
      cursors_[j] =
          Cursor{LoadAt<uint32_t>(heads, j), LoadAt<uint32_t>(counts, j)};
    }
    slots_.resize(n_ids);
    for (size_t j = 0; j < n_ids; ++j) {
      slots_[j] = Slot(LoadAt<NodeId>(ids, j), LoadAt<double>(times, j));
    }
    return r->ok();
  }

 private:
  /// A node's ring cursor: the next write slot and the valid entries.
  struct Cursor {
    uint32_t head;
    uint32_t count;  // <= k
  };

#pragma pack(push, 1)
  /// One ring slot, packed to 12 bytes with alignment 1, so its fields
  /// are plain unaligned accesses. Default construction leaves it unset:
  /// a growing slab fills its new slots itself (FillEmpty).
  struct Slot {
    Slot() {}
    Slot(NodeId i, double t) : id(i), time(t) {}
    NodeId id;
    double time;
  };
#pragma pack(pop)
  static_assert(sizeof(Slot) == 12, "ring slots are packed");

  /// Writes n values as one length-prefixed array of raw T bytes (the
  /// layout of ByteWriter's *Vec methods); value(j) yields the j-th.
  template <class T, class F>
  static void WriteArray(ByteWriter* w, size_t n, F value) {
    w->U64(n);
    uint8_t* out = w->Span(n * sizeof(T));
    for (size_t j = 0; j < n; ++j) {
      const T v = value(j);
      std::memcpy(out + j * sizeof(T), &v, sizeof(T));
    }
  }

  /// The j-th T of a raw array that may sit at any alignment.
  template <class T>
  static T LoadAt(const uint8_t* p, size_t j) {
    T v{};
    std::memcpy(&v, p + j * sizeof(T), sizeof(T));
    return v;
  }

  /// Sets p[0, n) to the empty slot (kInvalidNode, 0.0): one slot, then
  /// copies of the filled prefix, doubling up to kFillChunk slots. The
  /// copies read at most 48 KB, which stays in cache, so filling a slab
  /// larger than the L2 costs its writes only.
  static void FillEmpty(Slot* p, size_t n) {
    constexpr size_t kFillChunk = 4096;
    if (n == 0) return;
    p[0] = Slot(kInvalidNode, 0.0);
    for (size_t done = 1; done < n;) {
      const size_t chunk = std::min({done, n - done, kFillChunk});
      std::memcpy(p + done, p, chunk * sizeof(Slot));
      done += chunk;
    }
  }

  void Push(NodeId node, NodeId neighbor, double time) {
    if (node >= cursors_.size()) {
      EnsureNodeCapacity(static_cast<size_t>(node) + 1);
    }
    Cursor& cursor = cursors_[node];
    slots_[static_cast<size_t>(node) * k_ + cursor.head] =
        Slot(neighbor, time);
    cursor.head = cursor.head + 1 == k_ ? 0 : cursor.head + 1;
    if (cursor.count < k_) ++cursor.count;
  }

  size_t k_;
  std::vector<Cursor> cursors_;  // per node
  std::vector<Slot> slots_;      // num_nodes * k slab
};

}  // namespace splash

#endif  // SPLASH_GRAPH_NEIGHBOR_MEMORY_H_
