// Copyright 2026 The SPLASH Reproduction Authors.
//
// Fixed-capacity k-recent neighbor memory, shard-partitioned by node id.
// Node v lives in shard `v & (S-1)` (S a power of two) at local index
// `v >> log2(S)`. Each shard owns a cursor array of 8-byte {head, count}
// pairs, one per local node, and one contiguous slab of k packed 12-byte
// (neighbor id, time) slots per local node: 8 + 12k bytes per node. So
//   - Observe() is two pushes, and a push touches its node's cursor (a
//     small, cache-resident array) and one slot — no pointers chased, no
//     heap allocation on the steady-state path (the structure behind the
//     paper's O(1)-per-edge claim, Fig. 11; bench_micro_substrate gates
//     its flatness);
//   - growing one shard never moves another shard's slab.
// The checkpoint bytes (Serialize) keep the older four-array layout, per
// shard the ids, times, heads and counts arrays, so the in-memory layout
// is free to change without a format bump. The shard geometry is part of
// those bytes, which is why it stays although every write runs on one
// thread.
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
      const size_t covered = sh.cursors.size() << shard_shift_;
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
    const Shard& sh = shards_[node & shard_mask_];
    const size_t local = static_cast<size_t>(node) >> shard_shift_;
    return local < sh.cursors.size() ? sh.cursors[local].count : 0;
  }

  /// Copies `node`'s neighbors newest-first into ids[0..count) and
  /// times[0..count); returns count (<= k). Callers pass k-sized scratch.
  size_t GatherRecent(NodeId node, NodeId* ids, double* times) const {
    const Shard& sh = shards_[node & shard_mask_];
    const size_t local = static_cast<size_t>(node) >> shard_shift_;
    if (local >= sh.cursors.size()) return 0;
    const Cursor cursor = sh.cursors[local];
    const Slot* ring = sh.slots.data() + local * k_;
    size_t slot = cursor.head;  // next write position == oldest entry
    for (size_t i = 0; i < cursor.count; ++i) {
      // Walk backwards from the newest entry (head - 1).
      slot = slot == 0 ? k_ - 1 : slot - 1;
      ids[i] = ring[slot].id;
      times[i] = ring[slot].time;
    }
    return cursor.count;
  }

  /// Forgets everything but keeps the slabs allocated.
  void Clear() {
    for (Shard& sh : shards_) {
      std::fill(sh.cursors.begin(), sh.cursors.end(), Cursor{0, 0});
    }
  }

  /// Checkpoint hooks. Per shard, four length-prefixed arrays: every
  /// slot's neighbor id (u32), every slot's time (f64), then every node's
  /// head (the next write slot) and count (valid entries) as u32 — the
  /// byte layout of the four typed arrays this memory once held, which
  /// Serialize converts to and Deserialize from. Deserialize requires the
  /// same k and shard geometry the memory was constructed with (ring
  /// layout is derived from both, so a mismatch means the checkpoint
  /// belongs to a different configuration) and cursors a run of pushes
  /// can reach: head < k, count <= k, and head == count while count < k.
  void Serialize(ByteWriter* w) const {
    w->U64(k_);
    w->U64(shards_.size());
    for (const Shard& sh : shards_) {
      const size_t slots = sh.slots.size(), nodes = sh.cursors.size();
      WriteArray<NodeId>(w, slots, [&](size_t j) { return sh.slots[j].id; });
      WriteArray<double>(w, slots,
                         [&](size_t j) { return sh.slots[j].time; });
      WriteArray<uint32_t>(w, nodes,
                           [&](size_t j) { return sh.cursors[j].head; });
      WriteArray<uint32_t>(w, nodes,
                           [&](size_t j) { return sh.cursors[j].count; });
    }
  }

  bool Deserialize(ByteReader* r) {
    if (r->U64() != k_ || r->U64() != shards_.size()) return false;
    for (Shard& sh : shards_) {
      size_t n_ids = 0, n_times = 0, n_heads = 0, n_counts = 0;
      const uint8_t* ids = r->VecSpan(sizeof(NodeId), &n_ids);
      const uint8_t* times = r->VecSpan(sizeof(double), &n_times);
      const uint8_t* heads = r->VecSpan(sizeof(uint32_t), &n_heads);
      const uint8_t* counts = r->VecSpan(sizeof(uint32_t), &n_counts);
      if (counts == nullptr || n_heads != n_counts ||
          n_ids != n_counts * k_ || n_times != n_ids) {
        return false;
      }
      // Every cursor is checked before the shard is touched.
      for (size_t j = 0; j < n_counts; ++j) {
        const uint32_t head = LoadAt<uint32_t>(heads, j);
        const uint32_t count = LoadAt<uint32_t>(counts, j);
        if (head >= k_ || count > k_ || (count < k_ && head != count)) {
          return false;
        }
      }
      sh.cursors.resize(n_counts);
      for (size_t j = 0; j < n_counts; ++j) {
        sh.cursors[j] =
            Cursor{LoadAt<uint32_t>(heads, j), LoadAt<uint32_t>(counts, j)};
      }
      sh.slots.resize(n_ids);
      for (size_t j = 0; j < n_ids; ++j) {
        sh.slots[j] = Slot(LoadAt<NodeId>(ids, j), LoadAt<double>(times, j));
      }
    }
    return r->ok();
  }

 private:
  static constexpr size_t kDefaultShards = 8;

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

  /// One shard: the cursors and the ring slab of every node it owns.
  struct Shard {
    std::vector<Cursor> cursors;  // per local node
    std::vector<Slot> slots;      // local_nodes * k slab
  };

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

  /// Local slots a shard needs so that global ids in [0, n) are covered.
  size_t LocalCapacityFor(size_t n) const {
    return (n + shards_.size() - 1) >> shard_shift_;
  }

  /// Sets p[0, n) to the empty slot (kInvalidNode, 0.0): one slot, then
  /// doubling copies of the filled prefix.
  static void FillEmpty(Slot* p, size_t n) {
    if (n == 0) return;
    p[0] = Slot(kInvalidNode, 0.0);
    for (size_t done = 1; done < n;) {
      const size_t chunk = std::min(done, n - done);
      std::memcpy(p + done, p, chunk * sizeof(Slot));
      done += chunk;
    }
  }

  void EnsureShardCapacity(Shard* sh, size_t local_n) {
    if (local_n <= sh->cursors.size()) return;
    const size_t target = GrowCapacity(sh->cursors.size(), local_n);
    const size_t old_slots = sh->slots.size();
    sh->slots.resize(target * k_);
    FillEmpty(sh->slots.data() + old_slots, target * k_ - old_slots);
    sh->cursors.resize(target, Cursor{0, 0});
  }

  void Push(NodeId node, NodeId neighbor, double time) {
    Shard& sh = shards_[node & shard_mask_];
    const size_t local = static_cast<size_t>(node) >> shard_shift_;
    if (local >= sh.cursors.size()) EnsureShardCapacity(&sh, local + 1);
    Cursor& cursor = sh.cursors[local];
    sh.slots[local * k_ + cursor.head] = Slot(neighbor, time);
    cursor.head = cursor.head + 1 == k_ ? 0 : cursor.head + 1;
    if (cursor.count < k_) ++cursor.count;
  }

  size_t k_;
  size_t shard_mask_ = 0;
  size_t shard_shift_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace splash

#endif  // SPLASH_GRAPH_NEIGHBOR_MEMORY_H_
