// Copyright 2026 The SPLASH Reproduction Authors.
//
// NeighborMemory contract tests: k-recent semantics, eviction order,
// capacity growth, reset behavior, bulk ingest, checkpoint bytes equal to
// the four-array ring layout they are defined by, and refusal of ring
// cursors no run of pushes can reach.

#include "graph/neighbor_memory.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/serialize.h"
#include "graph/edge_stream.h"
#include "tensor/rng.h"

namespace splash {
namespace {

TEST(NeighborMemoryTest, GathersNewestFirst) {
  NeighborMemory memory(3, 8);
  memory.Observe(TemporalEdge(0, 1, 1.0));
  memory.Observe(TemporalEdge(0, 2, 2.0));

  std::vector<NodeId> ids(3);
  std::vector<double> times(3);
  ASSERT_EQ(memory.GatherRecent(0, ids.data(), times.data()), 2u);
  EXPECT_EQ(ids[0], 2u);  // newest first
  EXPECT_EQ(ids[1], 1u);
  EXPECT_DOUBLE_EQ(times[0], 2.0);
  EXPECT_DOUBLE_EQ(times[1], 1.0);
}

TEST(NeighborMemoryTest, EvictsOldestBeyondK) {
  NeighborMemory memory(3, 8);
  for (int i = 1; i <= 5; ++i) {
    memory.Observe(TemporalEdge(0, static_cast<NodeId>(i),
                                static_cast<double>(i)));
  }
  std::vector<NodeId> ids(3);
  std::vector<double> times(3);
  ASSERT_EQ(memory.GatherRecent(0, ids.data(), times.data()), 3u);
  // Neighbors 1 and 2 were evicted; 5, 4, 3 remain newest-first.
  EXPECT_EQ(ids[0], 5u);
  EXPECT_EQ(ids[1], 4u);
  EXPECT_EQ(ids[2], 3u);
  EXPECT_EQ(memory.CountOf(0), 3u);
}

TEST(NeighborMemoryTest, ObserveIsSymmetric) {
  NeighborMemory memory(2, 4);
  memory.Observe(TemporalEdge(1, 3, 7.0));
  std::vector<NodeId> ids(2);
  std::vector<double> times(2);
  ASSERT_EQ(memory.GatherRecent(3, ids.data(), times.data()), 1u);
  EXPECT_EQ(ids[0], 1u);
  ASSERT_EQ(memory.GatherRecent(1, ids.data(), times.data()), 1u);
  EXPECT_EQ(ids[0], 3u);
}

TEST(NeighborMemoryTest, GrowsForUnannouncedNodeIds) {
  NeighborMemory memory(2, 4);  // slab sized for 4 nodes
  memory.Observe(TemporalEdge(100, 200, 1.0));
  EXPECT_GE(memory.num_nodes(), 201u);
  std::vector<NodeId> ids(2);
  std::vector<double> times(2);
  ASSERT_EQ(memory.GatherRecent(200, ids.data(), times.data()), 1u);
  EXPECT_EQ(ids[0], 100u);
  // Earlier (small-id) state must survive growth triggered later.
  memory.Observe(TemporalEdge(0, 1, 2.0));
  memory.Observe(TemporalEdge(0, 5000, 3.0));
  ASSERT_EQ(memory.GatherRecent(0, ids.data(), times.data()), 2u);
  EXPECT_EQ(ids[0], 5000u);
  EXPECT_EQ(ids[1], 1u);
}

TEST(NeighborMemoryTest, ClearKeepsCapacityDropsContents) {
  NeighborMemory memory(2, 4);
  memory.Observe(TemporalEdge(0, 1, 1.0));
  memory.Clear();
  EXPECT_EQ(memory.CountOf(0), 0u);
  EXPECT_EQ(memory.CountOf(1), 0u);
  std::vector<NodeId> ids(2);
  std::vector<double> times(2);
  EXPECT_EQ(memory.GatherRecent(0, ids.data(), times.data()), 0u);
}

TEST(NeighborMemoryTest, SelfLoopRecordsBothSlots) {
  NeighborMemory memory(3, 4);
  memory.Observe(TemporalEdge(2, 2, 1.0));
  EXPECT_EQ(memory.CountOf(2), 2u);  // both endpoint pushes land on node 2
}

TEST(NeighborMemoryTest, ObserveBulkMatchesSerialObserve) {
  const size_t n = 500, k = 4, edges = 5000;
  EdgeStream stream;
  Rng rng(17);
  double t = 0.0;
  for (size_t i = 0; i < edges; ++i) {
    ASSERT_TRUE(stream
                    .Append(TemporalEdge(
                        static_cast<NodeId>(rng.UniformInt(n)),
                        static_cast<NodeId>(rng.UniformInt(n)), t += 0.5))
                    .ok());
  }

  NeighborMemory serial(k, n);
  for (size_t i = 0; i < edges; ++i) serial.Observe(stream[i]);

  NeighborMemory bulk(k, n);
  bulk.ObserveBulk(stream, 0, edges);
  std::vector<NodeId> ids_a(k), ids_b(k);
  std::vector<double> times_a(k), times_b(k);
  for (NodeId v = 0; v < n; ++v) {
    const size_t ca = serial.GatherRecent(v, ids_a.data(), times_a.data());
    const size_t cb = bulk.GatherRecent(v, ids_b.data(), times_b.data());
    ASSERT_EQ(ca, cb) << "node " << v;
    for (size_t j = 0; j < ca; ++j) {
      ASSERT_EQ(ids_a[j], ids_b[j]) << "node " << v;
      ASSERT_DOUBLE_EQ(times_a[j], times_b[j]) << "node " << v;
    }
  }
}

/// The ring as four typed arrays (ids, times, heads, counts): the layout
/// that defines NeighborMemory's checkpoint bytes, kept here as the
/// reference its Serialize must reproduce byte for byte.
class FourArrayRing {
 public:
  FourArrayRing(size_t k, size_t num_nodes_hint) : k_(k) {
    if (num_nodes_hint > 0) Grow(num_nodes_hint);
  }

  void Observe(const TemporalEdge& e) {
    Push(e.src, e.dst, e.time);
    Push(e.dst, e.src, e.time);
  }

  void Clear() {
    std::fill(heads_.begin(), heads_.end(), 0u);
    std::fill(counts_.begin(), counts_.end(), 0u);
  }

  void Serialize(ByteWriter* w) const {
    w->U64(k_);
    w->U32Vec(ids_);
    w->F64Vec(times_);
    w->U32Vec(heads_);
    w->U32Vec(counts_);
  }

 private:
  void Grow(size_t n) {
    if (n <= counts_.size()) return;
    const size_t target = GrowCapacity(counts_.size(), n);
    ids_.resize(target * k_, kInvalidNode);
    times_.resize(target * k_, 0.0);
    heads_.resize(target, 0);
    counts_.resize(target, 0);
  }

  void Push(NodeId node, NodeId neighbor, double time) {
    Grow(static_cast<size_t>(node) + 1);
    const size_t slot = node * k_ + heads_[node];
    ids_[slot] = neighbor;
    times_[slot] = time;
    heads_[node] = heads_[node] + 1 == k_ ? 0 : heads_[node] + 1;
    if (counts_[node] < k_) ++counts_[node];
  }

  size_t k_;
  std::vector<NodeId> ids_;
  std::vector<double> times_;
  std::vector<uint32_t> heads_;
  std::vector<uint32_t> counts_;
};

std::vector<uint8_t> Bytes(const NeighborMemory& memory) {
  ByteWriter w;
  memory.Serialize(&w);
  return w.buffer();
}

std::vector<uint8_t> Bytes(const FourArrayRing& ring) {
  ByteWriter w;
  ring.Serialize(&w);
  return w.buffer();
}

/// A skewed stream over ids [0, n): half the endpoints from the first
/// eighth of the ids, with self loops and strictly increasing times.
EdgeStream SkewedStream(size_t edges, size_t n, uint64_t seed) {
  EdgeStream stream;
  Rng rng(seed);
  double t = 0.0;
  auto endpoint = [&] {
    const size_t span = rng.Uniform() < 0.5 ? n / 8 + 1 : n;
    return static_cast<NodeId>(rng.UniformInt(span));
  };
  for (size_t i = 0; i < edges; ++i) {
    const NodeId u = endpoint();
    const NodeId v = i % 17 == 0 ? u : endpoint();
    EXPECT_TRUE(stream.Append(TemporalEdge(u, v, t += 0.25)).ok());
  }
  return stream;
}

TEST(NeighborMemoryTest, SerializeBytesEqualFourArrayReference) {
  struct Shape {
    size_t k, hint;
  };
  for (const Shape shape :
       {Shape{1, 0}, Shape{3, 40}, Shape{10, 16}, Shape{4, 1000}}) {
    NeighborMemory memory(shape.k, shape.hint);
    FourArrayRing ring(shape.k, shape.hint);
    ASSERT_EQ(Bytes(memory), Bytes(ring)) << "fresh, k=" << shape.k;

    // Growth: ids far past the hint arrive unannounced, per-edge and bulk.
    const EdgeStream stream = SkewedStream(3000, 700, 5 + shape.k);
    for (size_t i = 0; i < 1000; ++i) {
      memory.Observe(stream[i]);
      ring.Observe(stream[i]);
    }
    memory.ObserveBulk(stream, 1000, 2000);
    for (size_t i = 1000; i < 2000; ++i) ring.Observe(stream[i]);
    ASSERT_EQ(Bytes(memory), Bytes(ring)) << "grown, k=" << shape.k;

    // Clear keeps the slabs, so the later pushes land among stale slots.
    memory.Clear();
    ring.Clear();
    ASSERT_EQ(Bytes(memory), Bytes(ring)) << "cleared, k=" << shape.k;
    memory.ObserveBulk(stream, 2000, 2300);
    for (size_t i = 2000; i < 2300; ++i) ring.Observe(stream[i]);
    const TemporalEdge far(5000, 3, 1e9);
    memory.Observe(far);
    ring.Observe(far);
    ASSERT_EQ(Bytes(memory), Bytes(ring)) << "after clear, k=" << shape.k;
  }
}

TEST(NeighborMemoryTest, DeserializeRoundTripsRingsAndBytes) {
  const size_t k = 5;
  const EdgeStream stream = SkewedStream(4000, 900, 41);
  NeighborMemory memory(k, 100);
  memory.ObserveBulk(stream, 0, 3000);
  const std::vector<uint8_t> bytes = Bytes(memory);

  NeighborMemory restored(k);
  ByteReader r(bytes);
  ASSERT_TRUE(restored.Deserialize(&r));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(Bytes(restored), bytes);
  std::vector<NodeId> ids_a(k), ids_b(k);
  std::vector<double> times_a(k), times_b(k);
  for (NodeId v = 0; v < 1000; ++v) {
    const size_t ca = memory.GatherRecent(v, ids_a.data(), times_a.data());
    const size_t cb = restored.GatherRecent(v, ids_b.data(), times_b.data());
    ASSERT_EQ(ca, cb) << "node " << v;
    for (size_t j = 0; j < ca; ++j) {
      ASSERT_EQ(ids_a[j], ids_b[j]) << "node " << v;
      ASSERT_EQ(times_a[j], times_b[j]) << "node " << v;
    }
  }
  // The restored rings keep going exactly as the original ones do.
  memory.ObserveBulk(stream, 3000, 4000);
  restored.ObserveBulk(stream, 3000, 4000);
  EXPECT_EQ(Bytes(restored), Bytes(memory));
}

// A CRC-valid checkpoint can still carry ring cursors no run of pushes
// reaches: head >= k would make the next push write past the node's ring
// and count > k would make GatherRecent overrun the caller's k slots.
// Deserialize refuses them and leaves the memory usable.
TEST(NeighborMemoryTest, DeserializeRejectsUnreachableCursors) {
  const size_t k = 4;
  NeighborMemory memory(k, 8);
  memory.Observe(TemporalEdge(0, 1, 1.0));
  memory.Observe(TemporalEdge(0, 2, 2.0));  // node 0: count 2, head 2
  for (int i = 0; i < 6; ++i) {             // node 3: full, head 2
    memory.Observe(TemporalEdge(3, 4, 3.0 + i));
  }
  const std::vector<uint8_t> bytes = Bytes(memory);
  // k, then ids, times, heads, counts, each prefixed by its u64 length.
  uint64_t slots = 0;
  std::memcpy(&slots, bytes.data() + 8, sizeof(slots));
  const size_t nodes = slots / k;
  const size_t heads_at = 8 + 8 + slots * 4 + 8 + slots * 8 + 8;
  const size_t counts_at = heads_at + nodes * 4 + 8;
  ASSERT_EQ(counts_at + nodes * 4, bytes.size());

  auto accepts = [&](size_t node, uint32_t head, uint32_t count) {
    std::vector<uint8_t> blob = bytes;
    std::memcpy(blob.data() + heads_at + node * 4, &head, 4);
    std::memcpy(blob.data() + counts_at + node * 4, &count, 4);
    NeighborMemory target(k);
    ByteReader r(blob);
    const bool ok = target.Deserialize(&r);
    // Accepted or refused, the memory stays safe to push to and read.
    for (NodeId v = 0; v < 6; ++v) target.Observe(TemporalEdge(v, 0, 9.0));
    std::vector<NodeId> ids(k);
    std::vector<double> times(k);
    for (NodeId v = 0; v < 6; ++v) {
      EXPECT_LE(target.GatherRecent(v, ids.data(), times.data()), k);
    }
    return ok;
  };
  EXPECT_TRUE(accepts(0, 2, 2));  // the control: bytes as written
  EXPECT_TRUE(accepts(3, 3, 4));  // a full ring may sit at any head < k
  EXPECT_TRUE(accepts(5, 0, 0));
  EXPECT_FALSE(accepts(3, 4, 4));  // head == k
  EXPECT_FALSE(accepts(3, 0xffffffffu, 4));
  EXPECT_FALSE(accepts(0, 2, 5));  // count > k
  EXPECT_FALSE(accepts(5, 0, 0xffffffffu));
  EXPECT_FALSE(accepts(0, 3, 2));  // a partial ring's head is its count
  EXPECT_FALSE(accepts(5, 1, 0));
}

}  // namespace
}  // namespace splash
