// Copyright 2026 The SPLASH Reproduction Authors.
//
// NeighborMemory contract tests: k-recent semantics, eviction order,
// capacity growth, reset behavior, and bulk ingest.

#include "graph/neighbor_memory.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/edge_stream.h"
#include "tensor/rng.h"

namespace splash {
namespace {

TEST(NeighborMemoryTest, GathersNewestFirst) {
  NeighborMemory memory(3, 8);
  memory.Observe(TemporalEdge(0, 1, 1.0), 0);
  memory.Observe(TemporalEdge(0, 2, 2.0), 1);

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
                                static_cast<double>(i)),
                   static_cast<size_t>(i));
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
  memory.Observe(TemporalEdge(1, 3, 7.0), 0);
  std::vector<NodeId> ids(2);
  std::vector<double> times(2);
  ASSERT_EQ(memory.GatherRecent(3, ids.data(), times.data()), 1u);
  EXPECT_EQ(ids[0], 1u);
  ASSERT_EQ(memory.GatherRecent(1, ids.data(), times.data()), 1u);
  EXPECT_EQ(ids[0], 3u);
}

TEST(NeighborMemoryTest, GrowsForUnannouncedNodeIds) {
  NeighborMemory memory(2, 4);  // slab sized for 4 nodes
  memory.Observe(TemporalEdge(100, 200, 1.0), 0);
  EXPECT_GE(memory.num_nodes(), 201u);
  std::vector<NodeId> ids(2);
  std::vector<double> times(2);
  ASSERT_EQ(memory.GatherRecent(200, ids.data(), times.data()), 1u);
  EXPECT_EQ(ids[0], 100u);
  // Earlier (small-id) state must survive growth triggered later.
  memory.Observe(TemporalEdge(0, 1, 2.0), 1);
  memory.Observe(TemporalEdge(0, 5000, 3.0), 2);
  ASSERT_EQ(memory.GatherRecent(0, ids.data(), times.data()), 2u);
  EXPECT_EQ(ids[0], 5000u);
  EXPECT_EQ(ids[1], 1u);
}

TEST(NeighborMemoryTest, ClearKeepsCapacityDropsContents) {
  NeighborMemory memory(2, 4);
  memory.Observe(TemporalEdge(0, 1, 1.0), 0);
  memory.Clear();
  EXPECT_EQ(memory.CountOf(0), 0u);
  EXPECT_EQ(memory.CountOf(1), 0u);
  std::vector<NodeId> ids(2);
  std::vector<double> times(2);
  EXPECT_EQ(memory.GatherRecent(0, ids.data(), times.data()), 0u);
}

TEST(NeighborMemoryTest, SelfLoopRecordsBothSlots) {
  NeighborMemory memory(3, 4);
  memory.Observe(TemporalEdge(2, 2, 1.0), 0);
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
  for (size_t i = 0; i < edges; ++i) serial.Observe(stream[i], i);

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

}  // namespace
}  // namespace splash
