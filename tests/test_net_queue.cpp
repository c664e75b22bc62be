#include <gtest/gtest.h>

#include "net/queue.hpp"

namespace mltcp::net {
namespace {

Packet data_packet(std::int32_t size = 1500, std::int64_t priority = 0,
                   bool ecn = false) {
  Packet p;
  p.type = PacketType::kData;
  p.size_bytes = size;
  p.priority = priority;
  p.ecn_capable = ecn;
  return p;
}

// -------------------------------------------------------------------- FIFO

TEST(FifoQueue, FifoOrder) {
  FifoQueue q(10 * 1500);
  for (int i = 0; i < 3; ++i) {
    Packet p = data_packet();
    p.seq = i;
    EXPECT_TRUE(q.enqueue(p, 0));
  }
  for (int i = 0; i < 3; ++i) {
    auto p = q.dequeue(0);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(FifoQueue, DropsWhenFull) {
  FifoQueue q(2 * 1500);
  EXPECT_TRUE(q.enqueue(data_packet(), 0));
  EXPECT_TRUE(q.enqueue(data_packet(), 0));
  EXPECT_FALSE(q.enqueue(data_packet(), 0));
  EXPECT_EQ(q.stats().dropped_packets, 1);
  EXPECT_EQ(q.stats().enqueued_packets, 2);
}

TEST(FifoQueue, ByteCapacityNotPacketCount) {
  FifoQueue q(3000);
  EXPECT_TRUE(q.enqueue(data_packet(2000), 0));
  // 2000 + 1500 > 3000: dropped even though only one packet is resident.
  EXPECT_FALSE(q.enqueue(data_packet(1500), 0));
  EXPECT_TRUE(q.enqueue(data_packet(1000), 0));
  EXPECT_EQ(q.backlog_bytes(), 3000);
}

TEST(FifoQueue, BacklogTracksDequeue) {
  FifoQueue q(10 * 1500);
  q.enqueue(data_packet(), 0);
  q.enqueue(data_packet(), 0);
  EXPECT_EQ(q.backlog_bytes(), 3000);
  EXPECT_EQ(q.backlog_packets(), 2u);
  q.dequeue(0);
  EXPECT_EQ(q.backlog_bytes(), 1500);
  EXPECT_EQ(q.stats().max_backlog_bytes, 3000);
}

TEST(FifoQueue, DequeueEmptyReturnsNullopt) {
  FifoQueue q(1500);
  EXPECT_FALSE(q.dequeue(0).has_value());
}

// ------------------------------------------------------- FIFO, ECN marking

TEST(FifoQueue, MarksAboveThreshold) {
  FifoQueue q(100 * 1500, 2 * 1500);
  // First two arrivals see backlog below the 2-packet threshold: unmarked.
  q.enqueue(data_packet(1500, 0, true), 0);
  q.enqueue(data_packet(1500, 0, true), 0);
  // Third arrival sees backlog == threshold: marked.
  q.enqueue(data_packet(1500, 0, true), 0);
  EXPECT_FALSE(q.dequeue(0)->ce);
  EXPECT_FALSE(q.dequeue(0)->ce);
  EXPECT_TRUE(q.dequeue(0)->ce);
  EXPECT_EQ(q.stats().marked_packets, 1);
}

TEST(FifoQueue, DoesNotMarkNonEcnPackets) {
  FifoQueue q(100 * 1500, 1500);
  q.enqueue(data_packet(1500, 0, false), 0);
  q.enqueue(data_packet(1500, 0, false), 0);
  EXPECT_FALSE(q.dequeue(0)->ce);
  EXPECT_FALSE(q.dequeue(0)->ce);
  EXPECT_EQ(q.stats().marked_packets, 0);
}

TEST(FifoQueue, StillDropsAtCapacity) {
  FifoQueue q(2 * 1500, 1500);
  EXPECT_TRUE(q.enqueue(data_packet(1500, 0, true), 0));
  EXPECT_TRUE(q.enqueue(data_packet(1500, 0, true), 0));
  EXPECT_FALSE(q.enqueue(data_packet(1500, 0, true), 0));
}

// --------------------------------------------------------- PfabricPriority

TEST(PfabricPriorityQueue, DequeuesSmallestPriorityFirst) {
  PfabricPriorityQueue q(100 * 1500);
  q.enqueue(data_packet(1500, 9000), 0);
  q.enqueue(data_packet(1500, 1500), 0);
  q.enqueue(data_packet(1500, 4500), 0);
  EXPECT_EQ(q.dequeue(0)->priority, 1500);
  EXPECT_EQ(q.dequeue(0)->priority, 4500);
  EXPECT_EQ(q.dequeue(0)->priority, 9000);
}

TEST(PfabricPriorityQueue, FifoWithinEqualPriority) {
  PfabricPriorityQueue q(100 * 1500);
  for (int i = 0; i < 4; ++i) {
    Packet p = data_packet(1500, 7);
    p.seq = i;
    q.enqueue(p, 0);
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q.dequeue(0)->seq, i);
}

TEST(PfabricPriorityQueue, EvictsLowestPriorityWhenFull) {
  PfabricPriorityQueue q(2 * 1500);
  q.enqueue(data_packet(1500, 100), 0);
  q.enqueue(data_packet(1500, 900), 0);
  // Higher-priority (smaller value) arrival: evicts the 900.
  EXPECT_TRUE(q.enqueue(data_packet(1500, 50), 0));
  EXPECT_EQ(q.stats().dropped_packets, 1);
  EXPECT_EQ(q.dequeue(0)->priority, 50);
  EXPECT_EQ(q.dequeue(0)->priority, 100);
  EXPECT_TRUE(q.empty());
}

TEST(PfabricPriorityQueue, DropsArrivalWorseThanResidents) {
  PfabricPriorityQueue q(2 * 1500);
  q.enqueue(data_packet(1500, 100), 0);
  q.enqueue(data_packet(1500, 200), 0);
  EXPECT_FALSE(q.enqueue(data_packet(1500, 900), 0));
  EXPECT_EQ(q.stats().dropped_packets, 1);
  EXPECT_EQ(q.backlog_packets(), 2u);
}

// ------------------------------------------------------------- RandomDrop

TEST(RandomDropQueue, ZeroProbabilityPassesEverything) {
  RandomDropQueue q(std::make_unique<FifoQueue>(100 * 1500), 0.0, 1);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(q.enqueue(data_packet(), 0));
  EXPECT_EQ(q.random_drops(), 0);
}

TEST(RandomDropQueue, CertainDropKillsDataButNotAcks) {
  RandomDropQueue q(std::make_unique<FifoQueue>(100 * 1500), 1.0, 1);
  EXPECT_FALSE(q.enqueue(data_packet(), 0));
  Packet ack;
  ack.type = PacketType::kAck;
  ack.size_bytes = kAckBytes;
  EXPECT_TRUE(q.enqueue(ack, 0));
  EXPECT_EQ(q.random_drops(), 1);
}

TEST(RandomDropQueue, DropRateApproximatesProbability) {
  RandomDropQueue q(std::make_unique<FifoQueue>(100000 * 1500), 0.1, 42);
  int dropped = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (!q.enqueue(data_packet(), 0)) ++dropped;
    q.dequeue(0);
  }
  EXPECT_NEAR(static_cast<double>(dropped) / n, 0.1, 0.01);
}

}  // namespace
}  // namespace mltcp::net
