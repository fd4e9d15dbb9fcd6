#include <gtest/gtest.h>

#include <vector>

#include "dist/net_sim.hpp"
#include "dist/transport_channel.hpp"  // RetryPolicy
#include "fault/fault.hpp"
#include "util/des.hpp"

namespace mw {
namespace {

// Regression for the fractional-microsecond serialization bug: at
// 3 MB/s, 2 bytes serialize in 0.67 µs — truncation billed that (and any
// sub-microsecond message) as free; rounding bills 1 tick.
TEST(LinkModel, TransferTimeRoundsFractionalTicks) {
  LinkModel link;
  link.latency = 0;
  link.per_message_overhead = 0;
  link.bandwidth_bytes_per_sec = 3e6;
  EXPECT_EQ(link.transfer_time(2), 1);  // 0.67 µs → 1, truncation gave 0
  EXPECT_EQ(link.transfer_time(1), 0);  // 0.33 µs rounds down
  EXPECT_EQ(link.transfer_time(3), 1);  // exactly 1 µs
  EXPECT_EQ(link.transfer_time(5), 2);  // 1.67 µs → 2
}

TEST(LinkModel, TransferTimeUnchangedOnWholeTicks) {
  LinkModel link;  // 1 MB/s: 1 byte = 1 µs exactly
  EXPECT_EQ(link.transfer_time(1000),
            link.latency + link.per_message_overhead + 1000);
}

TEST(NetSim, PerfectLinkDeliversEverything) {
  EventQueue q;
  NetSim net(q, LinkModel{});
  int delivered = 0;
  for (int i = 0; i < 10; ++i) net.send(0, 1, 100, [&] { ++delivered; });
  q.run();
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(net.messages_dropped(), 0u);
  EXPECT_EQ(net.messages_duplicated(), 0u);
}

TEST(NetSim, TotalLossDropsEverything) {
  EventQueue q;
  LinkModel link;
  link.loss_probability = 1.0;
  NetSim net(q, link, /*seed=*/3);
  int delivered = 0;
  for (int i = 0; i < 10; ++i) net.send(0, 1, 100, [&] { ++delivered; });
  q.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.messages_dropped(), 10u);
}

TEST(NetSim, CertainDuplicationDeliversTwice) {
  EventQueue q;
  LinkModel link;
  link.duplicate_probability = 1.0;
  NetSim net(q, link, /*seed=*/3);
  int delivered = 0;
  net.send(0, 1, 100, [&] { ++delivered; });
  q.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.messages_duplicated(), 1u);
  EXPECT_EQ(net.messages_delivered(), 2u);
}

TEST(NetSim, JitterBoundedAndLossDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    EventQueue q;
    LinkModel link;
    link.loss_probability = 0.3;
    link.jitter = vt_ms(2);
    NetSim net(q, link, seed);
    std::vector<VTime> deliveries;
    for (int i = 0; i < 50; ++i)
      net.send(0, 1, 100, [&q, &deliveries] { deliveries.push_back(q.now()); });
    q.run();
    return deliveries;
  };
  const std::vector<VTime> a = run(11);
  EXPECT_EQ(a, run(11));
  EXPECT_NE(a, run(12));
  const LinkModel link = [] {
    LinkModel l;
    l.jitter = vt_ms(2);
    return l;
  }();
  for (VTime t : a) {
    EXPECT_GE(t, link.transfer_time(100));
    EXPECT_LE(t, link.transfer_time(100) + link.jitter);
  }
}

TEST(NetSim, FaultPointForcesDropOnPerfectLink) {
  EventQueue q;
  NetSim net(q, LinkModel{});
  FaultInjector inj(1);
  inj.arm("net.send", FaultSpec::once(FaultKind::kDropMessage, 0));
  FaultScope scope(inj);
  int delivered = 0;
  net.send(0, 1, 100, [&] { ++delivered; });  // dropped by the fault point
  net.send(0, 1, 100, [&] { ++delivered; });
  q.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(RetryPolicy, RtoBacksOffExponentiallyWithCap) {
  RetryPolicy p;  // 30 ms initial, x2, 240 ms cap
  EXPECT_EQ(p.rto_for(0), vt_ms(30));
  EXPECT_EQ(p.rto_for(1), vt_ms(60));
  EXPECT_EQ(p.rto_for(2), vt_ms(120));
  EXPECT_EQ(p.rto_for(3), vt_ms(240));
  EXPECT_EQ(p.rto_for(4), vt_ms(240));  // capped
  EXPECT_EQ(p.exhausted_budget(),
            vt_ms(30) + vt_ms(60) + vt_ms(120) + vt_ms(240) + vt_ms(240));
}

}  // namespace
}  // namespace mw
