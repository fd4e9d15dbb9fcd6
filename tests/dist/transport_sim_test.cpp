#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dist/net_sim.hpp"
#include "dist/sim_transport.hpp"
#include "dist/transport_channel.hpp"
#include "fault/fault.hpp"
#include "trace/spec_profile.hpp"
#include "trace/trace.hpp"
#include "util/des.hpp"

namespace mw {
namespace {

Bytes make_payload(std::size_t n, std::uint8_t salt = 0) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(i * 31 + salt);
  return b;
}

/// Records every delivery: the receiver half of most tests here.
class Recorder : public TransportReceiver {
 public:
  void on_message(NodeId from, std::span<const std::uint8_t> payload) override {
    froms.push_back(from);
    payloads.emplace_back(payload.begin(), payload.end());
  }
  std::vector<NodeId> froms;
  std::vector<Bytes> payloads;
};

// --- LinkModel partitions (satellite: symmetric + asymmetric) -------------

TEST(LinkModel, AsymmetricBlockIsOneWay) {
  LinkModel link;
  link.block(1, 2);
  EXPECT_TRUE(link.blocks(1, 2));
  EXPECT_FALSE(link.blocks(2, 1));
  link.unblock(1, 2);
  EXPECT_FALSE(link.blocks(1, 2));
}

TEST(LinkModel, SymmetricPartitionBlocksBothDirections) {
  LinkModel link;
  link.partition(1, 2);
  EXPECT_TRUE(link.blocks(1, 2));
  EXPECT_TRUE(link.blocks(2, 1));
  EXPECT_FALSE(link.blocks(1, 3));
  link.heal(1, 2);
  EXPECT_FALSE(link.blocks(1, 2));
  EXPECT_FALSE(link.blocks(2, 1));
}

TEST(LinkModel, HealAllClearsEveryBlock) {
  LinkModel link;
  link.block(1, 2);
  link.partition(3, 4);
  link.heal_all();
  EXPECT_FALSE(link.blocks(1, 2));
  EXPECT_FALSE(link.blocks(3, 4));
  EXPECT_FALSE(link.blocks(4, 3));
}

TEST(NetSim, PartitionedSendIsSwallowedAndCounted) {
  EventQueue q;
  LinkModel link;
  link.partition(0, 1);
  NetSim net(q, link);
  int delivered = 0;
  net.send(0, 1, 100, [&] { ++delivered; });
  net.send(1, 0, 100, [&] { ++delivered; });
  net.send(0, 2, 100, [&] { ++delivered; });
  q.run();
  EXPECT_EQ(delivered, 1);  // only the unpartitioned pair
  EXPECT_EQ(net.messages_partitioned(), 2u);
  EXPECT_EQ(net.messages_dropped(), 0u);  // partitions are not loss
}

TEST(NetSim, HealingMidRunRestoresDeliveryWithoutPerturbingSchedule) {
  // The partition check runs before every stochastic draw, so healing must
  // not shift the delivery times of messages sent after the heal relative
  // to a run that never partitioned.
  auto deliveries_after = [](bool partition_first) {
    EventQueue q;
    LinkModel link;
    link.jitter = vt_ms(2);
    NetSim net(q, link, /*seed=*/11);
    if (partition_first) {
      net.mutable_link().partition(0, 1);
      net.send(0, 1, 64, [] { FAIL() << "delivered through a partition"; });
      q.run();
      net.mutable_link().heal(0, 1);
    }
    std::vector<VTime> times;
    const VTime base = q.now();
    for (int i = 0; i < 16; ++i)
      net.send(0, 1, 64, [&q, &times, base] { times.push_back(q.now() - base); });
    q.run();
    return times;
  };
  EXPECT_EQ(deliveries_after(false), deliveries_after(true));
}

// --- SimTransport determinism ---------------------------------------------

TEST(SimTransport, DeliveryScheduleMatchesRawNetSimExactly) {
  // The transport must ride NetSim byte-for-byte: same link, same seed,
  // same send sizes => the identical delivery timestamps the pre-transport
  // dist tests pinned down.
  LinkModel link;
  link.loss_probability = 0.3;
  link.duplicate_probability = 0.1;
  link.jitter = vt_ms(2);

  std::vector<VTime> raw;
  {
    EventQueue q;
    NetSim net(q, link, /*seed=*/21);
    for (int i = 0; i < 40; ++i)
      net.send(0, 1, 100, [&q, &raw] { raw.push_back(q.now()); });
    q.run();
  }

  std::vector<VTime> wrapped;
  {
    EventQueue q;
    SimTransport t(q, link, /*seed=*/21);
    class TimeTap : public TransportReceiver {
     public:
      TimeTap(EventQueue& q, std::vector<VTime>& out) : q_(q), out_(out) {}
      void on_message(NodeId, std::span<const std::uint8_t>) override {
        out_.push_back(q_.now());
      }
      EventQueue& q_;
      std::vector<VTime>& out_;
    } tap(q, wrapped);
    t.bind(1, tap);
    const Bytes payload = make_payload(100);
    for (int i = 0; i < 40; ++i) t.send(0, 1, payload);
    t.run();
  }
  EXPECT_EQ(raw, wrapped);
}

TEST(SimTransport, PayloadBytesArriveIntact) {
  EventQueue q;
  SimTransport t(q, LinkModel{});
  Recorder rx;
  t.bind(1, rx);
  const Bytes payload = make_payload(777, 3);
  EXPECT_TRUE(t.send(0, 1, payload));
  t.run();
  ASSERT_EQ(rx.payloads.size(), 1u);
  EXPECT_EQ(rx.payloads[0], payload);
  EXPECT_EQ(rx.froms[0], 0u);
  EXPECT_EQ(t.stats().messages_delivered, 1u);
  EXPECT_EQ(t.stats().bytes_delivered, 777u);
}

TEST(SimTransport, OversizedPayloadIsRejectedNotTruncated) {
  EventQueue q;
  SimTransport t(q, LinkModel{}, /*seed=*/0, /*max_payload=*/64);
  Recorder rx;
  t.bind(1, rx);
  EXPECT_FALSE(t.send(0, 1, make_payload(65)));
  t.run();
  EXPECT_TRUE(rx.payloads.empty());
  EXPECT_EQ(t.stats().send_errors, 1u);
}

TEST(SimTransport, UnboundDestinationCountsUnroutable) {
  EventQueue q;
  SimTransport t(q, LinkModel{});
  EXPECT_TRUE(t.send(0, 9, make_payload(8)));  // best-effort: sent, no home
  t.run();
  EXPECT_EQ(t.stats().messages_unroutable, 1u);
}

TEST(SimTransport, TimersFireInOrderAndCancelledTimersDont) {
  EventQueue q;
  SimTransport t(q, LinkModel{});
  std::vector<int> fired;
  t.schedule(vt_ms(30), [&] { fired.push_back(3); });
  t.schedule(vt_ms(10), [&] { fired.push_back(1); });
  const TimerId doomed = t.schedule(vt_ms(20), [&] { fired.push_back(2); });
  t.cancel(doomed);
  t.cancel(doomed);  // double-cancel must be safe
  t.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(SimTransport, BlockedLinkPartitionsUntilUnblocked) {
  EventQueue q;
  SimTransport t(q, LinkModel{});
  Recorder rx;
  t.bind(1, rx);
  t.set_link_blocked(0, 1, true);
  t.send(0, 1, make_payload(10));
  t.run();
  EXPECT_TRUE(rx.payloads.empty());
  EXPECT_EQ(t.stats().messages_partitioned, 1u);
  t.set_link_blocked(0, 1, false);
  t.send(0, 1, make_payload(10));
  t.run();
  EXPECT_EQ(rx.payloads.size(), 1u);
}

// --- fault points on the sim backend --------------------------------------

TEST(SimTransport, NetDropPointLosesExactlyTheTargetedFrame) {
  EventQueue q;
  SimTransport t(q, LinkModel{});
  Recorder rx;
  t.bind(1, rx);
  FaultInjector inj(1);
  inj.arm("net.drop", FaultSpec::once(FaultKind::kDropMessage, 1));
  FaultScope scope(inj);
  for (int i = 0; i < 3; ++i) t.send(0, 1, make_payload(16));
  t.run();
  EXPECT_EQ(rx.payloads.size(), 2u);
  EXPECT_EQ(t.stats().messages_dropped, 1u);
}

TEST(SimTransport, NetDupPointDeliversTwice) {
  EventQueue q;
  SimTransport t(q, LinkModel{});
  Recorder rx;
  t.bind(1, rx);
  FaultInjector inj(1);
  inj.arm("net.dup", FaultSpec::once(FaultKind::kDuplicateMessage, 0));
  FaultScope scope(inj);
  t.send(0, 1, make_payload(16));
  t.run();
  EXPECT_EQ(rx.payloads.size(), 2u);
  EXPECT_EQ(t.stats().messages_duplicated, 1u);
}

TEST(SimTransport, NetDelayPointDefersDelivery) {
  EventQueue q;
  SimTransport t(q, LinkModel{});
  FaultInjector inj(1);
  inj.arm("net.delay",
          FaultSpec::always(FaultKind::kDelay).delayed(vt_ms(500)));
  FaultScope scope(inj);
  std::vector<VTime> times;
  class TimeTap : public TransportReceiver {
   public:
    TimeTap(EventQueue& q, std::vector<VTime>& out) : q_(q), out_(out) {}
    void on_message(NodeId, std::span<const std::uint8_t>) override {
      out_.push_back(q_.now());
    }
    EventQueue& q_;
    std::vector<VTime>& out_;
  } tap(q, times);
  t.bind(1, tap);
  t.send(0, 1, make_payload(16));
  t.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_GE(times[0], vt_ms(500));
}

TEST(SimTransport, NetPartitionPointSwallowsWithoutStochasticSideEffects) {
  EventQueue q;
  SimTransport t(q, LinkModel{});
  Recorder rx;
  t.bind(1, rx);
  FaultInjector inj(7);
  inj.arm("net.partition", FaultSpec::every_nth(FaultKind::kDropMessage, 2));
  FaultScope scope(inj);
  for (int i = 0; i < 6; ++i) t.send(0, 1, make_payload(16));
  t.run();
  EXPECT_EQ(rx.payloads.size(), 3u);
  EXPECT_EQ(t.stats().messages_partitioned, 3u);
}

// --- TransportChannel on the sim backend ----------------------------------

TEST(TransportChannel, DeliversMultiFragmentPayloadExactlyOnce) {
  EventQueue q;
  SimTransport t(q, LinkModel{}, /*seed=*/0, /*max_payload=*/256);
  TransportChannel a(t, 0);
  TransportChannel b(t, 1);
  const Bytes payload = make_payload(3000, 5);  // ~13 fragments at 256B
  std::vector<Bytes> got;
  b.set_handler([&](NodeId, const Bytes& p) { got.push_back(p); });
  int delivered = 0, failed = 0;
  EXPECT_TRUE(a.send(1, payload, [&] { ++delivered; }, [&] { ++failed; }));
  t.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(a.stats().retransmissions, 0u);
  EXPECT_EQ(a.inflight(), 0u);
}

TEST(TransportChannel, OversizedMessageRejectedUpFront) {
  EventQueue q;
  SimTransport t(q, LinkModel{}, /*seed=*/0, /*max_payload=*/128);
  TransportChannel a(t, 0);
  EXPECT_FALSE(a.send(1, make_payload(a.max_message_bytes() + 1)));
  EXPECT_TRUE(a.send(1, make_payload(a.max_message_bytes())));
}

TEST(TransportChannel, RetransmitsMaskHeavyLossExactlyOnce) {
  EventQueue q;
  LinkModel link;
  link.loss_probability = 0.4;
  SimTransport t(q, link, /*seed=*/13);
  TransportChannel a(t, 0);
  TransportChannel b(t, 1);
  int got = 0;
  b.set_handler([&](NodeId, const Bytes&) { ++got; });
  int delivered = 0, failed = 0;
  for (int i = 0; i < 20; ++i)
    a.send(1, make_payload(600, static_cast<std::uint8_t>(i)),
           [&] { ++delivered; }, [&] { ++failed; });
  t.run();
  // Sender side: every transfer resolves exactly once. Receiver side: no
  // transfer delivers twice. The two may disagree (a delivered transfer
  // whose acks all died reports failed) — that residue is the protocol's
  // documented two-generals limit, so got may exceed `delivered` but
  // never the transfer count.
  EXPECT_EQ(delivered + failed, 20);
  EXPECT_LE(got, 20);
  EXPECT_GE(got, delivered);
  EXPECT_GT(a.stats().retransmissions, 0u);
  EXPECT_GT(a.stats().timeouts, 0u);
  EXPECT_GT(a.stats().backoff_total, 0);
  EXPECT_GT(got, 10);
}

TEST(TransportChannel, TotalLossExhaustsBudgetAndReportsFailure) {
  EventQueue q;
  LinkModel link;
  link.loss_probability = 1.0;
  SimTransport t(q, link, /*seed=*/3);
  RetryPolicy policy;
  TransportChannel a(t, 0, policy);
  int delivered = 0, failed = 0;
  a.send(1, make_payload(64), [&] { ++delivered; }, [&] { ++failed; });
  t.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(a.stats().failures, 1u);
  EXPECT_EQ(a.stats().deadline_failures, 0u);
  EXPECT_EQ(a.stats().timeouts, policy.max_attempts);
  EXPECT_EQ(a.inflight(), 0u);
}

TEST(TransportChannel, DeadlineKillsRequestBeforeRetryBudget) {
  EventQueue q;
  LinkModel link;
  link.loss_probability = 1.0;
  SimTransport t(q, link, /*seed=*/3);
  RetryPolicy policy;
  policy.max_attempts = 50;  // budget would take seconds
  policy.deadline = vt_ms(100);
  TransportChannel a(t, 0, policy);
  int failed = 0;
  a.send(1, make_payload(64), [] {}, [&] { ++failed; });
  t.run();
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(a.stats().deadline_failures, 1u);
  // Died at the first RTO check past the deadline, not after 50 attempts.
  EXPECT_LT(a.stats().timeouts, 10u);
}

TEST(TransportChannel, DuplicateFragmentsAreSuppressedNotRedelivered) {
  EventQueue q;
  LinkModel link;
  link.duplicate_probability = 1.0;  // every frame arrives twice
  SimTransport t(q, link, /*seed=*/4);
  TransportChannel a(t, 0);
  TransportChannel b(t, 1);
  int got = 0;
  b.set_handler([&](NodeId, const Bytes&) { ++got; });
  a.send(1, make_payload(100));
  t.run();
  EXPECT_EQ(got, 1);
  EXPECT_GT(b.stats().duplicates_suppressed, 0u);
}

TEST(TransportChannel, ForgedTotalIsDroppedUnackedAndKeepsNoState) {
  EventQueue q;
  SimTransport t(q, LinkModel{});
  TransportChannel a(t, 0);
  TransportChannel b(t, 1);
  std::vector<Bytes> got;
  b.set_handler([&](NodeId, const Bytes& p) { got.push_back(p); });

  // Fragment 0 of 2 claiming a 4 GiB message, on the transfer id the
  // genuine sender will use next: it must neither be acked nor leave an
  // inbound entry that shadows the real transfer.
  ByteWriter w;
  w.put_u8(TransportChannel::kTagData);
  w.put_u64(1);
  w.put_u32(0);
  w.put_u32(2);
  w.put_u32(0xFFFFFFFFu);
  w.put_bytes(make_payload(16));
  const Bytes forged = w.take();
  b.on_message(0, std::span<const std::uint8_t>(forged.data(), forged.size()));
  t.run();
  EXPECT_EQ(b.stats().acks_sent, 0u);
  EXPECT_TRUE(got.empty());

  const Bytes payload = make_payload(200, 9);
  int delivered = 0;
  ASSERT_TRUE(a.send(1, payload, [&] { ++delivered; }));
  t.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);
  EXPECT_EQ(delivered, 1);
}

TEST(TransportChannel, HeartbeatsKeepPeersAliveAndSilenceKillsThem) {
  EventQueue q;
  SimTransport t(q, LinkModel{});
  PeerHealthConfig health;  // suspect at 100ms, dead at 300ms
  TransportChannel a(t, 0, RetryPolicy{}, health);
  TransportChannel b(t, 1, RetryPolicy{}, health);
  std::vector<std::pair<NodeId, PeerState>> seen;
  a.watch_peer(1);
  a.enable_heartbeats(
      [&](NodeId p, PeerState s) { seen.emplace_back(p, s); });
  b.watch_peer(0);
  b.enable_heartbeats();
  t.run_until(vt_ms(400));
  EXPECT_TRUE(seen.empty());  // mutual beats: nobody degraded

  // Partition b away: silence accumulates and the state ladder descends.
  t.set_link_blocked(1, 0, true);
  t.run_until(vt_ms(900));
  ASSERT_GE(seen.size(), 2u);
  EXPECT_EQ(seen[0].second, PeerState::kSuspect);
  EXPECT_EQ(seen[1].second, PeerState::kDead);
  EXPECT_EQ(seen[0].first, 1u);

  // Heal: the next beat resurrects the peer.
  t.set_link_blocked(1, 0, false);
  t.run_until(vt_ms(1300));
  ASSERT_GE(seen.size(), 3u);
  EXPECT_EQ(seen.back().second, PeerState::kAlive);
}

TEST(PeerHealth, UnwatchedPeerReportsDead) {
  PeerHealth h;
  EXPECT_EQ(h.state(42, vt_ms(0)), PeerState::kDead);
  h.watch(42, vt_ms(0));
  EXPECT_EQ(h.state(42, vt_ms(0)), PeerState::kAlive);
  h.forget(42);
  EXPECT_EQ(h.state(42, vt_ms(0)), PeerState::kDead);
}

TEST(PeerHealth, LadderDescendsWithSilence) {
  PeerHealthConfig cfg;
  PeerHealth h(cfg);
  h.watch(7, 0);
  EXPECT_EQ(h.state(7, cfg.suspect_after - 1), PeerState::kAlive);
  EXPECT_EQ(h.state(7, cfg.suspect_after), PeerState::kSuspect);
  EXPECT_EQ(h.state(7, cfg.dead_after), PeerState::kDead);
  h.heard_from(7, cfg.dead_after);  // resurrection
  EXPECT_EQ(h.state(7, cfg.dead_after), PeerState::kAlive);
}

// --- trace / SpecProfile plumbing (satellite 1) ---------------------------

TEST(TransportTrace, RetryCountersSurfaceInSpecProfile) {
#if defined(MW_TRACE_DISABLED)
  GTEST_SKIP() << "tracing compiled out (MW_TRACE=OFF)";
#endif
  trace::reset();
  trace::Scope scope;
  EventQueue q;
  LinkModel link;
  link.loss_probability = 1.0;
  SimTransport t(q, link, /*seed=*/3);
  TransportChannel a(t, 0);
  a.send(1, make_payload(64));
  t.run();
  const trace::SpecProfile p = trace::build_spec_profile(trace::drain());
  using K = trace::EventKind;
  EXPECT_GT(p.count(K::kNetSend), 0u);
  EXPECT_GT(p.sum_a(K::kNetSend), 0u);  // bytes sent
  EXPECT_EQ(p.count(K::kNetRetransmit), a.policy().max_attempts - 1);
  EXPECT_EQ(p.count(K::kNetTimeout), 1u);
  EXPECT_GT(p.sum_b(K::kNetRetransmit), 0u);  // RTO ticks paid
  const std::string s = p.to_string();
  EXPECT_NE(s.find("net:"), std::string::npos);
  EXPECT_NE(s.find("retransmit"), std::string::npos);
}

TEST(TransportTrace, PeerDeathEventsSurfaceInSpecProfile) {
#if defined(MW_TRACE_DISABLED)
  GTEST_SKIP() << "tracing compiled out (MW_TRACE=OFF)";
#endif
  trace::reset();
  trace::Scope scope;
  EventQueue q;
  SimTransport t(q, LinkModel{});
  TransportChannel a(t, 0);
  a.watch_peer(1);  // never speaks: suspect then dead
  a.enable_heartbeats();
  t.run_until(vt_ms(500));
  const trace::SpecProfile p = trace::build_spec_profile(trace::drain());
  EXPECT_EQ(p.count(trace::EventKind::kNetPeerSuspect), 1u);
  EXPECT_EQ(p.count(trace::EventKind::kNetPeerDead), 1u);
}

}  // namespace
}  // namespace mw
