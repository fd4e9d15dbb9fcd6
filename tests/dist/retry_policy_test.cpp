#include <gtest/gtest.h>

#include <vector>

#include "dist/sim_transport.hpp"
#include "dist/transport_channel.hpp"
#include "util/des.hpp"
#include "util/rng.hpp"

namespace mw {
namespace {

/// Sends one 100-byte (single-fragment) payload from node 0 to an unbound
/// node 1 and runs the transport dry; returns how often on_failed fired.
int send_one(SimTransport& t, TransportChannel& ch) {
  int failed = 0;
  ch.send(1, Bytes(100), [] {}, [&] { ++failed; });
  t.run();
  return failed;
}

// --- retry-budget exhaustion ---------------------------------------------

TEST(RetryPolicy, SingleAttemptBudgetNeverRetries) {
  EventQueue q;
  LinkModel link;
  link.loss_probability = 1.0;
  SimTransport t(q, link, /*seed=*/2);
  RetryPolicy policy;
  policy.max_attempts = 1;
  TransportChannel ch(t, 0, policy);
  EXPECT_EQ(send_one(t, ch), 1);
  EXPECT_EQ(ch.stats().retransmissions, 0u);
  EXPECT_EQ(ch.stats().timeouts, 1u);  // the one RTO that killed it
  EXPECT_EQ(ch.stats().backoff_total, policy.rto_for(0));
}

TEST(RetryPolicy, ExhaustionAccountsEveryRtoInBackoffTotal) {
  EventQueue q;
  LinkModel link;
  link.loss_probability = 1.0;
  SimTransport t(q, link, /*seed=*/2);
  RetryPolicy policy;  // 5 attempts
  TransportChannel ch(t, 0, policy);
  EXPECT_EQ(send_one(t, ch), 1);
  EXPECT_EQ(ch.stats().timeouts, policy.max_attempts);
  EXPECT_EQ(ch.stats().backoff_total, policy.exhausted_budget());
  EXPECT_EQ(ch.stats().deadline_failures, 0u);
}

// --- backoff cap saturation ----------------------------------------------

TEST(RetryPolicy, CapSaturatesForAllLaterAttempts) {
  RetryPolicy p;
  p.rto_initial = vt_ms(10);
  p.backoff = 3.0;
  p.rto_cap = vt_ms(50);
  p.max_attempts = 20;
  EXPECT_EQ(p.rto_for(0), vt_ms(10));
  EXPECT_EQ(p.rto_for(1), vt_ms(30));
  for (std::size_t k = 2; k < p.max_attempts; ++k)
    EXPECT_EQ(p.rto_for(k), vt_ms(50)) << "attempt " << k;
  EXPECT_EQ(p.exhausted_budget(), vt_ms(10) + vt_ms(30) + 18 * vt_ms(50));
}

TEST(RetryPolicy, HugeAttemptIndexDoesNotOverflow) {
  RetryPolicy p;  // backoff^1000 overflows any integer; the cap must win
  EXPECT_EQ(p.rto_for(1000), p.rto_cap);
}

TEST(RetryPolicy, CapBelowInitialClampsEveryAttempt) {
  RetryPolicy p;
  p.rto_initial = vt_ms(100);
  p.rto_cap = vt_ms(40);
  EXPECT_EQ(p.rto_for(0), vt_ms(40));
  EXPECT_EQ(p.rto_for(7), vt_ms(40));
}

// --- zero-timeout requests -----------------------------------------------

TEST(RetryPolicy, ZeroRtoStillTerminatesAtAttemptBudget) {
  // A zero RTO means "retry immediately": the budget, not the clock, must
  // bound the work — the sender may never spin forever.
  EventQueue q;
  LinkModel link;
  link.loss_probability = 1.0;
  link.latency = 0;
  link.per_message_overhead = 0;
  SimTransport t(q, link, /*seed=*/5);
  RetryPolicy policy;
  policy.rto_initial = 0;
  policy.rto_cap = 0;
  TransportChannel ch(t, 0, policy);
  EXPECT_EQ(send_one(t, ch), 1);
  EXPECT_EQ(ch.stats().retransmissions, policy.max_attempts - 1);
  EXPECT_EQ(ch.stats().backoff_total, 0);
}

// --- jitter determinism under a fixed seed -------------------------------

TEST(RetryPolicy, JitterIsDeterministicPerSeed) {
  RetryPolicy p;
  p.jitter = 0.5;
  auto draw = [&](std::uint64_t seed) {
    Rng rng(seed);
    std::vector<VDuration> rtos;
    for (std::size_t k = 0; k < 8; ++k) rtos.push_back(p.rto_jittered(k, rng));
    return rtos;
  };
  EXPECT_EQ(draw(7), draw(7));
  EXPECT_NE(draw(7), draw(8));
}

TEST(RetryPolicy, JitterScalesWithinItsBand) {
  RetryPolicy p;
  p.jitter = 0.5;
  Rng rng(3);
  for (std::size_t k = 0; k < 64; ++k) {
    const VDuration base = p.rto_for(k % 6);
    const VDuration j = p.rto_jittered(k % 6, rng);
    EXPECT_GE(j, base);
    // The jittered RTO is deliberately NOT re-capped: the band rides on
    // top of the capped base schedule.
    EXPECT_LE(j, static_cast<VDuration>(base * (1.0 + p.jitter)) + 1);
  }
}

TEST(RetryPolicy, ZeroJitterStillConsumesOneDraw) {
  // Toggling jitter must never shift the rest of a caller's seeded stream:
  // the draw happens either way.
  RetryPolicy plain;
  RetryPolicy jittered;
  jittered.jitter = 0.25;
  Rng a(9), b(9);
  EXPECT_EQ(plain.rto_jittered(2, a), plain.rto_for(2));
  (void)jittered.rto_jittered(2, b);
  EXPECT_EQ(a.next_u64(), b.next_u64());  // streams still in lockstep
}

// --- deadlines ------------------------------------------------------------

TEST(RetryPolicy, DeadlineZeroMeansRetryBudgetAlone) {
  RetryPolicy p;
  EXPECT_EQ(p.deadline, 0);  // the default: no deadline discipline
}

}  // namespace
}  // namespace mw
