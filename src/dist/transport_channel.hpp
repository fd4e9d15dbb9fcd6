// TransportChannel: exactly-once(ish) payload delivery over any Transport
// backend — a positive-ack / retransmit protocol with capped exponential
// backoff, seeded RTO jitter and per-request deadlines, written once on
// the Transport seam so the identical channel code runs on the
// deterministic simulator and on real UDP sockets.
//
// Protocol (all little-endian, riding inside one transport frame):
//
//   kData  u8=0x81 | xfer u64 | frag u32 | count u32 | total u32 | bytes...
//   kAck   u8=0x82 | xfer u64 | bitmap u64     (frags the receiver holds)
//   kBeat  u8=0x83                              (heartbeat, no body)
//
// The tags sit above the service protocol's 1-5 (src/service/service.hpp),
// so one receiver can share a binding between channel frames and raw
// service datagrams and tell them apart by the first byte alone.
//
// A logical message is split into at most 64 fragments (one ack-bitmap
// word); each RTO expiry retransmits only the fragments the last ack said
// were missing. The receiver reassembles, delivers exactly once, and keeps
// a completed-transfer set per sender so duplicate fragments re-ack but
// never redeliver. A data frame whose `total` exceeds max_message_bytes()
// is dropped unacked. Deadlines, capped exponential backoff, and seeded
// RTO jitter all come from RetryPolicy; the counters land in Stats and
// mirror into the trace stream, so mw_trace/SpecProfile read both
// backends with one vocabulary.
//
// Heartbeats: enable_heartbeats() makes the channel beat every watched
// peer on PeerHealthConfig::heartbeat_interval and run the PeerHealth
// check; a peer that crosses dead_after silence fires on_peer_dead —
// the failover trigger. Any frame (data, ack, beat) counts as life.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "dist/transport.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mw {

struct RetryPolicy {
  std::size_t max_attempts = 5;
  VDuration rto_initial = vt_ms(30);
  double backoff = 2.0;       // RTO multiplier per retry
  VDuration rto_cap = vt_ms(240);
  /// Jitter fraction: each attempt's effective RTO is scaled by a factor
  /// drawn uniformly from [1, 1 + jitter) out of the caller's seeded
  /// stream, decorrelating retry storms across peers. 0 = no jitter. The
  /// jittered RTO is NOT re-capped: the cap bounds the base schedule,
  /// jitter rides on top of it.
  double jitter = 0.0;
  /// Per-request deadline: a request still unresolved this long after it
  /// was issued fails at its next timer check even if retry attempts
  /// remain. 0 = no deadline (the retry budget alone bounds the wait).
  VDuration deadline = 0;

  /// RTO for attempt k (0-based): min(cap, initial * backoff^k).
  VDuration rto_for(std::size_t attempt) const;
  /// rto_for(attempt) scaled by a seeded jitter draw (one draw per call,
  /// even when jitter == 0, so arming jitter never shifts the rest of the
  /// caller's stream).
  VDuration rto_jittered(std::size_t attempt, Rng& rng) const;
  /// Worst-case sender-side wait: the sum of every attempt's base RTO.
  VDuration exhausted_budget() const;
};

class TransportChannel : public TransportReceiver {
 public:
  struct Stats {
    std::uint64_t sends = 0;            // logical transfers initiated
    std::uint64_t retransmissions = 0;  // extra data-frame attempts
    std::uint64_t acks_sent = 0;
    std::uint64_t failures = 0;         // transfers whose retries exhausted
    std::uint64_t duplicates_suppressed = 0;  // receiver-side dedup hits
    /// Retry-discipline health: every RTO expiry that found the transfer
    /// unacked, the backoff actually paid waiting through those expiries,
    /// and requests killed by their deadline rather than by attempt
    /// exhaustion.
    std::uint64_t timeouts = 0;          // RTO expiries on unacked transfers
    VDuration backoff_total = 0;         // summed RTO ticks those cost
    std::uint64_t deadline_failures = 0; // subset of failures: deadline hit
    std::uint64_t frames_sent = 0;       // raw frames (data + ack + beat)
    std::uint64_t heartbeats_sent = 0;
  };
  static constexpr std::uint8_t kTagData = 0x81;
  static constexpr std::uint8_t kTagAck = 0x82;
  static constexpr std::uint8_t kTagBeat = 0x83;
  /// True when `payload` starts with one of the channel's frame tags.
  static bool is_channel_frame(std::span<const std::uint8_t> payload) {
    return !payload.empty() && payload[0] >= kTagData &&
           payload[0] <= kTagBeat;
  }

  using Handler = std::function<void(NodeId from, const Bytes& payload)>;
  using PeerCallback = std::function<void(NodeId peer, PeerState state)>;

  /// Binds itself to `self` on `transport`. `seed` feeds the RTO-jitter
  /// stream (split per channel so two nodes' jitters decorrelate).
  TransportChannel(Transport& transport, NodeId self, RetryPolicy policy = {},
                   PeerHealthConfig health = {}, std::uint64_t seed = 0);
  ~TransportChannel() override;

  TransportChannel(const TransportChannel&) = delete;
  TransportChannel& operator=(const TransportChannel&) = delete;

  NodeId self() const { return self_; }
  Transport& transport() { return transport_; }

  /// Delivered exactly once per completed inbound transfer, in completion
  /// order. Payload reference is valid only during the call.
  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Reliable send of an arbitrary payload (fragmented up to 64 frames).
  /// `on_delivered` fires when every fragment is acked; `on_failed` when
  /// the retry budget or the policy deadline is exhausted first — the
  /// two-generals residue applies: a failed send may still have been
  /// delivered (the acks died). Returns false only if the payload exceeds
  /// max_message_bytes() or the channel is closed.
  bool send(NodeId to, Bytes payload, std::function<void()> on_delivered = {},
            std::function<void()> on_failed = {});

  /// Largest payload send() accepts: 64 fragments of (frame - header).
  std::size_t max_message_bytes() const;

  /// Starts watching `peer` and (if heartbeats are enabled) beating it.
  void watch_peer(NodeId peer);
  void forget_peer(NodeId peer);
  /// Arms the periodic beat + health check; `on_transition` fires on every
  /// state change (suspect, dead, recovered). Idempotent.
  void enable_heartbeats(PeerCallback on_transition = {});

  PeerHealth& health() { return health_; }
  const Stats& stats() const { return stats_; }
  const RetryPolicy& policy() const { return policy_; }
  /// Transfers still awaiting their final ack.
  std::size_t inflight() const { return outbound_.size(); }

  /// Cancels every timer and unbinds from the transport. Pending sends
  /// neither succeed nor fail after this. Idempotent.
  void close();

  void on_message(NodeId from, std::span<const std::uint8_t> payload) override;

 private:
  struct Outbound {
    NodeId to = 0;
    std::uint64_t xfer = 0;
    std::vector<Bytes> frames;   // pre-encoded kData frames, one per frag
    std::uint64_t acked = 0;     // bitmap
    std::uint64_t want = 0;      // bitmap of all fragments
    std::size_t attempt = 0;     // 0-based; attempt 0 is the initial send
    VTime issued_at = 0;
    TimerId rto_timer = kNoTimer;
    std::function<void()> on_delivered;
    std::function<void()> on_failed;
  };

  struct Inbound {
    std::uint32_t count = 0;
    std::uint32_t total = 0;
    std::uint64_t have = 0;  // bitmap
    std::vector<Bytes> frags;
  };

  void transmit_missing(Outbound& t);
  void arm_rto(std::uint64_t xfer);
  void on_rto(std::uint64_t xfer);
  void fail_transfer(std::uint64_t xfer, bool deadline_hit);
  void send_ack(NodeId to, std::uint64_t xfer, std::uint64_t bitmap);
  void handle_data(NodeId from, ByteReader& r);
  void handle_ack(NodeId from, ByteReader& r);
  void heartbeat_tick();

  Transport& transport_;
  NodeId self_;
  RetryPolicy policy_;
  PeerHealth health_;
  Rng rng_;
  Handler handler_;
  PeerCallback on_transition_;
  bool closed_ = false;
  bool beating_ = false;
  TimerId beat_timer_ = kNoTimer;

  std::uint64_t next_xfer_ = 1;
  std::map<std::uint64_t, Outbound> outbound_;
  std::map<std::pair<NodeId, std::uint64_t>, Inbound> inbound_;
  std::map<NodeId, std::set<std::uint64_t>> completed_;  // dedup memory
  Stats stats_;
};

}  // namespace mw
