#include "dist/transport_channel.hpp"

#include <algorithm>
#include <cmath>

#include "trace/trace.hpp"
#include "util/check.hpp"

namespace mw {

namespace {

// type + xfer + frag + count + total
constexpr std::size_t kDataHeader = 1 + 8 + 4 + 4 + 4;
constexpr std::size_t kMaxFragments = 64;  // one ack-bitmap word

}  // namespace

VDuration RetryPolicy::rto_for(std::size_t attempt) const {
  double rto = static_cast<double>(rto_initial) *
               std::pow(backoff, static_cast<double>(attempt));
  rto = std::min(rto, static_cast<double>(rto_cap));
  return static_cast<VDuration>(std::llround(rto));
}

VDuration RetryPolicy::rto_jittered(std::size_t attempt, Rng& rng) const {
  // Always draw: a policy toggling jitter on must not shift the caller's
  // stream for every draw after this one.
  const double scale = 1.0 + rng.next_double() * std::max(jitter, 0.0);
  return static_cast<VDuration>(
      std::llround(static_cast<double>(rto_for(attempt)) * scale));
}

VDuration RetryPolicy::exhausted_budget() const {
  VDuration total = 0;
  for (std::size_t k = 0; k < max_attempts; ++k) total += rto_for(k);
  return total;
}

TransportChannel::TransportChannel(Transport& transport, NodeId self,
                                   RetryPolicy policy,
                                   PeerHealthConfig health, std::uint64_t seed)
    : transport_(transport),
      self_(self),
      policy_(policy),
      health_(health),
      rng_(Rng(seed).split(self)) {
  transport_.bind(self_, *this);
}

TransportChannel::~TransportChannel() { close(); }

void TransportChannel::close() {
  if (closed_) return;
  closed_ = true;
  for (auto& [xfer, t] : outbound_) {
    if (t.rto_timer != kNoTimer) transport_.cancel(t.rto_timer);
  }
  outbound_.clear();
  if (beat_timer_ != kNoTimer) transport_.cancel(beat_timer_);
  beat_timer_ = kNoTimer;
  transport_.unbind(self_);
}

std::size_t TransportChannel::max_message_bytes() const {
  return kMaxFragments * (transport_.max_payload() - kDataHeader);
}

bool TransportChannel::send(NodeId to, Bytes payload,
                            std::function<void()> on_delivered,
                            std::function<void()> on_failed) {
  if (closed_ || payload.size() > max_message_bytes()) return false;

  const std::size_t frag_bytes = transport_.max_payload() - kDataHeader;
  const std::uint32_t count = static_cast<std::uint32_t>(
      payload.empty() ? 1 : (payload.size() + frag_bytes - 1) / frag_bytes);

  Outbound t;
  t.to = to;
  t.xfer = next_xfer_++;
  t.issued_at = transport_.now();
  t.on_delivered = std::move(on_delivered);
  t.on_failed = std::move(on_failed);
  t.want = count == kMaxFragments ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << count) - 1;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * frag_bytes;
    const std::size_t n = std::min(frag_bytes, payload.size() - off);
    ByteWriter w;
    w.put_u8(kTagData);
    w.put_u64(t.xfer);
    w.put_u32(i);
    w.put_u32(count);
    w.put_u32(static_cast<std::uint32_t>(payload.size()));
    w.put_bytes(std::span<const std::uint8_t>(payload.data() + off, n));
    t.frames.push_back(w.take());
  }

  ++stats_.sends;
  const std::uint64_t xfer = t.xfer;
  auto [it, fresh] = outbound_.emplace(xfer, std::move(t));
  MW_CHECK(fresh);
  transmit_missing(it->second);
  arm_rto(xfer);
  return true;
}

void TransportChannel::transmit_missing(Outbound& t) {
  for (std::size_t i = 0; i < t.frames.size(); ++i) {
    if (t.acked & (std::uint64_t{1} << i)) continue;
    ++stats_.frames_sent;
    if (t.attempt > 0) ++stats_.retransmissions;
    transport_.send(self_, t.to,
                    std::span<const std::uint8_t>(t.frames[i].data(),
                                                  t.frames[i].size()));
  }
}

void TransportChannel::arm_rto(std::uint64_t xfer) {
  auto it = outbound_.find(xfer);
  if (it == outbound_.end()) return;
  const VDuration rto = policy_.rto_jittered(it->second.attempt, rng_);
  it->second.rto_timer =
      transport_.schedule(rto, [this, xfer] { on_rto(xfer); });
}

void TransportChannel::on_rto(std::uint64_t xfer) {
  auto it = outbound_.find(xfer);
  if (it == outbound_.end()) return;
  Outbound& t = it->second;
  t.rto_timer = kNoTimer;

  // The expiry itself is a timeout event regardless of what happens next,
  // and the RTO just waited through is backoff actually paid.
  ++stats_.timeouts;
  stats_.backoff_total += policy_.rto_for(t.attempt);

  if (policy_.deadline > 0 &&
      transport_.now() - t.issued_at >= policy_.deadline) {
    fail_transfer(xfer, /*deadline_hit=*/true);
    return;
  }
  if (t.attempt + 1 >= policy_.max_attempts) {
    fail_transfer(xfer, /*deadline_hit=*/false);
    return;
  }
  ++t.attempt;
  MW_TRACE_EVENT(trace::EventKind::kNetRetransmit, kNoPid, kNoPid, t.attempt,
                 static_cast<std::uint64_t>(policy_.rto_for(t.attempt)),
                 transport_.now());
  transmit_missing(t);
  arm_rto(xfer);
}

void TransportChannel::fail_transfer(std::uint64_t xfer, bool deadline_hit) {
  auto it = outbound_.find(xfer);
  if (it == outbound_.end()) return;
  ++stats_.failures;
  if (deadline_hit) ++stats_.deadline_failures;
  MW_TRACE_EVENT(trace::EventKind::kNetTimeout, kNoPid, kNoPid,
                 it->second.attempt + 1, deadline_hit ? 1 : 0,
                 transport_.now());
  auto on_failed = std::move(it->second.on_failed);
  outbound_.erase(it);
  if (on_failed) on_failed();
}

void TransportChannel::send_ack(NodeId to, std::uint64_t xfer,
                                std::uint64_t bitmap) {
  ByteWriter w;
  w.put_u8(kTagAck);
  w.put_u64(xfer);
  w.put_u64(bitmap);
  ++stats_.acks_sent;
  ++stats_.frames_sent;
  const Bytes frame = w.take();
  transport_.send(self_, to,
                  std::span<const std::uint8_t>(frame.data(), frame.size()));
}

void TransportChannel::handle_data(NodeId from, ByteReader& r) {
  const std::uint64_t xfer = r.get_u64();
  const std::uint32_t frag = r.get_u32();
  const std::uint32_t count = r.get_u32();
  const std::uint32_t total = r.get_u32();
  if (!r.ok() || count == 0 || count > kMaxFragments || frag >= count) return;
  // A length no sender could produce is forged: drop it unacked, before it
  // can claim an inbound entry or size an allocation.
  if (total > max_message_bytes()) return;

  auto done = completed_.find(from);
  if (done != completed_.end() && done->second.count(xfer)) {
    // Already delivered: the ack must have died. Re-ack, never redeliver.
    ++stats_.duplicates_suppressed;
    send_ack(from, xfer,
             count == kMaxFragments ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << count) - 1);
    return;
  }

  auto [it, fresh] = inbound_.try_emplace({from, xfer});
  Inbound& in = it->second;
  if (fresh) {
    in.count = count;
    in.total = total;
    in.frags.resize(count);
  } else if (in.count != count || in.total != total) {
    return;  // inconsistent with the transfer's first fragment: forged
  }
  const std::uint64_t bit = std::uint64_t{1} << frag;
  if (!(in.have & bit)) {
    in.have |= bit;
    in.frags[frag] = Bytes(r.get_blob(r.remaining()));
  } else {
    ++stats_.duplicates_suppressed;
  }
  send_ack(from, xfer, in.have);

  const std::uint64_t want = count == kMaxFragments
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << count) - 1;
  if (in.have != want) return;

  std::size_t received = 0;
  for (const auto& f : in.frags) received += f.size();
  Bytes payload;
  payload.reserve(received);
  for (auto& f : in.frags) payload.insert(payload.end(), f.begin(), f.end());
  inbound_.erase(it);
  completed_[from].insert(xfer);
  if (received != total) return;  // length forged across fragments
  if (handler_) handler_(from, payload);
}

void TransportChannel::handle_ack(NodeId from, ByteReader& r) {
  const std::uint64_t xfer = r.get_u64();
  const std::uint64_t bitmap = r.get_u64();
  if (!r.ok()) return;
  auto it = outbound_.find(xfer);
  if (it == outbound_.end() || it->second.to != from) return;
  Outbound& t = it->second;
  t.acked |= bitmap & t.want;
  if (t.acked != t.want) return;
  if (t.rto_timer != kNoTimer) transport_.cancel(t.rto_timer);
  auto on_delivered = std::move(t.on_delivered);
  outbound_.erase(it);
  if (on_delivered) on_delivered();
}

void TransportChannel::on_message(NodeId from,
                                  std::span<const std::uint8_t> payload) {
  if (closed_) return;
  health_.heard_from(from, transport_.now());
  ByteReader r(payload);
  switch (r.get_u8()) {
    case kTagData:
      handle_data(from, r);
      break;
    case kTagAck:
      handle_ack(from, r);
      break;
    case kTagBeat:
      break;  // heard_from above is the entire effect
    default:
      break;  // unknown type: tolerate (forward compatibility)
  }
}

void TransportChannel::watch_peer(NodeId peer) {
  health_.watch(peer, transport_.now());
}

void TransportChannel::forget_peer(NodeId peer) { health_.forget(peer); }

void TransportChannel::enable_heartbeats(PeerCallback on_transition) {
  if (on_transition) on_transition_ = std::move(on_transition);
  if (beating_ || closed_) return;
  beating_ = true;
  beat_timer_ = transport_.schedule(health_.config().heartbeat_interval,
                                    [this] { heartbeat_tick(); });
}

void TransportChannel::heartbeat_tick() {
  if (closed_) return;
  ByteWriter w;
  w.put_u8(kTagBeat);
  const Bytes beat = w.take();
  for (NodeId peer : health_.watched()) {
    // Beating a dead peer is deliberate: if a partition heals, the beat's
    // arrival resurrects us on *their* side and their reply on ours.
    ++stats_.heartbeats_sent;
    ++stats_.frames_sent;
    transport_.send(self_, peer,
                    std::span<const std::uint8_t>(beat.data(), beat.size()));
  }
  for (const auto& tr : health_.check(transport_.now())) {
    if (on_transition_) on_transition_(tr.peer, tr.state);
  }
  beat_timer_ = transport_.schedule(health_.config().heartbeat_interval,
                                    [this] { heartbeat_tick(); });
}

}  // namespace mw
