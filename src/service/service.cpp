#include "service/service.hpp"

#include <map>

namespace mw {

namespace {

// Knuth's MMIX multiplier, as in transport_race: every step changes every
// bit, so a lost or doubled execution cannot produce the right value by
// accident.
constexpr std::uint64_t kStepMultiplier = 6364136223846793005ull;

}  // namespace

const char* to_string(SvcStatus s) {
  switch (s) {
    case SvcStatus::kOk: return "ok";
    case SvcStatus::kShed: return "shed";
    case SvcStatus::kStale: return "stale";
    case SvcStatus::kFailed: return "failed";
  }
  return "?";
}

std::uint64_t service_reference(std::uint64_t payload, std::uint64_t work) {
  std::uint64_t acc = payload;
  for (std::uint64_t s = 0; s < work; ++s) acc = acc * kStepMultiplier + s;
  return acc;
}

Bytes encode_request(const SvcRequest& r) {
  ByteWriter w;
  w.put_u8(kSvcTagRequest);
  w.put_u64(r.client);
  w.put_u64(r.seq);
  w.put_u64(static_cast<std::uint64_t>(r.deadline));
  w.put_u64(r.work);
  w.put_u64(r.payload);
  return w.take();
}

Bytes encode_response(const SvcResponse& r) {
  ByteWriter w;
  w.put_u8(kSvcTagResponse);
  w.put_u64(r.client);
  w.put_u64(r.seq);
  w.put_u8(static_cast<std::uint8_t>(r.status));
  w.put_u64(r.value);
  w.put_u8(r.flags);
  return w.take();
}

Bytes encode_exec(const SvcExec& e) {
  ByteWriter w;
  w.put_u8(kSvcTagExec);
  w.put_u64(e.ticket);
  w.put_u64(e.work);
  w.put_u64(e.payload);
  w.put_u64(static_cast<std::uint64_t>(e.budget));
  return w.take();
}

Bytes encode_exec_done(const SvcExecDone& d) {
  ByteWriter w;
  w.put_u8(kSvcTagExecDone);
  w.put_u64(d.ticket);
  w.put_u64(d.value);
  return w.take();
}

Bytes encode_beat() {
  ByteWriter w;
  w.put_u8(kSvcTagBeat);
  return w.take();
}

std::uint8_t svc_message_tag(std::span<const std::uint8_t> payload) {
  return payload.empty() ? 0 : payload[0];
}

std::optional<SvcRequest> decode_request(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  if (r.get_u8() != kSvcTagRequest) return std::nullopt;
  SvcRequest out;
  out.client = r.get_u64();
  out.seq = r.get_u64();
  out.deadline = static_cast<VDuration>(r.get_u64());
  out.work = r.get_u64();
  out.payload = r.get_u64();
  if (!r.ok()) return std::nullopt;
  return out;
}

std::optional<SvcResponse> decode_response(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  if (r.get_u8() != kSvcTagResponse) return std::nullopt;
  SvcResponse out;
  out.client = r.get_u64();
  out.seq = r.get_u64();
  const std::uint8_t status = r.get_u8();
  out.value = r.get_u64();
  out.flags = r.get_u8();
  if (!r.ok() || status > static_cast<std::uint8_t>(SvcStatus::kFailed))
    return std::nullopt;
  out.status = static_cast<SvcStatus>(status);
  return out;
}

std::optional<SvcExec> decode_exec(std::span<const std::uint8_t> p) {
  ByteReader r(p);
  if (r.get_u8() != kSvcTagExec) return std::nullopt;
  SvcExec out;
  out.ticket = r.get_u64();
  out.work = r.get_u64();
  out.payload = r.get_u64();
  out.budget = static_cast<VDuration>(r.get_u64());
  if (!r.ok()) return std::nullopt;
  return out;
}

std::optional<SvcExecDone> decode_exec_done(
    std::span<const std::uint8_t> p) {
  ByteReader r(p);
  if (r.get_u8() != kSvcTagExecDone) return std::nullopt;
  SvcExecDone out;
  out.ticket = r.get_u64();
  out.value = r.get_u64();
  if (!r.ok()) return std::nullopt;
  return out;
}

std::size_t EffectLog::duplicates() const {
  std::map<std::pair<NodeId, std::uint64_t>, std::size_t> seen;
  std::size_t dups = 0;
  for (const Effect& e : entries_)
    if (++seen[{e.client, e.seq}] > 1) ++dups;
  return dups;
}

}  // namespace mw
