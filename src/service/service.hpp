// The hedged-speculation service (ROADMAP's "millions of users" item): a
// request/response protocol on the Transport seam, built to survive the
// things production traffic does to a hedging server — duplicate requests,
// overload, slow and dead backends, partitions, and the server itself
// crashing mid-stream. The same code runs on SimTransport (deterministic
// fault matrices) and SocketTransport (real processes, real SIGKILLs).
//
// Message protocol (raw transport datagrams — deliberately *not* riding
// TransportChannel: the reliable channel's duplicate suppression would
// shield the server from exactly the retries and net.dup deliveries the
// session layer exists to absorb). Node-to-node cluster traffic (session
// handoff, peer liveness) does ride a TransportChannel, whose frame tags
// start at 0x81 so they never collide with these (src/service/cluster):
//
//   kSvcRequest  u8=1 | client u64 | seq u64 | deadline u64 | work u64
//                | payload u64                          client  -> server
//   kSvcResponse u8=2 | client u64 | seq u64 | status u8 | value u64
//                | flags u8                             server  -> client
//   kSvcExec     u8=3 | ticket u64 | work u64 | payload u64 | budget u64
//                                                       server  -> backend
//   kSvcExecDone u8=4 | ticket u64 | value u64          backend -> server
//   kSvcBeat     u8=5                                   backend -> server
//
// `deadline` and `budget` are relative ticks (virtual on sim, µs on
// sockets) — absolute times cannot cross transports whose clocks differ.
// The workload is the same checkable recurrence transport_race uses
// (acc' = acc * K + step, seeded by the request payload), so every layer
// of retry/hedge/failover is *provable*: a response is correct iff its
// value equals service_reference(payload, work).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dist/transport.hpp"
#include "util/bytes.hpp"

namespace mw {

/// Response status codes (on the wire; append, never renumber).
enum class SvcStatus : std::uint8_t {
  kOk = 0,      // executed (or replayed), value is authoritative
  kShed = 1,    // refused at admission — retry against a less loaded server
  kStale = 2,   // seq below the client's session horizon (late duplicate)
  kFailed = 3,  // admitted but not completed within the deadline
};

const char* to_string(SvcStatus s);

/// kSvcResponse flag bits.
inline constexpr std::uint8_t kSvcFlagReplayed = 1;  // served from cache
inline constexpr std::uint8_t kSvcFlagLocal = 2;     // local race, no backend

/// The recurrence every request computes, seeded by its payload. The
/// coordinator-side correctness check for every execution path.
std::uint64_t service_reference(std::uint64_t payload, std::uint64_t work);

struct SvcRequest {
  NodeId client = 0;
  std::uint64_t seq = 0;
  VDuration deadline = 0;  // relative; 0 = server default
  std::uint64_t work = 0;
  std::uint64_t payload = 0;
};

struct SvcResponse {
  NodeId client = 0;
  std::uint64_t seq = 0;
  SvcStatus status = SvcStatus::kOk;
  std::uint64_t value = 0;
  std::uint8_t flags = 0;
};

struct SvcExec {
  std::uint64_t ticket = 0;
  std::uint64_t work = 0;
  std::uint64_t payload = 0;
  VDuration budget = 0;  // relative deadline residue
};

struct SvcExecDone {
  std::uint64_t ticket = 0;
  std::uint64_t value = 0;
};

Bytes encode_request(const SvcRequest& r);
Bytes encode_response(const SvcResponse& r);
Bytes encode_exec(const SvcExec& e);
Bytes encode_exec_done(const SvcExecDone& d);
Bytes encode_beat();

/// First byte of a service payload, or 0 for an empty/foreign frame.
std::uint8_t svc_message_tag(std::span<const std::uint8_t> payload);

inline constexpr std::uint8_t kSvcTagRequest = 1;
inline constexpr std::uint8_t kSvcTagResponse = 2;
inline constexpr std::uint8_t kSvcTagExec = 3;
inline constexpr std::uint8_t kSvcTagExecDone = 4;
inline constexpr std::uint8_t kSvcTagBeat = 5;

/// Decoders return nullopt on any truncated or mis-tagged frame — an
/// unreliable transport may hand the service anything.
std::optional<SvcRequest> decode_request(std::span<const std::uint8_t> p);
std::optional<SvcResponse> decode_response(std::span<const std::uint8_t> p);
std::optional<SvcExec> decode_exec(std::span<const std::uint8_t> p);
std::optional<SvcExecDone> decode_exec_done(std::span<const std::uint8_t> p);

/// One committed side effect. The log is the service's *external* durable
/// sink — it outlives the server object, which is exactly what makes the
/// exactly-once claim testable across a crash/restart: the restarted
/// server must never append a (client, seq) pair the log already holds.
struct Effect {
  NodeId client = 0;
  std::uint64_t seq = 0;
  std::uint64_t value = 0;
};

class EffectLog {
 public:
  virtual ~EffectLog() = default;
  virtual void append(const Effect& e) { entries_.push_back(e); }
  /// Folds in effects other writers committed since the last call. The
  /// in-memory log is always current (one process, one object) so the
  /// default is a no-op; FileEffectLog (src/service/cluster.hpp) overrides
  /// it to pull records sibling *processes* appended to the shared file.
  virtual std::size_t refresh() { return 0; }
  const std::vector<Effect>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  /// (client, seq) pairs appearing more than once — the exactly-once
  /// invariant is `duplicates() == 0`, machine-checked per fault seed.
  std::size_t duplicates() const;

 protected:
  std::vector<Effect> entries_;
};

}  // namespace mw
