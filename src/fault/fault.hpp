// Deterministic fault injection (the framework behind §4.1's premise that
// "failure is the (n+1)-th alternative"): a seeded FaultInjector holds a
// set of *named fault points* — places in the library that ask "should a
// fault happen here?" — each armed with a trigger policy (always, every
// n-th hit, per-hit probability, virtual-time window, fire limit) and a
// fault kind (fail the alternative, crash it with an exception, hang it,
// delay it, drop/duplicate a message, crash a node).
//
// Everything is derived from one root seed: each point draws from its own
// Rng stream split off by the point-name hash, so the fault schedule for a
// given (seed, workload) pair replays bit-identically regardless of arm
// order — failing runs are reproduced by re-running the seed.
//
// Code under test declares points with MW_FAULT_POINT("name") (or
// AltContext::fault_point inside alternative bodies). When no injector is
// installed the query is a single atomic load — production paths stay
// effectively free.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"
#include "util/vtime.hpp"

namespace mw {

enum class FaultKind {
  kNone,
  kFailAlternative,   // the alternative aborts (guard/computation failure)
  kCrashException,    // an exception escapes the alternative's body
  kHang,              // the alternative never finishes on its own
  kDelay,             // extra latency/work of `delay` ticks
  kDropMessage,       // the network loses a message
  kDuplicateMessage,  // the network delivers a message twice
  kNodeCrash,         // a remote node dies mid-protocol
};

const char* to_string(FaultKind k);

/// What a fired fault point tells the call site to do. kNone = no fault.
struct FaultAction {
  FaultKind kind = FaultKind::kNone;
  VDuration delay = 0;  // meaningful for kDelay
  explicit operator bool() const { return kind != FaultKind::kNone; }
};

/// Thrown for FaultKind::kCrashException. Deliberately *not* derived from
/// std::exception: it exercises the catch-everything hardening at
/// alternative boundaries, the way a foreign exception type would.
struct InjectedCrash {
  std::string point;
};

/// A fault kind plus the policy deciding which hits of the point fire.
struct FaultSpec {
  FaultKind kind = FaultKind::kNone;

  enum class When { kAlways, kEveryNth, kProbability };
  When when = When::kAlways;
  std::uint64_t nth = 1;       // kEveryNth period
  std::uint64_t offset = 0;    // hits before this index never fire
  double probability = 0.0;    // kProbability, drawn from the point's stream
  VTime window_begin = 0;      // fires only while now ∈ [begin, end)
  VTime window_end = kVTimeMax;
  std::uint64_t max_fires = ~0ull;
  VDuration delay = 0;         // payload for kDelay

  static FaultSpec always(FaultKind k);
  /// Fires on hits offset, offset+n, offset+2n, ...
  static FaultSpec every_nth(FaultKind k, std::uint64_t n,
                             std::uint64_t offset = 0);
  /// Fires exactly once, on hit number `hit` (0-based).
  static FaultSpec once(FaultKind k, std::uint64_t hit = 0);
  /// Each hit fires independently with probability p (deterministic: drawn
  /// from the point's seed-derived stream).
  static FaultSpec with_probability(FaultKind k, double p);

  FaultSpec& between(VTime begin, VTime end);
  FaultSpec& limit(std::uint64_t fires);
  FaultSpec& delayed(VDuration d);
};

/// One entry of the injector's replayable fault schedule.
struct FiredFault {
  std::string point;
  std::uint64_t hit = 0;  // which invocation of the point fired
  FaultKind kind = FaultKind::kNone;
  VTime at = 0;           // the `now` passed to query()
};

/// Seeded registry of armed fault points. Thread-safe: kPool's workers
/// query points from concurrent alternative bodies.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0);

  /// Arms (or re-arms, resetting counters) a named point.
  void arm(const std::string& point, FaultSpec spec);
  void disarm(const std::string& point);

  /// Called by fault-point sites. `now` feeds the time-window policy: the
  /// event-queue clock at network points, the alternative's accounted work
  /// at body points. Unarmed points return kNone.
  FaultAction query(std::string_view point, VTime now = 0);

  std::uint64_t hits(std::string_view point) const;
  std::uint64_t fires(std::string_view point) const;
  std::uint64_t total_fires() const;

  /// The complete fired-fault schedule, in firing order.
  std::vector<FiredFault> log() const;

  /// The schedule rendered as one printable block ("seed=… fires=…" plus
  /// one line per fired fault) — what a failing fault-matrix test prints
  /// so the run can be replayed from its seed.
  std::string log_string() const;

  /// FNV-1a digest of the schedule: two runs injected identically iff their
  /// digests match. The replay handle for failing seeds.
  std::uint64_t schedule_digest() const;

  std::uint64_t seed() const { return seed_; }

 private:
  struct Point {
    FaultSpec spec;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
    Rng rng{0};
  };
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  mutable std::mutex mu_;
  std::uint64_t seed_;
  std::unordered_map<std::string, Point, StringHash, std::equal_to<>> points_;
  std::vector<FiredFault> log_;
};

/// The ambient injector consulted by MW_FAULT_POINT, or nullptr (the
/// default: all faults disabled). Process-global, not thread-local, so
/// fault points inside kPool's worker threads see it.
FaultInjector* fault_injector();

/// RAII installation of an ambient injector; restores the previous one.
class FaultScope {
 public:
  explicit FaultScope(FaultInjector& injector);
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  FaultInjector* prev_;
};

/// Queries the ambient injector; kNone when none is installed.
FaultAction fault_point(std::string_view name, VTime now = 0);

/// Declares a named fault point at the call site; the optional second
/// argument is the clock fed to time-window triggers.
#define MW_FAULT_POINT(...) ::mw::fault_point(__VA_ARGS__)

}  // namespace mw
