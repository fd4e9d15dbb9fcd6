// AltContext: the execution context handed to an alternative's body. It is
// the body's window onto its speculative world and its link to the
// elimination machinery (cooperative cancellation) and the virtual clock.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "core/world.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/threading.hpp"
#include "util/vtime.hpp"

namespace mw {

/// Thrown by AltContext::fail — aborts the alternative without synchronizing.
struct AltFailed {
  std::string reason;
};

/// Thrown by AltContext::hang in the virtual backend: the backend records
/// the alternative as never finishing on its own (it occupies a virtual
/// processor until the block's deadline eliminates it).
struct AltHung {};

class AltContext {
 public:
  AltContext(World& world, std::size_t index, Rng rng, CancelToken* cancel,
             bool virtual_mode)
      : world_(world), index_(index), rng_(rng), cancel_(cancel),
        virtual_(virtual_mode) {}

  /// This alternative's private world / address space.
  World& world() { return world_; }
  AddressSpace& space() { return world_.space(); }
  Pid pid() const { return world_.pid(); }

  /// 1-based alternative number — what alt_spawn returned in this child.
  std::size_t index() const { return index_; }

  /// Per-alternative deterministic random stream.
  Rng& rng() { return rng_; }

  /// Accounts `ticks` of virtual work and serves as a cancellation
  /// checkpoint. On threaded kPool the ticks are recorded for reporting
  /// only; real work is whatever the body actually computes.
  void work(VDuration ticks);

  /// Like work(), but on threaded kPool also *spends* roughly `ticks`
  /// microseconds of CPU — lets one synthetic workload drive both backends.
  void compute(VDuration ticks);

  /// Cancellation checkpoint; throws CancelledError if this alternative
  /// has been eliminated.
  void checkpoint();

  /// Aborts this alternative (guard/computation failure): throws AltFailed.
  [[noreturn]] void fail(std::string reason = {});

  /// Declares a named fault point in the body: queries the ambient
  /// FaultInjector (clocked by this alternative's accounted work in the
  /// virtual backend) and applies any injected action — fail, crash with a
  /// foreign exception, hang, or extra delay. No-op without an injector.
  void fault_point(std::string_view name);

  /// This alternative stops making progress. Virtual backend: unwinds via
  /// AltHung and is scheduled as never finishing. Threaded kPool: blocks
  /// until eliminated, then unwinds via CancelledError (with no
  /// cancellation token it degrades to fail(), which cannot wedge).
  [[noreturn]] void hang();

  /// Cancellable sleep: accounts `ticks` in the virtual backend; sleeps
  /// roughly `ticks` microseconds of wall time on threaded kPool,
  /// polling for elimination.
  void sleep_for(VDuration ticks);

  /// Publishes result bytes; delivered in AltOutcome::result if this
  /// alternative wins.
  void set_result(std::span<const std::uint8_t> bytes) {
    result_.assign(bytes.begin(), bytes.end());
  }
  void set_result_string(const std::string& s) {
    result_.assign(s.begin(), s.end());
  }

  /// Total virtual work accounted so far.
  VDuration accounted_work() const { return work_; }
  const Bytes& result() const { return result_; }

 private:
  World& world_;
  std::size_t index_;
  Rng rng_;
  CancelToken* cancel_;
  bool virtual_;
  VDuration work_ = 0;
  Bytes result_;
};

}  // namespace mw
