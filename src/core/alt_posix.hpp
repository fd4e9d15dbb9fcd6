// The paper's literal §2.2 primitives over real POSIX processes:
//
//   switch (alt_spawn(n)) {
//     case 0:  /* parent */  alt_wait(TIMEOUT); fail();
//     case 1:  /* first alternative */ ... alt_wait(0);
//     ...
//     case n:  ... alt_wait(0);
//   }
//
// alt_spawn(n) forks n children, returning 1..n in the alternatives and 0
// in the parent. A child finishes by calling child_wait() — the paper's
// alt_wait(0) — which attempts the at-most-once synchronization and never
// returns. The parent calls parent_wait(TIMEOUT) — alt_wait(TIMEOUT) —
// which blocks until a child synchronizes or the timeout elapses, then
// eliminates the losing siblings.
//
// State is communicated the way the paper's design does: the winning
// child's address-space changes are "absorbed" by the parent. With real
// fork() we cannot swap page tables from user space, so the absorbed state
// is an explicit region registered up front (absorb()) and shipped through
// shared memory at sync — the "some copying might be needed for
// efficiency in the distributed case" escape hatch of §2.2.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace mw {

struct ForkAlternative;
struct ForkOptions;
struct ForkOutcome;

class PosixAltBlock {
 public:
  /// `absorb_bytes`: capacity of the absorbed-state region.
  explicit PosixAltBlock(std::size_t absorb_bytes = 4096);
  ~PosixAltBlock();

  PosixAltBlock(const PosixAltBlock&) = delete;
  PosixAltBlock& operator=(const PosixAltBlock&) = delete;

  /// Registers the parent memory the winning child's writes should be
  /// absorbed into. Must be called before alt_spawn; the region is
  /// snapshotted into the shared segment so children start from the
  /// parent's state (they also have it via fork COW anyway).
  void absorb(void* data, std::size_t bytes);

  /// Forks `n` alternatives. Returns 0 in the parent, 1..n in each child.
  int alt_spawn(int n);

  /// Child side of alt_wait(0): publish the absorbed region, attempt the
  /// at-most-once sync, and exit. Never returns.
  [[noreturn]] void child_sync();

  /// Child side of failure: exit without synchronizing. Never returns.
  [[noreturn]] void child_abort();

  /// Parent side of alt_wait(TIMEOUT): blocks until a child synchronizes
  /// or `timeout_us` elapses (0 = forever). On success, copies the
  /// winner's absorbed region back over the parent's memory and
  /// eliminates the siblings; returns the winning alternative number
  /// (1..n). On failure returns nullopt, as the signal to run the failure
  /// alternative.
  std::optional<int> parent_wait(std::uint64_t timeout_us = 0,
                                 bool synchronous_elimination = false);

 private:
  // run_alternatives_fork (core/fork_backend.hpp) drives the same block,
  // timing the decision and the elimination separately.
  friend ForkOutcome run_alternatives_fork(
      const std::vector<ForkAlternative>& alts, const ForkOptions& opts);

  /// Polls for a sync — per child pid, so no other child of the process is
  /// reaped — until one wins, all have exited, or `timeout_us` (0 =
  /// forever) elapses; then absorbs the winner's region. Returns the
  /// winner, 1..n.
  std::optional<int> await(std::uint64_t timeout_us);
  /// SIGKILLs every sibling of `winner` (0: every child); synchronous
  /// elimination also waits for each to die. Returns the seconds it took.
  double eliminate(int winner, bool synchronous);
  /// Reaps every child not reaped yet.
  void reap();

  struct SharedRegion;
  SharedRegion* shared_ = nullptr;
  std::size_t shared_bytes_ = 0;
  std::size_t capacity_ = 0;
  void* absorb_data_ = nullptr;
  std::size_t absorb_len_ = 0;
  std::vector<int> kids_;
  int my_index_ = 0;  // 0 in parent, 1..n in children
  bool spawned_ = false;
};

}  // namespace mw
