// The real-POSIX backend: alternatives as genuine fork()ed child processes
// sharing the parent's address space copy-on-write — the exact mechanism
// the paper measures in §3.4 ("Effects of copy-on-write memory management
// on the response time of UNIX fork operations"). Children race to a
// shared-memory at-most-once slot; the parent kills losing siblings with
// SIGKILL (asynchronous elimination) or kill+waitpid (synchronous).
//
// This backend exists for fidelity and for the overhead benchmarks; the
// portable library API is run_alternatives (core/alt.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace mw {

struct ForkAlternative {
  std::string name;
  /// Runs in the child process. Returns true to attempt synchronization
  /// (success), false to abort. `result` (up to ForkOptions::result_bytes)
  /// is delivered to the parent if this child wins.
  std::function<bool(std::vector<std::uint8_t>& result)> body;
};

struct ForkOptions {
  /// Parent wait timeout in microseconds; 0 = forever.
  std::uint64_t timeout_us = 0;
  /// true = kill losers and waitpid them before returning (synchronous
  /// elimination); false = kill and reap without blocking the return path.
  bool synchronous_elimination = false;
  /// Capacity of the shared result slot.
  std::size_t result_bytes = 4096;
};

struct ForkOutcome {
  bool failed = true;
  std::optional<std::size_t> winner;  // index into the alternatives
  std::vector<std::uint8_t> result;
  double elapsed_sec = 0.0;      // parent-observed wall time of the block
  double elimination_sec = 0.0;  // time spent eliminating siblings
};

/// Runs the block with real processes, on top of PosixAltBlock
/// (core/alt_posix.hpp). Not reentrant from multiple threads (uses waitpid
/// on its own children).
ForkOutcome run_alternatives_fork(const std::vector<ForkAlternative>& alts,
                                  const ForkOptions& opts = {});

/// Measures one fork()+exit round-trip with `touched_pages` of the parent's
/// heap resident and dirty, returning seconds — the §3.4 fork-latency
/// experiment.
double measure_fork_latency(std::size_t touched_pages, std::size_t page_size);

/// Measures the COW page-fault copy service rate: forks a child that
/// rewrites `pages` shared pages, returning pages/second observed in the
/// child — the §3.4 page-copy-rate experiment.
double measure_cow_copy_rate(std::size_t pages, std::size_t page_size);

}  // namespace mw
