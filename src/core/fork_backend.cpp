#include "core/fork_backend.hpp"

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>

#include "core/alt_posix.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace mw {

namespace {

void* map_shared(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  MW_CHECK(p != MAP_FAILED);
  return p;
}

}  // namespace

ForkOutcome run_alternatives_fork(const std::vector<ForkAlternative>& alts,
                                  const ForkOptions& opts) {
  ForkOutcome out;
  if (alts.empty()) return out;

  // The absorbed region carries the winner's result: a length word, then
  // up to result_bytes of data.
  std::vector<std::uint8_t> region(sizeof(std::uint32_t) + opts.result_bytes);
  PosixAltBlock block(region.size());
  block.absorb(region.data(), region.size());

  Stopwatch block_clock;
  const int me = block.alt_spawn(static_cast<int>(alts.size()));
  if (me > 0) {
    // Child: the OS gave us a COW copy of the entire parent address space
    // — the paper's world fork, for free.
    std::vector<std::uint8_t> result;
    bool success = false;
    try {
      success = alts[static_cast<std::size_t>(me - 1)].body(result);
    } catch (...) {
      success = false;
    }
    if (!success) block.child_abort();
    const auto len = static_cast<std::uint32_t>(
        std::min(result.size(), opts.result_bytes));
    std::memcpy(region.data(), &len, sizeof len);
    std::memcpy(region.data() + sizeof len, result.data(), len);
    block.child_sync();
  }

  const std::optional<int> winner = block.await(opts.timeout_us);
  if (winner) {
    std::uint32_t len = 0;
    std::memcpy(&len, region.data(), sizeof len);
    const std::uint8_t* data = region.data() + sizeof len;
    out.failed = false;
    out.winner = static_cast<std::size_t>(*winner - 1);
    out.result.assign(data, data + len);
  }
  out.elapsed_sec = block_clock.elapsed_sec();

  // Synchronous elimination waits for each loser's termination before the
  // measurement point; asynchronous issues the kills and reaps afterwards,
  // off the response path.
  out.elimination_sec =
      block.eliminate(winner.value_or(0), opts.synchronous_elimination);
  block.reap();
  return out;
}

double measure_fork_latency(std::size_t touched_pages, std::size_t page_size) {
  // Dirty `touched_pages` pages so the kernel has that many page-table
  // entries to duplicate; the paper's 320 KB address spaces correspond to
  // 80–160 pages.
  std::vector<std::uint8_t> arena(touched_pages * page_size);
  for (std::size_t p = 0; p < touched_pages; ++p) arena[p * page_size] = 1;

  Stopwatch sw;
  const pid_t pid = ::fork();
  MW_CHECK(pid >= 0);
  if (pid == 0) ::_exit(0);
  const double sec = sw.elapsed_sec();  // latency of fork() in the parent
  ::waitpid(pid, nullptr, 0);
  // Keep the arena alive past the fork.
  volatile std::uint8_t sink = arena[0];
  (void)sink;
  return sec;
}

double measure_cow_copy_rate(std::size_t pages, std::size_t page_size) {
  struct Shared {
    std::atomic<double> seconds;
    std::atomic<int> done;
  };
  auto* sh = static_cast<Shared*>(map_shared(sizeof(Shared)));
  new (&sh->seconds) std::atomic<double>(0.0);
  new (&sh->done) std::atomic<int>(0);

  std::vector<std::uint8_t> arena(pages * page_size);
  for (std::size_t p = 0; p < pages; ++p) arena[p * page_size] = 1;

  const pid_t pid = ::fork();
  MW_CHECK(pid >= 0);
  if (pid == 0) {
    // Child: every write faults and copies one shared page.
    Stopwatch sw;
    for (std::size_t p = 0; p < pages; ++p) arena[p * page_size] = 2;
    sh->seconds.store(sw.elapsed_sec(), std::memory_order_release);
    sh->done.store(1, std::memory_order_release);
    ::_exit(0);
  }
  ::waitpid(pid, nullptr, 0);
  MW_CHECK(sh->done.load(std::memory_order_acquire) == 1);
  const double sec = sh->seconds.load(std::memory_order_acquire);
  ::munmap(sh, sizeof(Shared));
  if (sec <= 0.0) return 0.0;
  return static_cast<double>(pages) / sec;
}

}  // namespace mw
