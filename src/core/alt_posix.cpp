#include "core/alt_posix.hpp"

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>

#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace mw {

// The MAP_SHARED arbitration region. Lock-free atomics are process-shared
// on every platform this library targets.
struct PosixAltBlock::SharedRegion {
  std::atomic<int> winner;              // -1 until a child syncs
  std::atomic<std::uint32_t> published; // 0 until the winner's data landed
  std::uint32_t len;
  // absorbed bytes follow
  std::uint8_t* data() { return reinterpret_cast<std::uint8_t*>(this + 1); }
};
static_assert(std::atomic<int>::is_always_lock_free);
static_assert(std::atomic<std::uint32_t>::is_always_lock_free);

PosixAltBlock::PosixAltBlock(std::size_t absorb_bytes)
    : capacity_(absorb_bytes) {
  shared_bytes_ = sizeof(SharedRegion) + absorb_bytes;
  void* p = ::mmap(nullptr, shared_bytes_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  MW_CHECK(p != MAP_FAILED);
  shared_ = static_cast<SharedRegion*>(p);
  new (&shared_->winner) std::atomic<int>(-1);
  new (&shared_->published) std::atomic<std::uint32_t>(0);
  shared_->len = 0;
}

PosixAltBlock::~PosixAltBlock() {
  if (shared_) ::munmap(shared_, shared_bytes_);
}

void PosixAltBlock::absorb(void* data, std::size_t bytes) {
  MW_CHECK(!spawned_);
  MW_CHECK(bytes <= capacity_);
  absorb_data_ = data;
  absorb_len_ = bytes;
}

int PosixAltBlock::alt_spawn(int n) {
  MW_CHECK(!spawned_);
  MW_CHECK(n >= 1);
  spawned_ = true;
  kids_.assign(static_cast<std::size_t>(n), -1);
  for (int i = 1; i <= n; ++i) {
    const pid_t pid = ::fork();
    MW_CHECK(pid >= 0);
    if (pid == 0) {
      // The child: its entire address space is a COW copy of the parent.
      my_index_ = i;
      kids_.clear();
      return i;
    }
    kids_[static_cast<std::size_t>(i - 1)] = pid;
  }
  return 0;
}

void PosixAltBlock::child_sync() {
  MW_CHECK(my_index_ > 0);
  int expected = -1;
  if (shared_->winner.compare_exchange_strong(expected, my_index_)) {
    // Won the race: publish the absorbed state, then mark it complete.
    if (absorb_data_ && absorb_len_ > 0) {
      std::memcpy(shared_->data(), absorb_data_, absorb_len_);
      shared_->len = static_cast<std::uint32_t>(absorb_len_);
    }
    shared_->published.store(1, std::memory_order_release);
    ::_exit(0);
  }
  // A sibling already synchronized: this world is eliminated.
  ::_exit(1);
}

void PosixAltBlock::child_abort() {
  MW_CHECK(my_index_ > 0);
  ::_exit(2);
}

std::optional<int> PosixAltBlock::parent_wait(std::uint64_t timeout_us,
                                              bool synchronous_elimination) {
  MW_CHECK(my_index_ == 0);
  MW_CHECK(spawned_);
  const std::optional<int> winner = await(timeout_us);
  eliminate(winner.value_or(0), synchronous_elimination);
  // Always reap remaining children before returning (no zombie leaks);
  // under asynchronous elimination this is off the response path — the
  // caller already has its answer.
  reap();
  return winner;
}

std::optional<int> PosixAltBlock::await(std::uint64_t timeout_us) {
  Stopwatch sw;
  std::size_t alive = kids_.size();
  int winner = -1;
  for (;;) {
    winner = shared_->winner.load(std::memory_order_acquire);
    if (winner > 0 || alive == 0) break;
    if (timeout_us != 0 &&
        sw.elapsed_us() > static_cast<double>(timeout_us)) {
      break;
    }
    bool reaped = false;
    for (int& k : kids_) {
      if (k > 0 && ::waitpid(k, nullptr, WNOHANG) == k) {
        // A child that synchronized just before exiting counts as the
        // winner on the next loop iteration.
        k = -1;
        --alive;
        reaped = true;
      }
    }
    if (!reaped) ::usleep(100);
  }
  // Catch a child that won between the last poll and an exit we reaped.
  if (winner <= 0) winner = shared_->winner.load(std::memory_order_acquire);
  if (winner <= 0) return std::nullopt;

  // Absorb the winner's state changes, the §2.2 page-pointer swap (here an
  // explicit copy through the shared segment).
  while (shared_->published.load(std::memory_order_acquire) == 0)
    ::usleep(50);
  if (absorb_data_ && shared_->len > 0) {
    std::memcpy(absorb_data_, shared_->data(),
                std::min<std::size_t>(shared_->len, absorb_len_));
  }
  return winner;
}

double PosixAltBlock::eliminate(int winner, bool synchronous) {
  Stopwatch sw;
  for (std::size_t i = 0; i < kids_.size(); ++i) {
    if (kids_[i] > 0 && static_cast<int>(i + 1) != winner)
      ::kill(kids_[i], SIGKILL);
  }
  if (synchronous) {
    for (std::size_t i = 0; i < kids_.size(); ++i) {
      if (kids_[i] > 0 && static_cast<int>(i + 1) != winner) {
        ::waitpid(kids_[i], nullptr, 0);
        kids_[i] = -1;
      }
    }
  }
  return sw.elapsed_sec();
}

void PosixAltBlock::reap() {
  for (int& k : kids_) {
    if (k > 0) ::waitpid(k, nullptr, 0);
    k = -1;
  }
}

}  // namespace mw
