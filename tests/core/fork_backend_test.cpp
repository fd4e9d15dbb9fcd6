#include "core/fork_backend.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

namespace mw {
namespace {

TEST(ForkBackend, SingleWinner) {
  auto out = run_alternatives_fork(
      {ForkAlternative{"only", [](std::vector<std::uint8_t>& r) {
                         r = {1, 2, 3};
                         return true;
                       }}});
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.winner, 0u);
  EXPECT_EQ(out.result, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(ForkBackend, FastChildBeatsSlowChild) {
  auto out = run_alternatives_fork(
      {ForkAlternative{"slow",
                       [](std::vector<std::uint8_t>& r) {
                         ::usleep(300'000);
                         r = {9};
                         return true;
                       }},
       ForkAlternative{"fast", [](std::vector<std::uint8_t>& r) {
                         r = {7};
                         return true;
                       }}});
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.winner, 1u);
  EXPECT_EQ(out.result, (std::vector<std::uint8_t>{7}));
}

TEST(ForkBackend, AbortingChildrenYieldFailure) {
  auto out = run_alternatives_fork(
      {ForkAlternative{"a", [](std::vector<std::uint8_t>&) { return false; }},
       ForkAlternative{"b", [](std::vector<std::uint8_t>&) { return false; }}});
  EXPECT_TRUE(out.failed);
  EXPECT_FALSE(out.winner.has_value());
}

TEST(ForkBackend, TimeoutOnHangingChild) {
  auto out = run_alternatives_fork(
      {ForkAlternative{"hang",
                       [](std::vector<std::uint8_t>&) {
                         ::usleep(10'000'000);
                         return true;
                       }}},
      ForkOptions{.timeout_us = 100'000});
  EXPECT_TRUE(out.failed);
  EXPECT_LT(out.elapsed_sec, 5.0);
}

TEST(ForkBackend, ChildStateChangesAreIsolated) {
  // The child's address space is a COW copy: parent memory is untouched.
  static int shared_value = 10;
  auto out = run_alternatives_fork(
      {ForkAlternative{"mutator", [](std::vector<std::uint8_t>& r) {
                         shared_value = 999;
                         r = {static_cast<std::uint8_t>(shared_value == 999)};
                         return true;
                       }}});
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.result[0], 1);      // the child saw its own write
  EXPECT_EQ(shared_value, 10);      // the parent never did
}

TEST(ForkBackend, ResultTruncatedToCapacity) {
  ForkOptions opts;
  opts.result_bytes = 4;
  auto out = run_alternatives_fork(
      {ForkAlternative{"big", [](std::vector<std::uint8_t>& r) {
                         r.assign(100, 5);
                         return true;
                       }}},
      opts);
  EXPECT_EQ(out.result.size(), 4u);
}

TEST(ForkBackend, EmptyBlockFails) {
  auto out = run_alternatives_fork({});
  EXPECT_TRUE(out.failed);
}

TEST(ForkBackend, SynchronousEliminationAlsoWins) {
  ForkOptions opts;
  opts.synchronous_elimination = true;
  auto out = run_alternatives_fork(
      {ForkAlternative{"fast",
                       [](std::vector<std::uint8_t>& r) {
                         r = {1};
                         return true;
                       }},
       ForkAlternative{"hang", [](std::vector<std::uint8_t>&) {
                         ::usleep(10'000'000);
                         return true;
                       }}},
      opts);
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.winner, 0u);
  EXPECT_LT(out.elapsed_sec, 5.0);
}

TEST(ForkBackend, LeavesUnrelatedChildrenAlone) {
  // A zombie the block did not fork must neither count as one of its
  // children nor lose its exit status to the block's reaping.
  const pid_t other = ::fork();
  ASSERT_GE(other, 0);
  if (other == 0) ::_exit(7);
  ::usleep(20'000);  // let it exit and become a zombie

  auto out = run_alternatives_fork(
      {ForkAlternative{"slow", [](std::vector<std::uint8_t>& r) {
                         ::usleep(100'000);
                         r = {3};
                         return true;
                       }}});
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.winner, 0u);
  int st = 0;
  ASSERT_EQ(::waitpid(other, &st, 0), other);
  ASSERT_TRUE(WIFEXITED(st));
  EXPECT_EQ(WEXITSTATUS(st), 7);
}

TEST(ForkBackend, MeasureForkLatencyIsPositive) {
  const double sec = measure_fork_latency(32, 4096);
  EXPECT_GT(sec, 0.0);
  EXPECT_LT(sec, 1.0);
}

TEST(ForkBackend, MeasureCowCopyRateIsPositive) {
  const double rate = measure_cow_copy_rate(64, 4096);
  EXPECT_GT(rate, 0.0);
}

}  // namespace
}  // namespace mw
