#include "core/alt_posix.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

namespace mw {
namespace {

TEST(PosixAlt, PaperStyleBlockWinnerAbsorbed) {
  // The §2.2 preprocessor output, literally.
  int result = 0;
  PosixAltBlock block;
  block.absorb(&result, sizeof result);
  switch (block.alt_spawn(3)) {
    case 0: {  // parent
      auto winner = block.parent_wait(/*timeout_us=*/5'000'000);
      ASSERT_TRUE(winner.has_value());
      EXPECT_GE(*winner, 1);
      EXPECT_LE(*winner, 3);
      // The winner's state change was absorbed.
      EXPECT_EQ(result, *winner * 100);
      break;
    }
    case 1:
      result = 100;
      block.child_sync();
    case 2:
      result = 200;
      block.child_sync();
    case 3:
      result = 300;
      block.child_sync();
  }
}

TEST(PosixAlt, FastChildWins) {
  int result = 0;
  PosixAltBlock block;
  block.absorb(&result, sizeof result);
  switch (block.alt_spawn(2)) {
    case 0: {
      auto winner = block.parent_wait(10'000'000);
      ASSERT_TRUE(winner.has_value());
      EXPECT_EQ(*winner, 2);
      EXPECT_EQ(result, 22);
      break;
    }
    case 1:
      ::usleep(400'000);
      result = 11;
      block.child_sync();
    case 2:
      result = 22;
      block.child_sync();
  }
}

TEST(PosixAlt, AllAbortSelectsFailure) {
  PosixAltBlock block;
  switch (block.alt_spawn(2)) {
    case 0: {
      auto winner = block.parent_wait(5'000'000);
      EXPECT_FALSE(winner.has_value());  // run the failure alternative
      break;
    }
    case 1:
      block.child_abort();
    case 2:
      block.child_abort();
  }
}

TEST(PosixAlt, TimeoutEliminatesHangingChildren) {
  PosixAltBlock block;
  switch (block.alt_spawn(2)) {
    case 0: {
      auto winner = block.parent_wait(/*timeout_us=*/100'000);
      EXPECT_FALSE(winner.has_value());
      break;
    }
    case 1:
    case 2:
      ::usleep(30'000'000);
      block.child_sync();
  }
}

TEST(PosixAlt, LoserSideEffectsInvisible) {
  // Every child writes to its COW copy; only the winner's write is
  // absorbed into the parent.
  struct State {
    int value;
    int scribbles;
  } state{0, 0};
  PosixAltBlock block(sizeof state);
  block.absorb(&state, sizeof state);
  switch (block.alt_spawn(2)) {
    case 0: {
      auto winner = block.parent_wait(5'000'000);
      ASSERT_TRUE(winner.has_value());
      EXPECT_EQ(state.scribbles, 1);  // exactly one child's writes
      break;
    }
    case 1:
      state.value = 1;
      state.scribbles += 1;
      block.child_sync();
    case 2:
      ::usleep(300'000);
      state.value = 2;
      state.scribbles += 1;
      block.child_sync();
  }
}

TEST(PosixAlt, SynchronousEliminationAlsoWorks) {
  int result = 0;
  PosixAltBlock block;
  block.absorb(&result, sizeof result);
  switch (block.alt_spawn(2)) {
    case 0: {
      auto winner = block.parent_wait(5'000'000,
                                      /*synchronous_elimination=*/true);
      ASSERT_TRUE(winner.has_value());
      EXPECT_EQ(result, 7);
      break;
    }
    case 1:
      result = 7;
      block.child_sync();
    case 2:
      ::usleep(20'000'000);
      block.child_sync();
  }
}

TEST(PosixAlt, LeavesUnrelatedChildrenAlone) {
  // A zombie the block did not fork must neither count as one of its
  // children nor lose its exit status to the block's reaping.
  const pid_t other = ::fork();
  ASSERT_GE(other, 0);
  if (other == 0) ::_exit(7);
  ::usleep(20'000);  // let it exit and become a zombie

  int result = 0;
  PosixAltBlock block;
  block.absorb(&result, sizeof result);
  switch (block.alt_spawn(1)) {
    case 0: {
      const auto winner = block.parent_wait(/*timeout_us=*/5'000'000);
      ASSERT_TRUE(winner.has_value());
      EXPECT_EQ(*winner, 1);
      EXPECT_EQ(result, 5);
      break;
    }
    case 1:
      ::usleep(100'000);
      result = 5;
      block.child_sync();
  }
  int st = 0;
  ASSERT_EQ(::waitpid(other, &st, 0), other);
  ASSERT_TRUE(WIFEXITED(st));
  EXPECT_EQ(WEXITSTATUS(st), 7);
}

}  // namespace
}  // namespace mw
