#include "core/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/alt_context.hpp"
#include "core/runtime.hpp"

namespace mw {
namespace {

AltOutcome sample_outcome() {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kVirtual;
  cfg.processors = 2;
  cfg.cost = CostModel::calibrated_hp();
  Runtime rt(cfg);
  World root = rt.make_root();
  root.space().store<int>(0, 1);
  return run_alternatives(
      rt, root,
      {Alternative{"fast", nullptr,
                   [](AltContext& ctx) {
                     ctx.space().store<int>(0, 2);
                     ctx.work(vt_ms(10));
                   },
                   nullptr},
       Alternative{"slow", nullptr,
                   [](AltContext& ctx) { ctx.work(vt_ms(500)); }, nullptr},
       Alternative{"queued", nullptr,
                   [](AltContext& ctx) { ctx.work(vt_ms(500)); }, nullptr}});
}

// The timeline row of the alternative called `name`.
std::string row_of(const std::string& text, const std::string& name) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line))
    if (line.compare(0, name.size() + 1, name + " ") == 0) return line;
  return "";
}

TEST(Trace, StatusesReflectSchedule) {
  const std::string text = to_text_timeline(sample_outcome(), 40);
  const std::string fast = row_of(text, "fast");
  const std::string slow = row_of(text, "slow");
  EXPECT_NE(fast.find('W'), std::string::npos);  // won
  EXPECT_EQ(fast.find('x'), std::string::npos);
  EXPECT_NE(slow.find('x'), std::string::npos);  // killed mid-flight
  EXPECT_EQ(slow.find('W'), std::string::npos);
}

TEST(Trace, GuardedOutAlternativeMarked) {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kVirtual;
  cfg.cost = CostModel::free();
  Runtime rt(cfg);
  World root = rt.make_root();
  AltOptions opts;
  opts.guard_phases = kGuardPreSpawn;
  auto out = run_alternatives(
      rt, root,
      {Alternative{"never", [](const World&) { return false; },
                   [](AltContext& ctx) { ctx.work(1); }, nullptr},
       Alternative{"yes", nullptr, [](AltContext& ctx) { ctx.work(1); },
                   nullptr}},
      opts);
  const std::string text = to_text_timeline(out, 20);
  const std::string never = row_of(text, "never");
  ASSERT_FALSE(never.empty());
  EXPECT_EQ(never.substr(never.find('|') + 1, 1), "-");  // never spawned
  EXPECT_NE(row_of(text, "yes").find('W'), std::string::npos);
}

TEST(Trace, TextTimelineShowsWinnerAndRows) {
  const std::string text = to_text_timeline(sample_outcome(), 40);
  // One row per alternative.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  EXPECT_NE(text.find('W'), std::string::npos);   // the winner marker
  EXPECT_NE(text.find("fast"), std::string::npos);
  EXPECT_NE(text.find("slow"), std::string::npos);
  // Rows are aligned: every line has the same length.
  std::istringstream is(text);
  std::string line;
  std::size_t len = 0;
  while (std::getline(is, line)) {
    if (!len) len = line.size();
    EXPECT_EQ(line.size(), len);
  }
}

}  // namespace
}  // namespace mw
