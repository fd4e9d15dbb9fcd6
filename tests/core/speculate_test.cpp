#include "core/speculate.hpp"

#include <gtest/gtest.h>

namespace mw {
namespace {

RuntimeConfig virtual_config() {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kVirtual;
  cfg.processors = 4;
  cfg.cost = CostModel::free();
  cfg.page_size = 64;
  cfg.num_pages = 32;
  return cfg;
}

TEST(Speculate, ReturnsWinnersValue) {
  Runtime rt(virtual_config());
  auto r = speculate<int>(
      rt, {{"slow", [](AltContext& ctx) {
              ctx.work(100);
              return 1;
            }, nullptr},
           {"fast", [](AltContext& ctx) {
              ctx.work(10);
              return 2;
            }, nullptr}});
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, 2);
  EXPECT_EQ(r.winner_name, "fast");
}

TEST(Speculate, DoubleValues) {
  Runtime rt(virtual_config());
  auto r = speculate<double>(
      rt, {{"pi", [](AltContext& ctx) {
              ctx.work(1);
              return 3.14159;
            }, nullptr}});
  ASSERT_TRUE(r.value.has_value());
  EXPECT_DOUBLE_EQ(*r.value, 3.14159);
}

TEST(Speculate, StructValues) {
  struct Point {
    int x;
    int y;
  };
  Runtime rt(virtual_config());
  auto r = speculate<Point>(
      rt, {{"p", [](AltContext& ctx) {
              ctx.work(1);
              return Point{3, 4};
            }, nullptr}});
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(r.value->x, 3);
  EXPECT_EQ(r.value->y, 4);
}

TEST(Speculate, FailedAlternativesSkipped) {
  Runtime rt(virtual_config());
  auto r = speculate<int>(
      rt, {{"dies", [](AltContext& ctx) -> int {
              ctx.fail("nope");
            }, nullptr},
           {"lives", [](AltContext& ctx) {
              ctx.work(50);
              return 7;
            }, nullptr}});
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, 7);
}

TEST(Speculate, AllFailGivesNullopt) {
  Runtime rt(virtual_config());
  auto r = speculate<int>(
      rt, {{"a", [](AltContext& ctx) -> int { ctx.fail(""); }, nullptr},
           {"b", [](AltContext& ctx) -> int { ctx.fail(""); }, nullptr}});
  EXPECT_FALSE(r.value.has_value());
  EXPECT_EQ(r.outcome.failure, AltFailure::kAllFailed);
}

TEST(Speculate, GuardsApply) {
  Runtime rt(virtual_config());
  auto r = speculate<int>(
      rt, {{"guarded-out", [](AltContext& ctx) {
              ctx.work(1);
              return 1;
            }, [](const World&) { return false; }},
           {"allowed", [](AltContext& ctx) {
              ctx.work(100);
              return 2;
            }, nullptr}});
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, 2);
}

TEST(Speculate, TimeoutFails) {
  Runtime rt(virtual_config());
  AltOptions opts;
  opts.timeout = 10;
  auto r = speculate<int>(rt,
                          {{"too-slow", [](AltContext& ctx) {
                              ctx.work(10'000);
                              return 1;
                            }, nullptr}},
                          opts);
  EXPECT_FALSE(r.value.has_value());
  EXPECT_EQ(r.outcome.failure, AltFailure::kTimeout);
}

TEST(Speculate, PoolBackendWorksToo) {
  RuntimeConfig cfg;
  cfg.backend = AltBackend::kPool;
  cfg.pool.workers = 2;
  cfg.page_size = 64;
  cfg.num_pages = 32;
  Runtime rt(cfg);
  auto r = speculate<int>(
      rt, {{"only", [](AltContext&) { return 11; }, nullptr}});
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, 11);
}

}  // namespace
}  // namespace mw
