#include "core/alt_block.hpp"

#include "core/runtime.hpp"

namespace mw {

namespace internal {

namespace {

// A guard that throws is a guard that failed.
bool guard_passes(const Alternative& alt, const World& w) {
  try {
    return alt.guard(w);
  } catch (...) {
    return false;
  }
}

}  // namespace

BlockStart begin_block(Runtime& rt, const World& parent,
                       const std::vector<Alternative>& alts,
                       const AltOptions& opts, AltOutcome& out) {
  const std::size_t n = alts.size();
  out.alts.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.alts[i].index = i + 1;
    out.alts[i].name = alts[i].name;
  }
  if (const auto led = led_position(alts, &Alternative::priority))
    out.alts[*led].led = true;
  BlockStart start;
  if (n == 0) {
    out.failed = true;
    out.failure = AltFailure::kNoAlternatives;
    return start;
  }
  start.group = rt.next_alt_group();
  // Serial guard evaluation in the parent (§2.2 — improves throughput at
  // the expense of response time: rejected alternatives are never spawned,
  // but the checks serialize).
  for (std::size_t i = 0; i < n; ++i) {
    if ((opts.guard_phases & kGuardPreSpawn) && alts[i].guard &&
        !guard_passes(alts[i], parent)) {
      continue;
    }
    start.spawned.push_back(i);
    out.alts[i].spawned = true;
  }
  if (start.spawned.empty()) {
    out.failed = true;
    out.failure = AltFailure::kAllFailed;
  }
  return start;
}

Verdict run_child(const Alternative& alt, World& child, AltContext& ctx,
                  unsigned guard_phases) {
  try {
    if ((guard_phases & kGuardInChild) && alt.guard && !alt.guard(child))
      return Verdict::kFailed;
    alt.body(ctx);
    if ((guard_phases & kGuardAtSync) && alt.guard && !alt.guard(child))
      return Verdict::kFailed;
    if (alt.accept && !alt.accept(child)) return Verdict::kFailed;
    return Verdict::kSuccess;
  } catch (const CancelledError&) {
    return Verdict::kCancelled;
  } catch (const AltHung&) {
    // The body declared it will never finish (kVirtual models it as a task
    // outliving the deadline; elsewhere hang() degrades to this only with
    // no cancellation token).
    return Verdict::kHung;
  } catch (...) {
    // AltFailed, std::exception and foreign exceptions (e.g. an injected
    // crash) all fail the child instead of escaping the block.
    return Verdict::kFailed;
  }
}

}  // namespace internal

}  // namespace mw
