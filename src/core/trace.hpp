// Per-block timeline: renders one AltOutcome's schedule as text so users
// can *see* the speculation — who ran where, who was cut in the ready
// queue, who won. Whole-run Chrome-trace export (chrome://tracing,
// ui.perfetto.dev) is trace::to_chrome_json over the mw_trace stream.
#pragma once

#include <string>

#include "core/alt.hpp"

namespace mw {

/// Renders a compact fixed-width text timeline (one row per alternative)
/// for terminal inspection:
///
///   fast   |#####W                |
///   slow   |############x         |
///   queued |............          |
///
/// '#' running, 'W' won, 'x' killed/aborted, '.' waiting in the queue,
/// '-' never spawned (guarded out).
std::string to_text_timeline(const AltOutcome& outcome, int width = 60);

}  // namespace mw
