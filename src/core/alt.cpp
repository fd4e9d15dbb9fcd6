#include "core/alt.hpp"

#include "core/alt_block.hpp"
#include "core/runtime.hpp"

namespace mw {

AltOutcome run_alternatives(Runtime& rt, World& parent,
                            const std::vector<Alternative>& alts,
                            const AltOptions& opts) {
  AltOutcome out;
  switch (rt.config().backend) {
    case AltBackend::kVirtual:
      out = internal::run_alternatives_virtual(rt, parent, alts, opts);
      break;
    case AltBackend::kPool:
      out = internal::run_alternatives_pool(rt, parent, alts, opts);
      break;
  }
  rt.record_outcome(out);
  // The outcome is recorded: the children's records may now retire.
  std::vector<Pid> children;
  children.reserve(out.alts.size());
  for (const AltReport& a : out.alts)
    if (a.spawned && a.pid != kNoPid) children.push_back(a.pid);
  rt.processes().retire(children);
  return out;
}

}  // namespace mw
