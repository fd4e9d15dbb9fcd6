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
  return out;
}

}  // namespace mw
