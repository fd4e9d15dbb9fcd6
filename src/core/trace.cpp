#include "core/trace.hpp"

#include <algorithm>
#include <sstream>

namespace mw {

std::string to_text_timeline(const AltOutcome& outcome, int width) {
  VTime horizon = 1;
  for (const AltReport& a : outcome.alts)
    horizon = std::max(horizon, a.finish);
  horizon = std::max(horizon, static_cast<VTime>(outcome.elapsed));

  std::size_t name_w = 4;
  for (const AltReport& a : outcome.alts)
    name_w = std::max(name_w, a.name.size());

  auto col = [&](VTime t) {
    return static_cast<int>(t * (width - 1) / horizon);
  };

  std::ostringstream os;
  for (const AltReport& a : outcome.alts) {
    os << a.name << std::string(name_w - a.name.size(), ' ') << " |";
    std::string row(static_cast<std::size_t>(width), ' ');
    if (a.spawned && a.ran) {
      const int s = col(a.start);
      const int f = std::max(col(a.finish), s);
      for (int i = 0; i < s; ++i) row[static_cast<std::size_t>(i)] = '.';
      for (int i = s; i <= f && i < width; ++i)
        row[static_cast<std::size_t>(i)] = '#';
      if (f < width)
        row[static_cast<std::size_t>(f)] = a.success ? 'W' : 'x';
    } else if (a.spawned) {
      const int f = std::min(col(a.finish), width - 1);
      for (int i = 0; i <= f; ++i) row[static_cast<std::size_t>(i)] = '.';
    } else {
      row[0] = '-';
    }
    os << row << "|\n";
  }
  return os.str();
}

}  // namespace mw
