// Self-checks of the benchmark's own machinery: the tail-percentile rule,
// the self-time arithmetic, and the decorators forwarding unchanged.
#pragma once

#include <string>

namespace tunebench {

/// Runs every check; `report` receives one line per failure (or "ok").
bool run_selftests(std::string* report);

}  // namespace tunebench
