#include "hpfcg/sparse/halo.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace hpfcg::sparse::halo {

namespace {

bool env_truthy(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "on") == 0 ||
         std::strcmp(v, "ON") == 0 || std::strcmp(v, "true") == 0 ||
         std::strcmp(v, "TRUE") == 0 || std::strcmp(v, "yes") == 0;
}

std::atomic<bool>& enabled_flag() {
  // Opt-out, not opt-in: the executor is the production path; the legacy
  // O(n) gather survives behind HPFCG_HALO=0 for A/B byte comparisons.
  static std::atomic<bool> flag{env_truthy("HPFCG_HALO", true)};
  return flag;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

}  // namespace hpfcg::sparse::halo
