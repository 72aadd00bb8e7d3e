#include "util/cache_info.h"

#include <atomic>
#include <fstream>
#include <string>

namespace holix {

namespace {

std::atomic<size_t> g_l1_override{0};

/// Reads the size of the first cpu0 cache at \p want_level whose type is
/// Data or Unified; returns 0 when sysfs has no such entry.
size_t DetectCacheLevel(int want_level) {
  // sysfs exposes per-cpu cache indices; the L1D is index0 or index1.
  for (int index = 0; index < 8; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_f(base + "/level");
    std::ifstream type_f(base + "/type");
    int level = 0;
    std::string type;
    if (!(level_f >> level) || !(type_f >> type)) continue;
    if (level != want_level || (type != "Data" && type != "Unified")) continue;
    std::ifstream size_f(base + "/size");
    std::string size_str;
    if (!(size_f >> size_str)) continue;
    size_t multiplier = 1;
    if (!size_str.empty() && (size_str.back() == 'K' || size_str.back() == 'k')) {
      multiplier = 1024;
      size_str.pop_back();
    } else if (!size_str.empty() &&
               (size_str.back() == 'M' || size_str.back() == 'm')) {
      multiplier = 1024 * 1024;
      size_str.pop_back();
    }
    try {
      const size_t value = std::stoull(size_str);
      if (value > 0) return value * multiplier;
    } catch (...) {
      continue;
    }
  }
  return 0;
}

}  // namespace

size_t L1DataCacheBytes() {
  const size_t forced = g_l1_override.load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  static const size_t detected = [] {
    const size_t bytes = DetectCacheLevel(1);
    return bytes != 0 ? bytes : size_t{32} * 1024;  // Conservative default.
  }();
  return detected;
}

void OverrideL1DataCacheBytes(size_t bytes) {
  g_l1_override.store(bytes, std::memory_order_relaxed);
}

}  // namespace holix
