/// \file main.cpp
/// \brief holix_e2e: runs one workload of the end-to-end benchmark.
///
///   holix_e2e --workload NAME --seed N [--seconds S] [--trace 0|1]
///             [--smoke] [--out DIR] [--git-rev REV]
///
/// Prints `workload metric value unit` for every metric, writes
/// <out>/results/<workload>-seed<N>-trace<0|1>.json with the host and
/// build facts, and ends stdout with one JSON line:
///   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
/// The timed run (--trace 0) reports the end-to-end metrics, the traced run
/// (--trace 1) the per-layer ones. A wrong answer prints the workload, op
/// index and seed and exits 1.

#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "e2e.h"

using namespace holix::e2e;

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: holix_e2e --workload NAME --seed N [--seconds S] "
               "[--trace 0|1] [--smoke] [--out DIR] [--git-rev REV]\n"
               "workloads:");
  for (const auto& w : WorkloadNames()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The value of the first "key : value" line of \p path starting with \p key.
std::string InfoField(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      const size_t value = colon == std::string::npos
                               ? colon
                               : line.find_first_not_of(" \t", colon + 1);
      if (value != std::string::npos) return line.substr(value);
    }
  }
  return "unknown";
}

std::string FileSystemOf(const std::string& dir) {
  struct statfs fs {};
  if (::statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlay";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string HostJson(const RunOptions& o, const std::string& git_rev,
                     bool durable) {
  utsname u{};
  ::uname(&u);
  std::string l3;
  std::ifstream("/sys/devices/system/cpu/cpu0/cache/index3/size") >> l3;
  std::ostringstream j;
  j << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": \""
    << Escape(InfoField("/proc/cpuinfo", "model name")) << "\""
    << ", \"l3\": \"" << Escape(l3.empty() ? "unknown" : l3) << "\""
    << ", \"kernel\": \"" << Escape(u.release) << "\""
    << ", \"build_type\": \"" << HOLIX_E2E_BUILD_TYPE << "\""
    << ", \"git_rev\": \"" << Escape(git_rev) << "\""
    << ", \"fsync\": \"" << (durable ? "always" : "none") << "\""
    << ", \"data_fs\": \"" << FileSystemOf(o.out_dir) << "\"}";
  return j.str();
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::ostringstream j;
  j << "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    j << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
      << Num(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  j << "}";
  return j.str();
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + MetricsJson(metrics) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  // A hung run ends itself, without a result line, instead of blocking
  // whoever waits for it.
  ::alarm(170);

  RunOptions o;
  o.out_dir = "build-e2e";
  std::string git_rev = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = value() != "0";
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--out") {
        o.out_dir = value();
      } else if (a == "--git-rev") {
        git_rev = value();
      } else {
        Usage();
        return 2;
      }
    } catch (const std::exception&) {
      Usage();
      return 2;
    }
  }
  if (o.workload.empty() || !have_seed || !(o.seconds > 0)) {
    Usage();
    return 2;
  }
  for (const char* sub : {"results", "trace"}) {
    std::filesystem::create_directories(o.out_dir + "/" + sub);
  }

  Outcome out;
  try {
    out = RunWorkload(o);
  } catch (const WrongAnswer& e) {
    std::printf("WRONG ANSWER workload=%s seed=%llu: %s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                e.what());
    std::printf("%s\n", ResultLine(false, 1, 0, {}).c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "holix_e2e %s: %s\n", o.workload.c_str(), e.what());
    return 2;
  }

  for (const auto* group : {&out.metrics, &out.extra}) {
    for (const Metric& m : *group) {
      std::printf("%s %s %.9g %s\n", o.workload.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    }
  }
  const std::string file = o.out_dir + "/results/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  std::ofstream(file) << "{\"workload\": \"" << o.workload
                      << "\", \"seed\": " << o.seed
                      << ", \"seconds\": " << Num(o.seconds)
                      << ", \"trace\": " << (o.trace ? 1 : 0)
                      << ", \"smoke\": " << (o.smoke ? "true" : "false")
                      << ", \"host\": " << HostJson(o, git_rev, out.durable)
                      << ", \"correct\": true, \"attempted\": " << out.attempted
                      << ", \"failed\": " << out.failed
                      << ", \"metrics\": " << MetricsJson(out.metrics)
                      << ", \"extra\": " << MetricsJson(out.extra) << "}\n";
  std::printf("%s\n",
              ResultLine(true, out.attempted, out.failed, out.metrics).c_str());
  return 0;
}
