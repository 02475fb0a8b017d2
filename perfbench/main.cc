// perfbench: the repository's end-to-end benchmark. Normally started by
// perfbench/run.py, which builds it first:
//
//   perfbench --workload cold_build|serve_mix|catalog_churn --seed N
//             --seconds S --trace 0|1 [--toy] [--inject-wrong I]
//             [--trace-out FILE] [--scratch-dir DIR] [--expected FILE]
//             [--commit C] [--source-digest D]
//
// Prints a host and build stamp, the run's notes and output digest, and as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones (see perfbench/map.json). Refuses to run when built
// without optimization.

#include <cpuid.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace fam::perfbench {
namespace {

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

std::string CpuModel() {
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

/// The digest recorded for `key` in the expected-digests file, or "".
std::string ExpectedDigest(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string body = text.str();
  const size_t at = body.find("\"" + key + "\"");
  if (at == std::string::npos) return "";
  const size_t open = body.find('"', body.find(':', at) + 1);
  const size_t close = body.find('"', open + 1);
  if (open == std::string::npos || close == std::string::npos) return "";
  return body.substr(open + 1, close - open - 1);
}

bool ParseArgs(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--toy") {
      options.toy = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = value != "0";
    } else if (arg == "--inject-wrong") {
      options.inject_wrong = std::stoll(value);
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else if (arg == "--scratch-dir") {
      options.scratch_dir = value;
    } else if (arg == "--expected") {
      options.expected_path = value;
    } else if (arg == "--commit") {
      options.commit = value;
    } else if (arg == "--source-digest") {
      options.source_digest = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, options)) return 2;
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a build without "
                 "optimization (__OPTIMIZE__ and NDEBUG must be defined)\n");
    return 2;
  }
  RunReport (*run)(RunContext&) = nullptr;
  if (options.workload == "cold_build") run = RunColdBuild;
  if (options.workload == "serve_mix") run = RunServeMix;
  if (options.workload == "catalog_churn") run = RunCatalogChurn;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload \"%s\"\n",
                 options.workload.c_str());
    return 2;
  }
  const Sizes sizes = options.toy ? Sizes::Toy() : Sizes::Full();
  const std::string scale = options.toy ? "toy" : "full";

  std::error_code error;
  std::filesystem::create_directories(options.scratch_dir, error);
  if (error) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 options.scratch_dir.c_str());
    return 2;
  }

  char stamp[1024];
  std::snprintf(stamp, sizeof(stamp),
                "{\"workload\":\"%s\",\"seed\":%" PRIu64
                ",\"scale\":\"%s\",\"cpu\":\"%s\",\"nproc\":%u,"
                "\"isa\":\"%s\",\"optimized\":true,\"commit\":\"%s\","
                "\"source_digest\":\"%s\"}",
                options.workload.c_str(), options.seed, scale.c_str(),
                CpuModel().c_str(), std::thread::hardware_concurrency(),
                simd::ActiveIsaName(), options.commit.c_str(),
                options.source_digest.c_str());
  std::printf("# host %s\n", stamp);
  std::fflush(stdout);

  Tracer tracer;
  Tracer probe_tracer;
  Checker checker(options.inject_wrong);
  RunContext ctx{options, sizes, options.trace ? &tracer : nullptr,
                 options.trace ? &probe_tracer : nullptr, checker};
  RunReport report = run(ctx);

  const std::string key =
      scale + "/" + options.workload + "/" + std::to_string(options.seed);
  const std::string digest = Hex(report.digest);
  std::printf("# digest %s %s\n", key.c_str(), digest.c_str());
  if (!options.expected_path.empty()) {
    const std::string expected = ExpectedDigest(options.expected_path, key);
    if (expected.empty()) {
      std::printf("# digest: none recorded for %s\n", key.c_str());
    } else {
      checker.Attempt();
      if (expected != digest) {
        checker.Fail("output digest " + digest + " != recorded " + expected);
      }
    }
  }

  if (options.trace) {
    RunLayerProbe(ctx);
    report.metrics.clear();
    ReportLayers(ctx, report);
    if (!options.trace_out.empty()) {
      std::string json = "{\"host\":" + std::string(stamp) + ",\"main\":{";
      tracer.AppendJson(json);
      json += "},\"probe\":{";
      probe_tracer.AppendJson(json);
      json += "}}\n";
      std::ofstream(options.trace_out) << json;
    }
  }
  std::filesystem::remove_all(options.scratch_dir, error);

  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  const uint64_t attempted = checker.attempted();
  const uint64_t failed = checker.failed();
  std::printf("# failed_op_share %.6g (%" PRIu64 " of %" PRIu64 ")\n",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 1.0,
              failed, attempted);
  std::string metrics;
  for (const Metric& metric : report.metrics) {
    double value = metric.value;
    if (!std::isfinite(value)) {
      std::printf("# metric %s is not finite; reported as 0\n",
                  metric.name.c_str());
      value = 0.0;
    }
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", metric.name.c_str(), value,
                  metric.unit.c_str());
    metrics += buffer;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {%s}}\n",
      failed == 0 ? "true" : "false", attempted, failed, metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace fam::perfbench

int main(int argc, char** argv) { return fam::perfbench::Main(argc, argv); }
