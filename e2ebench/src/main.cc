// End-to-end benchmark runner. One run measures one workload:
//
//   e2ebench --workload batch_solve|fleet_churn --seed N --seconds S
//            --trace 0|1 [--workdir DIR] [--git-sha SHA]
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics. The second-to-last stdout line
// is the run envelope; the last is the result object. Any answer that
// differs from the in-process ground truth makes the run exit 1.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "e2ebench/src/workloads.h"
#include "src/common/logging.h"
#include "src/index/minplus_kernels.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2ebench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload batch_solve|fleet_churn "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] "
               "[--git-sha SHA]\n";
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string git_sha = "unknown";
  config.workdir = ".bench_build/work";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || config.seconds <= 0.0) {
    return Usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }
  config.nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  // The benchmark's own load: kConnections connections driven from one
  // generator thread. It must not outnumber the host's cores.
  if (kConnections > config.nproc) {
    std::cerr << "e2ebench: refusing to start: " << kConnections
              << " connections exceed nproc=" << config.nproc << "\n";
    return 2;
  }
  std::filesystem::create_directories(config.workdir);
  ifls::SetLogLevel(ifls::LogLevel::kWarning);

  ifls::Result<RunResult> run = ifls::Status::InvalidArgument(
      "unknown workload '" + config.workload + "'");
  if (config.workload == "batch_solve") run = RunBatchSolve(config);
  if (config.workload == "fleet_churn") run = RunFleetChurn(config);
  if (!run.ok()) {
    std::cerr << "e2ebench: " << config.workload
              << " failed: " << run.status().ToString() << "\n";
    return 1;
  }
  const RunResult& result = *run;
  const bool correct = result.mismatches == 0;

  std::string envelope = "{\"envelope\": {\"git_sha\": " + JsonString(git_sha) +
                         ", \"build_type\": " +
                         JsonString(E2EBENCH_BUILD_TYPE) +
                         ", \"kernel\": " +
                         JsonString(ifls::kernels::ActiveKernelName()) +
                         ", \"nproc\": " + std::to_string(config.nproc) +
                         ", \"workload\": " + JsonString(config.workload) +
                         ", \"seed\": " + std::to_string(config.seed) +
                         ", \"seconds\": " + JsonNumber(config.seconds) +
                         ", \"trace\": " + (config.trace ? "1" : "0") +
                         ", \"error_rate\": " +
                         JsonNumber(static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted)) +
                         ", \"mismatches\": " +
                         std::to_string(result.mismatches);
  for (const auto& [key, value] : result.notes) {
    envelope += ", " + JsonString("note." + key) + ": " + JsonString(value);
  }
  std::cout << envelope << "}}\n";

  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics.values()) {
    if (!first) line += ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + JsonNumber(metric.first) +
            ", \"unit\": " + JsonString(metric.second) + "}";
  }
  std::cout << line << "}}" << std::endl;
  if (!correct) {
    std::cerr << "e2ebench: " << result.mismatches
              << " answers differed from ground truth\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
