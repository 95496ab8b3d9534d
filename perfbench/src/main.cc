// The repository benchmark's main program.
//
//   evident_bench --workload integrate|fuse|serve --seed N --seconds S
//                 --trace 0|1 [--workdir DIR] [--digests FILE]
//                 [--record-digests]
//
// Generates the workload's inputs from the seed, sets up, measures for S
// seconds, checks every operation's output, and prints human-readable
// notes followed by one JSON result line: end-to-end metrics with
// --trace 0, per-layer metrics (from spans recorded around each call into
// a layer) with --trace 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "harness.h"

namespace {

using perfbench::Options;
using perfbench::Report;

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "evident_bench: " << why
            << "\nusage: evident_bench --workload integrate|fuse|serve "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] "
               "[--digests FILE] [--record-digests]\n";
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--workdir") {
      options.workdir = value();
    } else if (arg == "--digests") {
      options.digest_file = value();
    } else if (arg == "--record-digests") {
      options.record_digests = true;
    } else {
      Usage("unknown argument " + arg);
    }
  }
  if (options.seconds <= 0) Usage("--seconds must be positive");
  return options;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  Report report;
  try {
    if (options.workload == "integrate") {
      report = perfbench::RunIntegrate(options);
    } else if (options.workload == "fuse") {
      report = perfbench::RunFuse(options);
    } else if (options.workload == "serve") {
      report = perfbench::RunServe(options);
    } else {
      Usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "evident_bench: " << options.workload
              << " could not run: " << e.what() << "\n";
    return 1;
  }

  const auto& wanted = options.trace ? perfbench::PerLayerMetrics()
                                     : perfbench::EndToEndMetrics();
  std::map<std::string, perfbench::Metric> got;
  for (const perfbench::Metric& m : report.metrics) got[m.name] = m;

  const auto& v = report.verdicts;
  for (const std::string& note : report.notes) std::cout << note << "\n";
  for (const std::string& message : v.messages()) {
    std::cout << "check failed: " << message << "\n";
  }
  std::printf("op_fail_frac %.6g ratio (%llu failed of %llu attempted)\n",
              v.attempted() ? static_cast<double>(v.failed()) /
                                  static_cast<double>(v.attempted())
                            : 0.0,
              static_cast<unsigned long long>(v.failed()),
              static_cast<unsigned long long>(v.attempted()));
  std::string metrics;
  for (const auto& [name, unit] : wanted) {
    auto it = got.find(name);
    // A traced run reports a layer its workload never calls as 0.
    const double value = it == got.end() ? 0.0 : it->second.value;
    std::printf("%-32s %16.6f %s\n", name.c_str(), value, unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + JsonNumber(value) +
               ", \"unit\": \"" + unit + "\"}";
  }
  std::fflush(stdout);
  const bool correct = v.failed() == 0 && v.attempted() > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<uint64_t>(1, v.attempted())
            << ", \"failed\": " << v.failed() << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  std::error_code ignored;
  std::filesystem::remove_all(options.workdir, ignored);
  return 0;
}
