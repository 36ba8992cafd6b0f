// perfbench — the repository's end-to-end benchmark driver binary.
//
//   perfbench --workload <synth_cold|serve_hits|serve_mixed|failover_stream>
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Runs one workload through the library's public functions, checks every
// output, prints a human report on stderr and one JSON object on stdout:
// {"correct", "attempted", "failed", "end_to_end", "per_layer", "counts",
// "errors"}. perfbench/run.py builds this binary and turns that object into
// the benchmark's result line.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, perfbench::Metric>& metrics) {
  std::string out = "{";
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    out += sep + json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
    sep = ", ";
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") config.workload = value;
    else if (flag == "--seed") config.seed = std::stoull(value);
    else if (flag == "--seconds") config.seconds = std::stod(value);
    else if (flag == "--trace") config.trace = value != "0";
    else if (flag == "--work-dir") config.work_dir = value;
    else return usage();
  }
  if (config.workload.empty() || config.work_dir.empty() || config.seconds <= 0) {
    return usage();
  }
  std::filesystem::create_directories(config.work_dir);

  perfbench::RunResult result;
  try {
    if (config.workload == "synth_cold") {
      perfbench::run_synth_cold(config, result);
    } else if (config.workload == "serve_hits" || config.workload == "serve_mixed") {
      perfbench::run_serve(config, config.workload == "serve_mixed", result);
    } else if (config.workload == "failover_stream") {
      perfbench::run_failover_stream(config, result);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", config.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    result.fail(std::string("exception: ") + e.what());
  }
  if (result.attempted == 0) result.fail("no operation was attempted");
  result.e2e("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  result.layer("error_rate",
               result.attempted > 0 ? static_cast<double>(result.failed) /
                                          static_cast<double>(result.attempted)
                                    : 1.0,
               "ratio");

  std::string counts = "{";
  const char* sep = "";
  for (const auto& [name, v] : result.counts) {
    counts += sep + json_string(name) + ": " + std::to_string(v);
    sep = ", ";
  }
  counts += "}";
  std::string errors = "[";
  sep = "";
  for (const std::string& e : result.errors) {
    errors += sep + json_string(e);
    sep = ", ";
  }
  errors += "]";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"end_to_end\": %s, "
      "\"per_layer\": %s, \"counts\": %s, \"errors\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      metrics_json(result.end_to_end).c_str(), metrics_json(result.per_layer).c_str(),
      counts.c_str(), errors.c_str());
  return 0;
}
