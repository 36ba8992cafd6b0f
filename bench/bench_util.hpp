// Shared helpers for the figure-reproduction benches.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "graph/topologies.hpp"
#include "mcf/decomposed.hpp"
#include "obs/metrics.hpp"
#include "runtime/ct_simulator.hpp"
#include "runtime/sf_simulator.hpp"
#include "schedule/compile_link.hpp"
#include "schedule/compile_path.hpp"

namespace a2a::bench {

/// Coarse chunking for N=27-scale path schedules: bounds chunks/shard (and
/// QPs) at fabric-realistic counts, as the §4 Cerio lowering does.
inline ChunkingOptions coarse_chunking() {
  ChunkingOptions options;
  options.max_denominator = 12;
  options.min_fraction = 1e-3;
  return options;
}

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times a callable, returning seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const double t0 = now_seconds();
  fn();
  return now_seconds() - t0;
}

/// Every sample of one latency series, kept exactly (no histogram
/// buckets). percentile(p) is the sample at rank round(p * (n - 1)) of the
/// sorted series; an empty series reads 0 everywhere.
struct Samples {
  std::vector<double> seconds;

  void add(double s) { seconds.push_back(s); }
  [[nodiscard]] double percentile(double p) const {
    if (seconds.empty()) return 0.0;
    std::vector<double> sorted = seconds;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
  }
  [[nodiscard]] double mean() const {
    if (seconds.empty()) return 0.0;
    double sum = 0.0;
    for (const double s : seconds) sum += s;
    return sum / static_cast<double>(seconds.size());
  }
  [[nodiscard]] double min() const {
    return seconds.empty() ? 0.0
                           : *std::min_element(seconds.begin(), seconds.end());
  }
  [[nodiscard]] double max() const {
    return seconds.empty() ? 0.0
                           : *std::max_element(seconds.begin(), seconds.end());
  }
};

/// "12.3us" / "4.56ms" / "1.234s".
inline std::string format_seconds(double s) {
  char buf[32];
  if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fus", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", s);
  }
  return buf;
}

/// `<tmp>/<name>_<pid>`, emptied on construction and removed with its
/// contents on destruction.
struct TempDir {
  std::filesystem::path path;

  explicit TempDir(const std::string& name) {
    path = std::filesystem::temp_directory_path() /
           (name + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

/// Buffer-size sweep matching the paper's x-axes (per-node buffer bytes).
inline std::vector<double> buffer_sweep(int lo_pow, int hi_pow, int step = 3) {
  std::vector<double> out;
  for (int p = lo_pow; p <= hi_pow; p += step) {
    out.push_back(std::pow(2.0, p));
  }
  return out;
}

inline std::string human_bytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 3) {
    bytes /= 1024.0;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f%s", bytes, units[u]);
  return buf;
}

/// The global metrics registry as an embeddable JSON value (a flat object,
/// no trailing newline) so BENCH_*.json records carry the run's telemetry.
/// One shared implementation with the schedserved /metrics endpoint and
/// `schedgen --metrics`.
inline std::string metrics_snapshot_json() { return obs::metrics_json(); }

/// Appends one JSON object `record` to the trajectory array at `json_path`.
/// BENCH_*.json files are histories — an array of run records, one appended
/// per invocation — so this splices into an existing array rather than
/// truncating it. A legacy bare-object file is migrated as the array's first
/// record; anything else at the path is replaced by a fresh array.
inline void append_bench_record(const std::string& json_path,
                                std::string record) {
  while (!record.empty() && record.back() == '\n') record.pop_back();
  std::string existing;
  {
    std::ifstream in(json_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    existing = buf.str();
  }
  while (!existing.empty() &&
         std::isspace(static_cast<unsigned char>(existing.back()))) {
    existing.pop_back();
  }
  std::string out_text;
  if (!existing.empty() && existing.front() == '{' && existing.back() == '}') {
    out_text = "[\n" + existing + ",\n" + record + "\n]\n";
  } else if (!existing.empty() && existing.front() == '[' &&
             existing.back() == ']') {
    existing.pop_back();
    while (!existing.empty() &&
           std::isspace(static_cast<unsigned char>(existing.back()))) {
      existing.pop_back();
    }
    // "[]" (an emptied history) splices to a leading comma; treat any array
    // with no last record to attach to as a fresh file instead.
    if (existing.size() > 1 && existing.back() == '}') {
      out_text = existing + ",\n" + record + "\n]\n";
    } else {
      out_text = "[\n" + record + "\n]\n";
    }
  } else {
    out_text = "[\n" + record + "\n]\n";
  }
  std::ofstream(json_path) << out_text;
  std::cout << "appended to " << json_path << "\n";
}

/// Builds a PathSchedule from single routes (one per commodity).
inline PathSchedule single_route_schedule(const DiGraph& g,
                                          const std::vector<std::pair<NodeId, NodeId>>& commodities,
                                          const std::vector<Path>& routes) {
  std::vector<CommodityPaths> cps;
  cps.reserve(commodities.size());
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    CommodityPaths cp;
    cp.src = commodities[k].first;
    cp.dst = commodities[k].second;
    cp.paths.push_back(WeightedPath{routes[k], 1.0});
    cps.push_back(std::move(cp));
  }
  return compile_path_schedule(g, cps);
}

}  // namespace a2a::bench
