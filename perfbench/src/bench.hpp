// Shared plumbing of the perfbench workloads: timing, exact quantiles,
// metric collection, registry deltas, trace self-time analysis and the
// independent schedule check.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Monotonic wall clock in seconds.
[[nodiscard]] double now_s();
/// Sleeps until the monotonic clock reads `deadline_s`.
void sleep_until_s(double deadline_s);

/// Raw samples with exact quantiles (Hyndman–Fan type 7, the definition
/// numpy and Python's statistics.quantiles(method="inclusive") use). Never
/// bucketed: every quantile this benchmark reports comes from here.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other);
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> values_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run hands back to main(): metrics by name, outcome counts, and
/// the deterministic counts checked for exact repeats.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, std::int64_t> counts;
  std::vector<std::string> errors;

  void fail(const std::string& why);
  void e2e(const std::string& name, double value, const char* unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = {value, unit};
  }
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory inside the checkout.
};

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Delta view of the global metrics registry between two snapshots.
class RegistryDelta {
 public:
  RegistryDelta();  ///< snapshots now.
  /// Counter/gauge value (histogram count) change since construction.
  [[nodiscard]] std::int64_t value(const std::string& name) const;
  /// Histogram sum_ns change since construction.
  [[nodiscard]] std::uint64_t sum_ns(const std::string& name) const;
  /// Histogram mean in milliseconds over the delta (sum_ns / count), 0 when
  /// nothing was observed.
  [[nodiscard]] double mean_ms(const std::string& name) const;

 private:
  struct Entry {
    std::int64_t value = 0;
    std::uint64_t sum_ns = 0;
  };
  std::map<std::string, Entry> before_;
};

/// Per-span-name totals from a TraceSession's events: inclusive duration,
/// self duration (inclusive minus directly nested spans on the same
/// thread), call count, and every inclusive duration for exact quantiles.
struct SpanTotals {
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::uint64_t calls = 0;
  Samples durations_ms;
};
/// With a non-empty `only_tids`, other threads' events are skipped (the
/// caller's critical path, without pool workers' parallel spans).
[[nodiscard]] std::map<std::string, SpanTotals> span_totals(
    const std::vector<a2a::obs::TraceEvent>& events,
    const std::set<std::uint32_t>& only_tids = {});
/// Threads that recorded a span named `name`.
[[nodiscard]] std::set<std::uint32_t> threads_with(
    const std::vector<a2a::obs::TraceEvent>& events, const std::string& name);

/// Prints a self-time table (ms per operation, share of the end-to-end
/// time per operation) to stderr.
void print_self_times(const std::map<std::string, SpanTotals>& spans,
                      double ops, double e2e_ms_per_op);

/// Scratch directory removed on destruction.
class TempDir {
 public:
  TempDir(const std::string& parent, const std::string& name);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

[[nodiscard]] double median_of(std::vector<double> v);

/// The schedule's SchedBin frame (link_ or path_schedule_to_schedbin with
/// default options: the bytes the schedule cache serves).
[[nodiscard]] std::string encode_schedule(const a2a::GeneratedSchedule& s);

/// Independent correctness check of one schedule: validated against its
/// graph, terminals and the workload's demand matrix (demand-aware
/// validators), and its rate F within the Theorem-1 upper bound for that
/// demand. Returns "" when the schedule passes, else the first problem.
[[nodiscard]] std::string check_schedule(const a2a::GeneratedSchedule& s,
                                         const a2a::WorkloadSpec& workload);

// The workloads. Each fills `result` with the metrics it measures; main()
// adds peak_rss_mb and error_rate and prints the JSON object.
void run_synth_cold(const RunConfig& config, RunResult& result);
void run_serve(const RunConfig& config, bool mixed, RunResult& result);
void run_failover_stream(const RunConfig& config, RunResult& result);

}  // namespace perfbench
