#include "bench.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <cerrno>
#include <ctime>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "collectives/collective.hpp"
#include "container/schedbin.hpp"
#include "mcf/bounds.hpp"
#include "obs/metrics.hpp"
#include "schedule/validate.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_s(double deadline_s) {
  // The default 50 us timer slack would read as latency of the system; with
  // 1 ns slack an absolute sleep wakes within a few microseconds.
  static thread_local const bool precise = prctl(PR_SET_TIMERSLACK, 1UL) == 0;
  (void)precise;
  const double wait = deadline_s - now_s();
  if (wait <= 0) return;
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  const double target = static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9 + wait;
  ts.tv_sec = static_cast<time_t>(target);
  ts.tv_nsec = static_cast<long>((target - static_cast<double>(ts.tv_sec)) * 1e9);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Samples::sum() const {
  double s = 0.0;
  for (const double v : values_) s += v;
  return s;
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double median_of(std::vector<double> v) {
  Samples s;
  for (const double x : v) s.add(x);
  return s.quantile(0.5);
}

void RunResult::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
  std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

RegistryDelta::RegistryDelta() {
  for (const auto& m : a2a::obs::MetricsRegistry::global().snapshot()) {
    before_[m.name] = {m.value, m.sum_ns};
  }
}

namespace {
a2a::obs::MetricSample find_sample(const std::string& name) {
  for (auto& m : a2a::obs::MetricsRegistry::global().snapshot()) {
    if (m.name == name) return m;
  }
  return {};
}
}  // namespace

std::int64_t RegistryDelta::value(const std::string& name) const {
  const auto now = find_sample(name);
  const auto it = before_.find(name);
  return now.value - (it == before_.end() ? 0 : it->second.value);
}

std::uint64_t RegistryDelta::sum_ns(const std::string& name) const {
  const auto now = find_sample(name);
  const auto it = before_.find(name);
  return now.sum_ns - (it == before_.end() ? 0 : it->second.sum_ns);
}

double RegistryDelta::mean_ms(const std::string& name) const {
  const std::int64_t n = value(name);
  return n > 0 ? static_cast<double>(sum_ns(name)) / 1e6 / static_cast<double>(n)
               : 0.0;
}

std::set<std::uint32_t> threads_with(
    const std::vector<a2a::obs::TraceEvent>& events, const std::string& name) {
  std::set<std::uint32_t> out;
  for (const auto& e : events) {
    if (name == e.name) out.insert(e.tid);
  }
  return out;
}

std::map<std::string, SpanTotals> span_totals(
    const std::vector<a2a::obs::TraceEvent>& events,
    const std::set<std::uint32_t>& only_tids) {
  std::map<std::string, SpanTotals> out;
  // events() is ordered by (tid, start): walk each thread with a stack of
  // open spans; a span's parent is the innermost open span enclosing it.
  struct Open {
    std::uint64_t end_ns;
    SpanTotals* totals;
  };
  std::vector<Open> stack;
  std::uint32_t tid = ~0u;
  for (const auto& e : events) {
    if (e.instant) continue;
    if (!only_tids.empty() && only_tids.count(e.tid) == 0) continue;
    if (e.tid != tid) {
      stack.clear();
      tid = e.tid;
    }
    const std::uint64_t end = e.start_ns + e.dur_ns;
    while (!stack.empty() && stack.back().end_ns <= e.start_ns) stack.pop_back();
    const double ms = static_cast<double>(e.dur_ns) / 1e6;
    if (!stack.empty() && end <= stack.back().end_ns) {
      stack.back().totals->self_ms -= ms;
    }
    SpanTotals& t = out[e.name];
    t.total_ms += ms;
    t.self_ms += ms;
    t.calls += 1;
    t.durations_ms.add(ms);
    stack.push_back({end, &t});
  }
  return out;
}

void print_self_times(const std::map<std::string, SpanTotals>& spans,
                      double ops, double e2e_ms_per_op) {
  std::fprintf(stderr, "%-32s %10s %12s %12s %8s\n", "span", "calls",
               "self ms/op", "total ms/op", "share");
  double attributed = 0.0;
  for (const auto& [name, t] : spans) {
    const double self = t.self_ms / ops;
    attributed += self;
    std::fprintf(stderr, "%-32s %10llu %12.4f %12.4f %7.1f%%\n", name.c_str(),
                 static_cast<unsigned long long>(t.calls), self,
                 t.total_ms / ops,
                 e2e_ms_per_op > 0 ? 100.0 * self / e2e_ms_per_op : 0.0);
  }
  std::fprintf(stderr, "%-32s %10s %12.4f %12s %7.1f%%\n", "(self-time sum)", "",
               attributed, "",
               e2e_ms_per_op > 0 ? 100.0 * attributed / e2e_ms_per_op : 0.0);
}

std::string encode_schedule(const a2a::GeneratedSchedule& s) {
  return s.link ? a2a::link_schedule_to_schedbin(*s.link)
                : a2a::path_schedule_to_schedbin(s.schedule_graph, *s.path);
}

std::string check_schedule(const a2a::GeneratedSchedule& s,
                           const a2a::WorkloadSpec& workload) {
  const int terminals = static_cast<int>(s.terminals.size());
  const a2a::DemandMatrix demand =
      workload.is_default() ? a2a::DemandMatrix::uniform(terminals)
                            : a2a::effective_demand(workload, terminals);
  const a2a::DemandMatrix* weighted = workload.is_default() ? nullptr : &demand;
  a2a::ValidationResult v;
  if (s.link) {
    v = a2a::validate_link_schedule(s.schedule_graph, *s.link, s.terminals,
                                    weighted);
  } else if (s.path) {
    v = a2a::validate_path_schedule(s.schedule_graph, *s.path, s.terminals,
                                    weighted);
  } else {
    return "schedule has neither a link nor a path form";
  }
  if (!v.ok) return "validation: " + (v.errors.empty() ? "" : v.errors[0]);
  const double upper =
      1.0 / a2a::collective_time_lower_bound(s.schedule_graph, s.terminals, demand);
  if (!(s.concurrent_flow > 0.0) || s.concurrent_flow > upper * (1.0 + 1e-9)) {
    return "F=" + std::to_string(s.concurrent_flow) +
           " outside (0, Theorem-1 bound " + std::to_string(upper) + "]";
  }
  return "";
}

TempDir::TempDir(const std::string& parent, const std::string& name) {
  namespace fs = std::filesystem;
  path_ = (fs::path(parent) / name).string();
  fs::remove_all(path_);
  fs::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
