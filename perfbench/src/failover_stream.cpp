// failover_stream: a seeded stream of link/node failures and restorations
// against a FailoverManager on GenKautz(27,4)/cerio. Set-up solves the
// healthy fabric exactly and precomputes a seeded subset of the single-link
// failure domain. The deadline is generous, so no rung times out and the
// rung each event takes depends only on library state: precomputed hits and
// dual-warm exact re-solves (node failures re-solve cold). Every served
// schedule is re-validated against the degraded topology by this benchmark,
// independently of the ladder.
//
// The stream is a fixed cycle of four-event episodes, each ending back on
// the healthy fabric; the seed picks which links and nodes fail. So every
// seed yields the same mix of hits, link re-solves and node re-solves, and
// the latency quantiles compare across seeds.
#include <cstdio>
#include <memory>
#include <optional>
#include <set>

#include "bench.hpp"
#include "collectives/demand.hpp"
#include "common/random.hpp"
#include "failover/manager.hpp"
#include "graph/topologies.hpp"
#include "mcf/bounds.hpp"
#include "obs/trace.hpp"
#include "runtime/fabric.hpp"
#include "schedule/validate.hpp"

namespace perfbench {

namespace {

constexpr int kSetupReps = 3;
/// Single-link signatures precomputed in set-up.
constexpr std::size_t kPrecomputed = 12;
/// No rung may time out: the rung depends on library state, not wall time.
constexpr double kDeadlineS = 60.0;
/// Events per second of --seconds (an event takes ~0.2 s): the stream
/// length is fixed by the arguments, so its counts repeat exactly.
constexpr double kEventsPerSecond = 5.0;

const char* const kRungNames[4] = {"hit", "exact", "fptas", "degraded"};

struct Setup {
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<a2a::FailoverManager> manager;
  std::vector<a2a::EdgeId> precomputed;  ///< single links in the library.
  std::size_t stored = 0;
  std::int64_t lp_iterations = 0;
};

Setup set_up(const RunConfig& config, const a2a::DiGraph& g) {
  Setup s;
  const RegistryDelta registry;
  s.dir = std::make_unique<TempDir>(config.work_dir, "failover_library");
  a2a::FailoverOptions options;
  options.library_dir = s.dir->path();
  options.domain.single_nodes = false;
  options.domain.top_k_link_pairs = 0;
  options.precompute_deadline_s = kDeadlineS;
  options.threads = 4;
  s.manager = std::make_unique<a2a::FailoverManager>(g, a2a::hpc_cerio_fabric(), options);
  std::vector<a2a::FailureSignature> domain = s.manager->enumerate_domain();
  a2a::Rng rng(config.seed);
  rng.shuffle(domain);
  domain.resize(std::min(domain.size(), kPrecomputed));
  s.stored = s.manager->precompute(domain).stored;
  for (const auto& sig : domain) s.precomputed.push_back(sig.edges.at(0));
  s.lp_iterations = registry.value("lp.iterations");
  return s;
}

/// The event stream: episodes cycle L, N, L, N, P, four events each. For 75
/// events that is 21 hits, 27 single-link, 11 link-pair and 16 node
/// re-solves, so the p50 falls mid link group and the p90 mid node group (at
/// 40 events, 8 node samples left the p90 moving 24% between runs).
///   L: fail e1 (exact), fail e2 (exact), restore e1 (exact), restore e2 (hit)
///   N: fail node n (cold exact), fail e (exact), restore n (exact), restore e (hit)
///   P: fail p (precomputed hit), fail e (exact), restore p (exact), restore e (hit)
/// Links e are fresh per episode (never precomputed, never incident to n).
std::vector<a2a::FailureSignature> make_stream(const a2a::DiGraph& g,
                                               const std::vector<a2a::EdgeId>& precomputed,
                                               int events, a2a::Rng& rng) {
  std::set<a2a::EdgeId> used(precomputed.begin(), precomputed.end());
  std::set<a2a::NodeId> used_nodes;
  const auto fresh_edge = [&](a2a::NodeId avoid) {
    for (;;) {
      const a2a::EdgeId e = rng.next_int(0, g.num_edges());
      const a2a::Edge& edge = g.edge(e);
      if (used.count(e) != 0 || edge.from == avoid || edge.to == avoid) continue;
      used.insert(e);
      return e;
    }
  };
  std::vector<a2a::FailureSignature> out;
  const auto push = [&](std::vector<a2a::EdgeId> edges, std::vector<a2a::NodeId> nodes) {
    a2a::FailureSignature sig;
    sig.edges = std::move(edges);
    sig.nodes = std::move(nodes);
    sig.normalize();
    out.push_back(std::move(sig));
  };
  std::size_t next_precomputed = 0;
  for (int episode = 0; static_cast<int>(out.size()) < events; ++episode) {
    if (episode % 5 == 0 || episode % 5 == 2) {
      const a2a::EdgeId e1 = fresh_edge(-1), e2 = fresh_edge(-1);
      push({e1}, {});
      push({e1, e2}, {});
      push({e2}, {});
    } else if (episode % 5 != 4) {
      a2a::NodeId n;
      do {
        n = rng.next_int(0, g.num_nodes());
      } while (!used_nodes.insert(n).second);
      const a2a::EdgeId e = fresh_edge(n);
      push({}, {n});
      push({e}, {n});
      push({e}, {});
    } else {
      const a2a::EdgeId p = precomputed.at(next_precomputed++ % precomputed.size());
      const a2a::EdgeId e = fresh_edge(-1);
      push({p}, {});
      push({p, e}, {});
      push({e}, {});
    }
    push({}, {});
  }
  out.resize(static_cast<std::size_t>(events));
  return out;
}

}  // namespace

void run_failover_stream(const RunConfig& config, RunResult& result) {
  const a2a::DiGraph g = a2a::make_generalized_kautz(27, 4);

  // ---- set-up, repeated; its counts must repeat exactly ---------------------
  std::vector<double> setup_times;
  Setup setup;
  std::optional<std::pair<std::size_t, std::int64_t>> first;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup = Setup{};
    const double t0 = now_s();
    setup = set_up(config, g);
    setup_times.push_back(now_s() - t0);
    const std::pair counts{setup.stored, setup.lp_iterations};
    if (!first) first = counts;
    if (*first != counts) result.fail("nondeterminism: set-up counts differ between repetitions");
  }
  result.e2e("setup_s", median_of(setup_times), "s");
  result.counts["setup.precomputed"] = static_cast<std::int64_t>(setup.stored);
  result.counts["setup.lp_iterations"] = setup.lp_iterations;
  std::fprintf(stderr, "set-up: healthy exact solve + %zu precomputed, median %.3f s\n",
               setup.stored, median_of(setup_times));

  // ---- the event stream -------------------------------------------------------
  a2a::Rng rng(config.seed ^ 0x5eedf00dULL);
  const auto stream = make_stream(g, setup.precomputed,
                                  static_cast<int>(kEventsPerSecond * config.seconds), rng);
  Samples ttv_ms, rung_ms[4], library_ms, validate_ms;
  std::int64_t skipped = 0;
  std::optional<a2a::obs::TraceSession> session;
  const RegistryDelta registry;
  if (config.trace) session.emplace();
  const double t_start = now_s();
  for (std::size_t event = 0; event < stream.size(); ++event) {
    const a2a::FailureSignature& sig = stream[event];
    const std::set<a2a::NodeId> down_nodes(sig.nodes.begin(), sig.nodes.end());
    std::vector<a2a::NodeId> survivors;
    for (a2a::NodeId n = 0; n < g.num_nodes(); ++n) {
      if (down_nodes.count(n) == 0) survivors.push_back(n);
    }
    const a2a::DiGraph degraded = a2a::degraded_topology(g, sig);
    if (survivors.size() < 2 || !a2a::terminals_mutually_reachable(degraded, survivors)) {
      ++skipped;  // no all-to-all exists on this fabric.
      continue;
    }
    ++result.attempted;
    // Time to a valid schedule as the caller sees it: the whole call, timed
    // here. The library's own FailoverResult::elapsed_s is kept only as a
    // per-layer cross-check.
    a2a::FailoverResult r;
    double ms;
    {
      A2A_TRACE_SPAN("bench.op");
      const double t0 = now_s();
      r = setup.manager->reschedule(sig, kDeadlineS);
      ms = (now_s() - t0) * 1e3;
    }
    const auto rung = static_cast<int>(r.rung);
    ttv_ms.add(ms);
    rung_ms[rung].add(ms);
    library_ms.add(r.elapsed_s * 1e3);
    validate_ms.add(r.validate_s * 1e3);

    // Independent re-validation: this benchmark's own degraded graph and
    // survivors, the exact unit check, and the Theorem-1 bound.
    std::string problem;
    if (!r.schedule.path) {
      problem = "no path schedule served";
    } else {
      const auto v = a2a::validate_path_schedule(degraded, *r.schedule.path, survivors);
      const double upper = 1.0 / a2a::collective_time_lower_bound(
                                     degraded, survivors,
                                     a2a::DemandMatrix::uniform(
                                         static_cast<int>(survivors.size())));
      if (!v.ok) {
        problem = "invalid on the degraded topology: " +
                  (v.errors.empty() ? std::string() : v.errors[0]);
      } else if (r.schedule.concurrent_flow > upper * (1.0 + 1e-9)) {
        problem = "F above the Theorem-1 bound";
      }
    }
    if (!problem.empty()) {
      ++result.failed;
      result.fail("event " + std::to_string(event) + " (" + sig.to_string() + "): " + problem);
    }
    std::fprintf(stderr, "  event %2zu %-24s %-6s %9.3f ms\n", event, sig.to_string().c_str(),
                 kRungNames[rung], ms);
  }
  const double measured_s = now_s() - t_start;
  if (session) session->stop();

  const double p50 = ttv_ms.quantile(0.5), p90 = ttv_ms.quantile(0.9);
  result.e2e("p50_ms", p50, "ms");
  result.e2e("tail_ms", p90, "ms");
  result.layer("ttv_p50_ms", p50, "ms");
  result.layer("ttv_p90_ms", p90, "ms");
  result.layer("ttv_samples", static_cast<double>(ttv_ms.count()), "count");
  for (int rung = 0; rung < 4; ++rung) {
    result.counts[std::string("rung.") + kRungNames[rung]] =
        static_cast<std::int64_t>(rung_ms[rung].count());
    result.layer(std::string("failover.rung.") + kRungNames[rung],
                 static_cast<double>(rung_ms[rung].count()), "count");
  }
  result.counts["stream.skipped_disconnected"] = skipped;
  result.counts["stream.lp_iterations"] = registry.value("lp.iterations");
  std::fprintf(stderr,
               "failover_stream: %llu events in %.2f s (%lld skipped); ttv p50 %.3f ms, "
               "p90 %.3f ms; rungs hit %zu exact %zu fptas %zu degraded %zu\n",
               static_cast<unsigned long long>(result.attempted), measured_s,
               static_cast<long long>(skipped), p50, p90, rung_ms[0].count(),
               rung_ms[1].count(), rung_ms[2].count(), rung_ms[3].count());
  if (!session) return;

  // ---- per-layer (traced run) ----------------------------------------------
  const double ops = static_cast<double>(result.attempted);
  result.layer("failover.hit_ms", rung_ms[0].mean(), "ms");
  result.layer("failover.exact_ms", rung_ms[1].mean(), "ms");
  result.layer("failover.validate_ms", validate_ms.mean(), "ms");
  result.layer("failover.library_ttv_ms", library_ms.mean(), "ms");
  result.layer("lp.solve_ms",
               static_cast<double>(registry.sum_ns("lp.solve.seconds")) / 1e6 / ops, "ms");
  for (const char* counter : {"lp.iterations", "lp.refactorizations", "lp.ft_updates"}) {
    result.layer(counter, static_cast<double>(registry.value(counter)) / ops, "count");
  }
  result.layer("trace.p50_ms", p50, "ms");
  result.layer("trace.dropped_events", static_cast<double>(session->dropped()), "count");
  const auto events_seen = session->events();
  const auto caller = span_totals(events_seen, threads_with(events_seen, "bench.op"));
  const auto root = caller.find("bench.op");
  result.layer("remainder_ms", root == caller.end() ? 0.0 : root->second.self_ms / ops, "ms");
  std::fprintf(stderr, "self time per event (caller thread):\n");
  print_self_times(caller, ops, ttv_ms.mean());
}

}  // namespace perfbench
