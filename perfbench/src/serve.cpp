// serve_hits / serve_mixed: the schedule daemon stack (ScheduleCache with a
// disk tier -> ScheduleBroker -> AdmissionQueue -> ScheduleServer, wired as
// tools/schedserved.cpp wires it) on a loopback port, driven open-loop over
// at most four keep-alive connections.
//
//   serve_hits   a pre-warmed working set larger than the broker's hot tier,
//                requests drawn by Zipf popularity at a fixed reference rate
//                (and, in the traced run, a rate ladder for max_rate_rps).
//   serve_mixed  the same hits on two connections plus an open-loop stream
//                of 41 misses (each a real request costing 10-150 ms) on two
//                more; every ninth miss repeats the previous one 1 ms later,
//                while it is still in flight, to exercise coalescing.
//
// Every latency is timed from when the request was due. Every served
// payload is byte-compared with reference bytes minted in set-up by the
// library itself (in a child process), and each distinct payload is decoded
// and validated once.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "container/schedbin.hpp"
#include "core/schedule_cache.hpp"
#include "obs/trace.hpp"
#include "service/admission.hpp"
#include "service/broker.hpp"
#include "service/request.hpp"
#include "service/server.hpp"

namespace perfbench {

namespace {

/// Connections (and client threads) the load may use: the box's four cores.
constexpr int kConnections = 4;
/// Offered hit rate of the reference phase, requests per second. At 1000/s
/// the hit latency was mostly thread wake-up time on idle cores (p50 0.15 ms
/// against 0.11 ms at 4000/s).
constexpr double kReferenceRate = 4000.0;
/// The existing service SLO the ladder holds: hit p99 at most 1 ms.
constexpr double kSloP99Ms = 1.0;
/// The generator's own bound: a phase whose p99 timer oversleep exceeds this
/// or that leaves more than kMaxBacklogShare of its requests unsent at its
/// end is invalid, not a latency.
constexpr double kMaxLateMs = 5.0;
constexpr double kMaxBacklogShare = 0.005;
/// Zipf exponent of hit popularity over the working set.
constexpr double kZipfS = 1.0;
constexpr int kSetupReps = 3;

// ---- request vocabulary ------------------------------------------------------

/// The hit working set: real request variants (perm:, zipf:, block:,
/// collective=rs, uniform) whose payloads span ~1 to ~53 KB. 87 entries,
/// more than the broker's 64-entry hot tier.
std::vector<std::string> working_set_queries() {
  std::vector<std::string> q;
  const std::string gk = "topology=genkautz&degree=4&fabric=cerio&nodes=";
  for (int k = 1; k <= 30; ++k) q.push_back(gk + "32&demand=perm:" + std::to_string(k));
  for (int k = 1; k <= 20; ++k) {
    q.push_back("topology=torus3d&dims=3x3x3&fabric=cerio&demand=perm:" +
                std::to_string(k));
  }
  for (int k = 1; k <= 16; ++k) q.push_back(gk + "64&demand=perm:" + std::to_string(k));
  for (const char* s : {"0.8", "1", "1.2", "1.4", "1.6"}) {
    q.push_back(gk + "16&demand=zipf:" + s);
  }
  for (const char* b : {"2", "4", "5"}) q.push_back(gk + "20&demand=block:" + b);
  for (int k = 1; k <= 8; ++k) {
    q.push_back("topology=genkautz&nodes=10&degree=4&fabric=gpu&demand=perm:" +
                std::to_string(k));
  }
  q.push_back(gk + "16");
  q.push_back(gk + "16&collective=rs");
  q.push_back("topology=hypercube&dim=4&fabric=cerio");
  q.push_back(gk + "27&demand=zipf:1.2");
  q.push_back(gk + "64");
  return q;
}

/// The miss list: 41 real requests, none in the working set, each costing
/// 10-150 ms to synthesize. Sixteen cheap ones (<= 25 ms), nine GenKautz(64)
/// permutations (~35-45 ms) in the middle, sixteen heavy ones (>= 50 ms).
/// Every run serves the whole list in a seeded order, so its composition is
/// fixed and the median miss is always one of the middle nine.
std::vector<std::string> miss_queries() {
  std::vector<std::string> q;
  const std::string gk = "topology=genkautz&degree=4&fabric=cerio&nodes=";
  const std::string gpu = "topology=genkautz&degree=4&fabric=gpu&nodes=";
  const auto perm = [](int k) { return "&demand=perm:" + std::to_string(k); };
  for (int k = 2001; k <= 2006; ++k) q.push_back(gk + "48" + perm(k));
  for (int k = 2001; k <= 2005; ++k) q.push_back(gpu + "12" + perm(k));
  for (int k = 2001; k <= 2005; ++k) q.push_back(gpu + "14" + perm(k));
  for (int k = 2001; k <= 2009; ++k) q.push_back(gk + "64" + perm(k));
  for (const char* s : {"0.9", "1", "1.1", "1.3", "1.4", "1.5", "1.6"}) {
    q.push_back(gk + "64&demand=zipf:" + s);
  }
  for (const char* b : {"2", "4", "8", "16"}) q.push_back(gk + "64&demand=block:" + b);
  q.push_back(gk + "32&demand=block:4");
  q.push_back(gk + "27&demand=block:3");
  q.push_back(gk + "27&demand=zipf:0.8");
  q.push_back("topology=ring&nodes=8&fabric=oneccl");
  q.push_back(gpu + "8");
  return q;
}

/// One request with its reference artifact, minted by the library.
struct Reference {
  std::string query;
  std::string fingerprint;
  std::string bytes;  ///< the SchedBin frame the daemon must serve.
  double synth_ms = 0.0;
};

/// Decodes a payload and validates it against the schedule's graph,
/// terminals and demand, independently of the byte comparison.
std::string decode_and_check(const a2a::GeneratedSchedule& schedule,
                             const a2a::WorkloadSpec& workload, const std::string& payload) {
  try {
    a2a::GeneratedSchedule decoded = schedule;
    if (decoded.link) {
      decoded.link = a2a::link_schedule_from_schedbin(payload);
    } else {
      decoded.path = a2a::path_schedule_from_schedbin(decoded.schedule_graph, payload);
    }
    return check_schedule(decoded, workload);
  } catch (const std::exception& e) {
    return std::string("decode: ") + e.what();
  }
}

/// Mints every reference with the library on kConnections threads:
/// synthesize, check, encode, then decode the bytes and validate them once
/// (the daemon must serve exactly these bytes, compared on every reply).
/// Returns the references and, per reference, its first problem or "".
std::pair<std::vector<Reference>, std::vector<std::string>> mint_here(
    const std::vector<std::string>& queries) {
  std::vector<Reference> refs(queries.size());
  std::vector<std::string> problems(queries.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < queries.size();) {
        Reference& r = refs[i];
        std::string& problem = problems[i];
        r.query = queries[i];
        try {
          const auto request = a2a::service::parse_service_request(r.query);
          const a2a::DiGraph g = a2a::service::build_topology(request.spec);
          const a2a::Fabric fabric = a2a::service::build_fabric(request.fabric);
          const a2a::WorkloadSpec& workload = request.options.workload;
          r.fingerprint = a2a::schedule_fingerprint(g, fabric, request.options);
          const double t0 = now_s();
          const auto schedule = a2a::synthesize_schedule(g, fabric, request.options);
          r.synth_ms = (now_s() - t0) * 1e3;
          problem = check_schedule(schedule, workload);
          r.bytes = encode_schedule(schedule);
          if (problem.empty()) {
            problem = decode_and_check(schedule, workload, r.bytes);
            if (!problem.empty()) problem = "decoded: " + problem;
          }
        } catch (const std::exception& e) {
          problem = e.what();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return {std::move(refs), std::move(problems)};
}

void put_string(std::ofstream& out, const std::string& s) {
  const std::uint64_t size = s.size();
  out.write(reinterpret_cast<const char*>(&size), sizeof size);
  out.write(s.data(), static_cast<std::streamsize>(size));
}

bool get_string(std::ifstream& in, std::string& s) {
  std::uint64_t size = 0;
  if (!in.read(reinterpret_cast<char*>(&size), sizeof size)) return false;
  s.resize(size);
  return static_cast<bool>(in.read(s.data(), static_cast<std::streamsize>(size)));
}

/// Mints the references in a child process and reads back only their
/// strings, so that the syntheses and the schedules they leave behind never
/// count in this process's peak RSS: on serve_* peak_rss_mb is the daemon
/// plus the client and the reference bytes. Must be called before this
/// process starts any thread.
std::vector<Reference> mint(const std::vector<std::string>& queries,
                            const std::string& work_dir, RunResult& result) {
  const std::string path = work_dir + "/references.bin";
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 1;
    try {
      const auto [refs, problems] = mint_here(queries);
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      for (std::size_t i = 0; i < refs.size(); ++i) {
        put_string(out, refs[i].query);
        put_string(out, refs[i].fingerprint);
        put_string(out, refs[i].bytes);
        put_string(out, problems[i]);
        out.write(reinterpret_cast<const char*>(&refs[i].synth_ms), sizeof(double));
      }
      out.close();
      code = out ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "minting references: %s\n", e.what());
    }
    std::fflush(stderr);
    ::_exit(code);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the process minting the references failed");
  }
  std::vector<Reference> refs(queries.size());
  {
    std::ifstream in(path, std::ios::binary);
    for (Reference& r : refs) {
      std::string problem;
      if (!get_string(in, r.query) || !get_string(in, r.fingerprint) ||
          !get_string(in, r.bytes) || !get_string(in, problem) ||
          !in.read(reinterpret_cast<char*>(&r.synth_ms), sizeof(double))) {
        throw std::runtime_error("truncated reference file " + path);
      }
      if (!problem.empty()) result.fail("reference " + r.query + ": " + problem);
    }
  }
  std::filesystem::remove(path);
  return refs;
}

// ---- the daemon ----------------------------------------------------------------

/// The schedserved stack in-process. Member order is the service's lifetime
/// rule: cache outlives pool outlives broker; the server is torn down first.
struct Daemon {
  explicit Daemon(const std::string& cache_dir)
      : cache(make_cache_options(cache_dir)),
        broker(&cache, &pool),
        admission(&broker),
        server(&admission, make_server_options()) {
    server.start();
  }
  static a2a::ScheduleCacheOptions make_cache_options(const std::string& dir) {
    a2a::ScheduleCacheOptions o;
    o.disk_dir = dir;
    return o;
  }
  static a2a::service::ServerOptions make_server_options() {
    a2a::service::ServerOptions o;
    o.port = 0;
    o.threads = kConnections;
    return o;
  }

  a2a::ScheduleCache cache;
  a2a::ThreadPool pool;
  a2a::service::ScheduleBroker broker;
  a2a::service::AdmissionQueue admission;
  a2a::service::ScheduleServer server;
};

// ---- a minimal keep-alive HTTP/1.1 client ----------------------------------------

struct Reply {
  int status = 0;
  bool hit = false;
  bool coalesced = false;
  std::string body;
  std::size_t wire_bytes = 0;  ///< header + body bytes received.
};

class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("cannot connect to 127.0.0.1:" + std::to_string(port));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// GET `target`; status 0 when the connection failed.
  Reply get(const std::string& target) {
    Reply reply;
    const std::string request =
        "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    if (!send_all(request)) return reply;
    std::size_t header_end;
    while ((header_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!fill()) return reply;
    }
    const std::string_view head(buf_.data(), header_end);
    if (head.size() < 12) return reply;
    const int status = std::atoi(std::string(head.substr(9, 3)).c_str());
    const auto header = [&](const char* name) -> std::string_view {
      const std::size_t at = head.find(name);
      if (at == std::string_view::npos) return {};
      const std::size_t start = at + std::strlen(name);
      return head.substr(start, head.find("\r\n", start) - start);
    };
    const std::size_t length =
        std::strtoull(std::string(header("Content-Length: ")).c_str(), nullptr, 10);
    reply.hit = header("X-A2A-Hit: ") == "1";
    reply.coalesced = header("X-A2A-Coalesced: ") == "1";
    const std::size_t total = header_end + 4 + length;
    while (buf_.size() < total) {
      if (!fill()) return reply;
    }
    reply.body.assign(buf_, header_end + 4, length);
    reply.wire_bytes = total;
    buf_.erase(0, total);
    reply.status = status;
    return reply;
  }

 private:
  bool send_all(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }
  bool fill() {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

// ---- the open-loop generator ---------------------------------------------------

/// One request of an open-loop stream: when it is due and which reference
/// it asks for.
struct Due {
  double at;  ///< seconds from phase start.
  int ref;
};

struct StreamStats {
  Samples latency_ms;  ///< from due to last byte.
  Samples rtt_ms;      ///< from send to last byte.
  Samples late_ms;     ///< timer oversleep: send minus due (or pick-up).
  std::size_t backlog = 0;  ///< requests sent after the phase ended.
  std::size_t wire_bytes = 0, payload_bytes = 0;
  std::uint64_t attempted = 0, failed = 0, hits = 0, coalesced = 0;

  void merge(const StreamStats& o) {
    latency_ms.append(o.latency_ms);
    rtt_ms.append(o.rtt_ms);
    late_ms.append(o.late_ms);
    backlog += o.backlog;
    wire_bytes += o.wire_bytes;
    payload_bytes += o.payload_bytes;
    attempted += o.attempted;
    failed += o.failed;
    hits += o.hits;
    coalesced += o.coalesced;
  }
  [[nodiscard]] bool valid(double phase_requests) const {
    return late_ms.quantile(0.99) <= kMaxLateMs &&
           static_cast<double>(backlog) <= kMaxBacklogShare * phase_requests;
  }
};

/// A stream: its schedule, its reference set, its connections, and which
/// requests it times (repeated misses are served and checked, not timed).
struct Stream {
  std::vector<Due> schedule;
  const std::vector<Reference>* refs = nullptr;
  int connections = 1;
  std::vector<bool> timed;  ///< per schedule entry; empty = all timed.
  StreamStats stats;
};

/// Runs every stream concurrently, each request on the stream's next free
/// connection, until every request has completed. One thread per
/// connection, kConnections in total.
void run_streams(std::uint16_t port, std::vector<Stream*> streams,
                 double duration_s, std::vector<std::string>& errors) {
  std::mutex mutex;
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<std::atomic<std::size_t>>> next;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    next.push_back(std::make_unique<std::atomic<std::size_t>>(0));
  }
  const double t0 = now_s() + 0.01;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (int c = 0; c < streams[s]->connections; ++c) {
      threads.emplace_back([&, s] {
        Stream& stream = *streams[s];
        StreamStats local;
        std::optional<Connection> conn;
        try {
          conn.emplace(port);
        } catch (const std::exception& e) {
          std::lock_guard lock(mutex);
          errors.push_back(e.what());
          return;
        }
        for (std::size_t i; (i = next[s]->fetch_add(1)) < stream.schedule.size();) {
          const Due& due = stream.schedule[i];
          const Reference& ref = (*stream.refs)[static_cast<std::size_t>(due.ref)];
          const double picked = now_s();
          sleep_until_s(t0 + due.at);
          const double sent = now_s();
          const Reply reply = conn->get("/schedule?" + ref.query);
          const double done = now_s();
          ++local.attempted;
          local.late_ms.add((sent - std::max(t0 + due.at, picked)) * 1e3);
          if (sent - t0 > duration_s) ++local.backlog;
          if (reply.status != 200 || reply.body != ref.bytes) {
            ++local.failed;
            std::lock_guard lock(mutex);
            errors.push_back("request " + ref.query + ": status " +
                             std::to_string(reply.status) +
                             (reply.status == 200 ? ", payload differs from the reference"
                                                  : ""));
            if (reply.status == 0) break;  // connection lost.
            continue;
          }
          if (stream.timed.empty() || stream.timed[i]) {
            local.latency_ms.add((done - (t0 + due.at)) * 1e3);
            local.rtt_ms.add((done - sent) * 1e3);
          }
          local.hits += reply.hit ? 1 : 0;
          local.coalesced += reply.coalesced ? 1 : 0;
          local.wire_bytes += reply.wire_bytes;
          local.payload_bytes += reply.body.size();
        }
        std::lock_guard lock(mutex);
        stream.stats.merge(local);
      });
    }
  }
  for (auto& t : threads) t.join();
}

/// Poisson arrivals at `rate` over `duration_s`, refs drawn by Zipf
/// popularity. The popularity ranking is fixed (one constant shuffle of the
/// working set), so every seed serves the same mix of payload sizes and of
/// hot-tier and mmap hits; the seed drives arrival times and draws.
std::vector<Due> zipf_poisson(a2a::Rng& rng, double rate, double duration_s,
                              int num_refs) {
  std::vector<int> rank(static_cast<std::size_t>(num_refs));
  for (int i = 0; i < num_refs; ++i) rank[static_cast<std::size_t>(i)] = i;
  a2a::Rng ranking(0x5eed);
  ranking.shuffle(rank);
  std::vector<double> cdf;
  double total = 0.0;
  for (int r = 0; r < num_refs; ++r) {
    total += std::pow(r + 1.0, -kZipfS);
    cdf.push_back(total);
  }
  std::vector<Due> out;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= duration_s) break;
    const double u = rng.next_double() * total;
    const auto r = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    out.push_back({t, rank[std::min(r, rank.size() - 1)]});
  }
  return out;
}

/// Warms a fresh daemon with every reference over kConnections connections,
/// checking each payload against its reference.
void warm(std::uint16_t port, const std::vector<Reference>& refs,
          std::vector<std::string>& errors) {
  Stream stream;
  stream.refs = &refs;
  stream.connections = kConnections;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    stream.schedule.push_back({0.0, static_cast<int>(i)});
  }
  run_streams(port, {&stream}, 1e9, errors);
}

}  // namespace

void run_serve(const RunConfig& config, bool mixed, RunResult& result) {
  // ---- set-up: references, then the daemon started and warmed, repeated ----
  const double mint_t0 = now_s();
  const std::vector<Reference> hits = mint(working_set_queries(), config.work_dir, result);
  const std::vector<Reference> misses =
      mixed ? mint(miss_queries(), config.work_dir, result) : std::vector<Reference>{};
  const double mint_s = now_s() - mint_t0;
  for (const Reference& r : misses) {
    std::fprintf(stderr, "  miss reference %-70s %8.2f ms %7zu B\n", r.query.c_str(),
                 r.synth_ms, r.bytes.size());
  }
  std::vector<double> setup_times;
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::string> errors;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    dir.reset();
    const double t0 = now_s();
    dir = std::make_unique<TempDir>(config.work_dir, "daemon_cache");
    daemon = std::make_unique<Daemon>(dir->path());
    warm(daemon->server.port(), hits, errors);
    setup_times.push_back(now_s() - t0);
  }
  result.e2e("setup_s", median_of(setup_times), "s");
  std::fprintf(stderr,
               "set-up: %zu working-set + %zu miss references minted in %.2f s; "
               "daemon start + warm median %.3f s\n",
               hits.size(), misses.size(), mint_s, median_of(setup_times));
  const std::uint16_t port = daemon->server.port();

  // ---- the measured phase -------------------------------------------------
  a2a::Rng rng(config.seed);
  Stream hit_stream;
  hit_stream.refs = &hits;
  hit_stream.connections = mixed ? kConnections / 2 : kConnections;
  hit_stream.schedule = zipf_poisson(rng, kReferenceRate, config.seconds,
                                     static_cast<int>(hits.size()));
  Stream miss_stream;
  if (mixed) {
    miss_stream.refs = &misses;
    miss_stream.connections = kConnections / 2;
    std::vector<int> order(misses.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    rng.shuffle(order);
    const double gap = config.seconds / static_cast<double>(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      const double at = (static_cast<double>(i) + 0.5 * rng.next_double()) * gap;
      miss_stream.schedule.push_back({at, order[i]});
      miss_stream.timed.push_back(true);
      if (i % 9 == 8) {  // a repeat of a fingerprint still in flight.
        miss_stream.schedule.push_back({at + 1e-3, order[i]});
        miss_stream.timed.push_back(false);
      }
    }
  }
  std::vector<Stream*> streams{&hit_stream};
  if (mixed) streams.push_back(&miss_stream);

  std::optional<a2a::obs::TraceSession> session;
  const RegistryDelta registry;
  if (config.trace) session.emplace();
  run_streams(port, streams, config.seconds, errors);
  if (session) session->stop();

  for (const std::string& e : errors) result.fail(e);
  for (const Stream* s : streams) {
    result.attempted += s->stats.attempted;
    result.failed += s->stats.failed;
  }
  const StreamStats& h = hit_stream.stats;
  const double hit_p50 = h.latency_ms.quantile(0.5);
  const double hit_p99 = h.latency_ms.quantile(0.99);
  StreamStats generator = h;
  if (mixed) generator.merge(miss_stream.stats);
  const double phase_requests =
      static_cast<double>(hit_stream.schedule.size() + miss_stream.schedule.size());
  if (!generator.valid(phase_requests)) {
    result.fail("generator fell behind: late p99 " +
                std::to_string(generator.late_ms.quantile(0.99)) + " ms, backlog " +
                std::to_string(generator.backlog) + " — phase invalid");
  }
  std::fprintf(stderr,
               "hits: %zu samples at %.0f/s, p50 %.4f ms, p75 %.4f ms, p90 %.4f ms, "
               "p99 %.4f ms; generator late p99 %.4f ms, backlog %zu\n",
               h.latency_ms.count(), kReferenceRate, hit_p50, h.latency_ms.quantile(0.75),
               h.latency_ms.quantile(0.9), hit_p99,
               generator.late_ms.quantile(0.99), generator.backlog);
  result.layer("hit_p50_ms", hit_p50, "ms");
  result.layer("hit_p90_ms", h.latency_ms.quantile(0.9), "ms");
  result.layer("hit_p99_ms", hit_p99, "ms");
  result.layer("hit_samples", static_cast<double>(h.latency_ms.count()), "count");
  result.layer("gen.late_ms_p99", generator.late_ms.quantile(0.99), "ms");
  result.layer("gen.backlog", static_cast<double>(generator.backlog), "count");
  if (h.hits != h.attempted - h.failed) {
    result.fail("a working-set request was not served as a hit");
  }
  result.counts["hit.bytes_served"] = static_cast<std::int64_t>(h.payload_bytes);
  result.counts["hit.requests"] = static_cast<std::int64_t>(h.attempted);

  const StreamStats& m = miss_stream.stats;
  if (mixed) {
    const double miss_p50 = m.latency_ms.quantile(0.5);
    const double miss_p90 = m.latency_ms.quantile(0.9);
    result.e2e("p50_ms", miss_p50, "ms");
    result.e2e("tail_ms", miss_p90, "ms");
    result.layer("miss_p50_ms", miss_p50, "ms");
    result.layer("miss_p90_ms", miss_p90, "ms");
    result.layer("miss_samples", static_cast<double>(m.latency_ms.count()), "count");
    std::fprintf(stderr, "misses: %zu samples, p50 %.3f ms, p90 %.3f ms; %llu coalesced\n",
                 m.latency_ms.count(), miss_p50, miss_p90,
                 static_cast<unsigned long long>(m.coalesced));
    result.counts["miss.requests"] = static_cast<std::int64_t>(m.attempted);
    result.counts["miss.bytes_served"] = static_cast<std::int64_t>(m.payload_bytes);
    result.counts["miss.syntheses"] = registry.value("service.syntheses");
    result.counts["miss.pipeline_runs"] = registry.value("pipeline.runs");
    // Each distinct miss is synthesized exactly once, coalesced or not.
    if (registry.value("service.syntheses") != static_cast<std::int64_t>(misses.size())) {
      result.fail("expected " + std::to_string(misses.size()) + " syntheses, saw " +
                  std::to_string(registry.value("service.syntheses")));
    }
  } else {
    // The end-to-end tail is p75. On a shared 4-core host a stall of the
    // host delays client and server alike: in such runs the hit p99 read
    // 2-5x and the p90 up to 2.6x its usual value, the p50 1.25x. p90 and
    // p99 stay per-layer figures, and the ladder holds p99 to the SLO.
    result.e2e("p50_ms", hit_p50, "ms");
    result.e2e("tail_ms", h.latency_ms.quantile(0.75), "ms");
  }
  if (!session) return;

  // ---- per-layer (traced run) ----------------------------------------------
  const auto events = session->events();
  const auto spans = span_totals(events);
  const double hits_served = static_cast<double>(h.hits);
  const std::int64_t hot = registry.value("service.hot_hits");
  const std::int64_t artifact = registry.value("service.artifact_hits");
  const double server_us = registry.mean_ms("service.hit_seconds") * 1e3;
  result.layer("broker.hot_hit_ratio",
               hot + artifact > 0 ? static_cast<double>(hot) / static_cast<double>(hot + artifact)
                                  : 0.0,
               "ratio");
  const auto lookup = spans.find("cache.lookup_artifact");
  result.layer("cache.lookup_artifact_us",
               lookup == spans.end() ? 0.0 : lookup->second.durations_ms.quantile(0.5) * 1e3,
               "us");
  result.layer("service.server_mean_us", server_us, "us");
  result.layer("transport.overhead_us", h.rtt_ms.mean() * 1e3 - server_us, "us");
  result.layer("transport.bytes_per_hit",
               hits_served > 0 ? static_cast<double>(h.wire_bytes) / hits_served : 0.0,
               "bytes");
  result.layer("container.encoded_bytes",
               hits_served > 0 ? static_cast<double>(h.payload_bytes) / hits_served : 0.0,
               "bytes");
  result.layer("trace.p50_ms", mixed ? m.latency_ms.quantile(0.5) : hit_p50, "ms");
  result.layer("trace.dropped_events", static_cast<double>(session->dropped()), "count");
  // Accounting per hit: client latency = generator/connection queueing +
  // transport (HTTP, request parse, topology build) + server admission.
  result.layer("remainder_ms", h.latency_ms.mean() - h.rtt_ms.mean(), "ms");
  if (mixed) {
    const double synth_ms = registry.mean_ms("service.synth_seconds");
    result.layer("service.synth_ms", synth_ms, "ms");
    result.layer("admission.wait_ms", m.latency_ms.mean() - synth_ms, "ms");
    result.layer("service.syntheses",
                 static_cast<double>(registry.value("service.syntheses")), "count");
    result.layer("service.coalesced",
                 static_cast<double>(registry.value("service.coalesced")), "count");
    result.layer("service.rejected",
                 static_cast<double>(registry.value("service.rejected_queue_full")),
                 "count");
    result.layer("service.shed",
                 static_cast<double>(registry.value("service.shed_deadline")), "count");
    const auto insert = spans.find("cache.insert");
    result.layer("core.cache_insert_ms",
                 insert == spans.end() ? 0.0 : insert->second.durations_ms.mean(), "ms");
    result.layer("cache.disk_writes",
                 static_cast<double>(registry.value("cache.disk_writes")), "count");
    result.layer("cache.insertions",
                 static_cast<double>(registry.value("cache.insertions")), "count");
    const std::int64_t syntheses = registry.value("service.syntheses");
    result.layer("lp.solve_ms",
                 syntheses > 0 ? static_cast<double>(registry.sum_ns("lp.solve.seconds")) /
                                     1e6 / static_cast<double>(syntheses)
                               : 0.0,
                 "ms");
  }
  std::fprintf(stderr,
               "per hit: client rtt %.1f us = server admission %.1f us + transport "
               "%.1f us; queueing from due %.1f us\n",
               h.rtt_ms.mean() * 1e3, server_us, h.rtt_ms.mean() * 1e3 - server_us,
               (h.latency_ms.mean() - h.rtt_ms.mean()) * 1e3);

  // Direct broker fast path over the working set, Zipf-drawn.
  Samples try_lookup_us;
  for (const Due& d : zipf_poisson(rng, 2000.0, 1.0, static_cast<int>(hits.size()))) {
    const double t0 = now_s();
    const auto view = daemon->broker.try_lookup(hits[static_cast<std::size_t>(d.ref)].fingerprint);
    try_lookup_us.add((now_s() - t0) * 1e6);
    if (!view || view->schedbin() != hits[static_cast<std::size_t>(d.ref)].bytes) {
      result.fail("try_lookup missed or served other bytes");
      break;
    }
  }
  result.layer("broker.try_lookup_us", try_lookup_us.quantile(0.5), "us");

  if (mixed) return;
  // Rate ladder: the highest offered rate whose hit p99 meets the SLO with a
  // valid generator (bounded lateness, no growing backlog).
  double max_rate = 0.0;
  for (const double rate : {4000.0, 6000.0, 8000.0, 12000.0, 16000.0, 24000.0, 32000.0}) {
    Stream step;
    step.refs = &hits;
    step.connections = kConnections;
    const double seconds = 0.75;
    step.schedule = zipf_poisson(rng, rate, seconds,
                                 static_cast<int>(hits.size()));
    std::vector<std::string> step_errors;
    run_streams(port, {&step}, seconds, step_errors);
    const double p99 = step.stats.latency_ms.quantile(0.99);
    const bool held = step_errors.empty() &&
                      step.stats.valid(static_cast<double>(step.schedule.size())) &&
                      p99 <= kSloP99Ms;
    std::fprintf(stderr, "ladder %6.0f/s: p50 %.4f ms, p99 %.4f ms, late p99 %.4f ms, "
                 "backlog %zu -> %s\n",
                 rate, step.stats.latency_ms.quantile(0.5), p99,
                 step.stats.late_ms.quantile(0.99), step.stats.backlog,
                 held ? "held" : "missed");
    for (const std::string& e : step_errors) result.fail(e);
    if (!held) break;
    max_rate = rate;
  }
  result.layer("max_rate_rps", max_rate, "1/s");
}

}  // namespace perfbench
