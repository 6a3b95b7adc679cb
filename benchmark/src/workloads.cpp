#include "workloads.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "apps/query_workload.hpp"
#include "apps/snapshot.hpp"
#include "core/elkin_matar.hpp"
#include "core/interconnect.hpp"
#include "core/popular.hpp"
#include "core/ruling_set.hpp"
#include "core/supercluster.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "net/batch_bridge.hpp"
#include "net/client.hpp"
#include "net/posix_io.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serve/cluster.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "verify/stretch.hpp"

namespace nasbench {

namespace {

namespace apps = nas::apps;
namespace core = nas::core;
namespace graph = nas::graph;
namespace net = nas::net;
namespace serve = nas::serve;
using apps::Query;
using graph::Graph;
using graph::Vertex;
using nas::util::Timer;

// The construction the repo reproduces, with the practical schedule the
// runner and CLIs default to.
constexpr double kEps = 0.25;
constexpr int kKappa = 3;
constexpr double kRho = 0.4;

// Budget: 2 client connections + the server's loop thread + its bridge
// worker fit the 4 cores (nproc) the benchmark is sized for.  With 1 shard
// and 1 replica, serve threads 2 resolve to one execution unit per batch.
constexpr unsigned kConnections = 2;
constexpr unsigned kServeThreads = 2;
/// The checks run after the server has stopped, so they may use all cores.
constexpr unsigned kCheckThreads = 4;

constexpr std::uint64_t kServeGraphSeed = 1;
constexpr int kSetupReps = 5;
/// Serve workloads: seconds of repeated builds behind build_s, half before
/// and half after the pass, so that they sample two moments of the run.
constexpr double kBuildSampleSeconds = 4.0;
constexpr std::uint32_t kStretchSources = 16;
constexpr std::size_t kBoundSources = 16;
constexpr double kTailQ = 0.99;
/// Latency figures are medians over at most this many windows of a pass.
constexpr std::size_t kLatencyWindows = 10;
constexpr std::uint64_t kWarmupBatch = 512;
constexpr std::uint64_t kCheckChunkQueries = 256;
/// Queries generated per connection; a longer pass wraps around.
constexpr std::uint64_t kStreamQueries = std::uint64_t{1} << 19;
constexpr std::uint64_t kRecvTimeoutMs = 30000;
/// A timed pass may overrun --seconds by this much to reach the sample
/// count the tail percentile needs.
constexpr double kPassGraceS = 60.0;

struct Spec {
  std::string family;
  Vertex n = 0;
  std::uint64_t graph_seed = 0;
  /// build-dense: the measured operation is the build, followed by a short
  /// serving tail.  Otherwise the build is set-up and the pass is timed.
  bool measure_builds = false;
  /// The pass runs for this share of --seconds.
  double pass_share = 1.0;
  std::string dist;
  std::uint64_t batch = 0;  ///< 0: "Q u v" lines; else "BATCH <batch>"
  /// Nonzero: requests only use sources [0, hot_sources), every one of them
  /// warmed and cached.
  Vertex hot_sources = 0;
  bool warm_every_source = false;
  std::uint64_t warmup_queries = 0;
};

Spec spec_for(const RunOptions& o) {
  Spec s;
  // build-dense measures the build, so its graph comes from the seed.  The
  // serve workloads serve one fixed graph and draw their requests from the
  // seed: the cost of building small ba graphs varies by up to 2x between
  // graph seeds, which would otherwise swamp their set-up and build figures.
  s.graph_seed = o.workload == "build-dense" ? o.seed : kServeGraphSeed;
  if (o.workload == "build-dense") {
    s.family = "er_dense";
    s.n = o.tiny ? 2048 : 32768;
    s.measure_builds = true;
    // The tail is cache-hot, so its serving figures stay steady next to
    // the build; serve-cold-batch covers the miss path.
    s.pass_share = 0.25;
    s.dist = "uniform";
    s.hot_sources = 256;
    s.warm_every_source = true;
  } else if (o.workload == "serve-hot-q") {
    s.family = "ba";
    s.n = o.tiny ? 512 : 4096;
    s.dist = "zipf";
    s.warm_every_source = true;
  } else if (o.workload == "serve-cold-batch") {
    s.family = "ba";
    s.n = o.tiny ? 1024 : 16384;
    s.dist = "uniform";
    s.batch = 32;
    s.warmup_queries = 2048;
  } else {
    throw std::invalid_argument("unknown workload \"" + o.workload + "\"");
  }
  return s;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return nas::util::mix64(seed * 0x9e3779b97f4a7c15ULL + stream);
}

// --- requests ----------------------------------------------------------------

/// The per-connection request streams of one run.  Request i of
/// connection c is `per_request()` consecutive queries of stream c.
struct Traffic {
  std::uint64_t batch = 0;
  std::vector<std::vector<Query>> streams;

  [[nodiscard]] std::uint64_t per_request() const {
    return std::max<std::uint64_t>(batch, 1);
  }
  [[nodiscard]] std::vector<Query> request(unsigned c, std::uint64_t i) const {
    const auto& s = streams[c];
    const std::uint64_t q = per_request();
    std::vector<Query> out(q);
    for (std::uint64_t j = 0; j < q; ++j) out[j] = s[(i * q + j) % s.size()];
    return out;
  }
};

Traffic make_traffic(const Spec& spec, Vertex n, std::uint64_t seed) {
  apps::WorkloadSpec w;
  w.dist = spec.dist;
  w.queries = kConnections * kStreamQueries;
  w.seed = derive_seed(seed, 1);
  auto all = apps::make_query_workload(n, w);
  if (spec.hot_sources != 0) {
    for (auto& q : all) q.u %= spec.hot_sources;
  }
  Traffic t;
  t.batch = spec.batch;
  for (unsigned c = 0; c < kConnections; ++c) {
    t.streams.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(c * kStreamQueries),
                           all.begin() + static_cast<std::ptrdiff_t>((c + 1) * kStreamQueries));
  }
  return t;
}

/// The untimed warm-up that ends set-up, as BATCH chunks of kWarmupBatch.
std::vector<std::vector<Query>> make_warmup(const Spec& spec, Vertex n,
                                            std::uint64_t seed) {
  std::vector<Query> all;
  if (spec.warm_every_source) {
    const Vertex sources = spec.hot_sources != 0 ? spec.hot_sources : n;
    for (Vertex s = 0; s < sources; ++s) all.push_back(Query{s, (s + 1) % n});
  } else {
    apps::WorkloadSpec w;
    w.dist = "uniform";
    w.queries = spec.warmup_queries;
    w.seed = derive_seed(seed, 2);
    all = apps::make_query_workload(n, w);
  }
  std::vector<std::vector<Query>> chunks;
  for (std::size_t at = 0; at < all.size(); at += kWarmupBatch) {
    const std::size_t end = std::min<std::size_t>(all.size(), at + kWarmupBatch);
    chunks.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(at),
                        all.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return chunks;
}

/// The request as the client puts it on the wire.
std::string wire(std::uint64_t batch, const std::vector<Query>& qs) {
  std::string out;
  if (batch == 0) {
    out = "Q " + std::to_string(qs.front().u) + " " +
          std::to_string(qs.front().v) + "\n";
    return out;
  }
  out = "BATCH " + std::to_string(qs.size()) + "\n";
  for (const auto& q : qs) {
    out += std::to_string(q.u);
    out += ' ';
    out += std::to_string(q.v);
    out += '\n';
  }
  return out;
}

/// Parses one "<u> <v> <d>" reply line ("inf" when unreachable) for the
/// query it answers.  False on ERR, malformed lines, or the wrong pair.
bool parse_answer(const std::string& line, const Query& q, std::uint32_t* d) {
  const char* p = line.data();
  const char* end = p + line.size();
  std::uint64_t u = 0;
  std::uint64_t v = 0;
  auto r = std::from_chars(p, end, u);
  if (r.ec != std::errc{} || r.ptr == end || *r.ptr != ' ') return false;
  r = std::from_chars(r.ptr + 1, end, v);
  if (r.ec != std::errc{} || r.ptr == end || *r.ptr != ' ') return false;
  if (u != q.u || v != q.v) return false;
  const std::string_view rest(r.ptr + 1, static_cast<std::size_t>(end - r.ptr - 1));
  if (rest == "inf") {
    *d = graph::kInfDist;
    return true;
  }
  std::uint32_t value = 0;
  const auto rd = std::from_chars(rest.data(), rest.data() + rest.size(), value);
  if (rd.ec != std::errc{} || rd.ptr != rest.data() + rest.size()) return false;
  *d = value;
  return true;
}

// --- the served spanner ------------------------------------------------------

/// A snapshot file under the work directory, removed on scope exit.
class TempSnapshot {
 public:
  TempSnapshot(const std::string& dir, const std::string& tag)
      : path_((std::filesystem::path(dir) /
               (tag + "-" + std::to_string(::getpid()) + ".nas2"))
                  .string()) {}
  ~TempSnapshot() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  TempSnapshot(const TempSnapshot&) = delete;
  TempSnapshot& operator=(const TempSnapshot&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

net::ServerOptions server_options() {
  net::ServerOptions o;
  o.listen = "127.0.0.1";
  o.port = 0;
  o.serve_threads = kServeThreads;
  return o;
}

/// The in-process server: the cluster loaded from a snapshot, served on a
/// loopback ephemeral port by its own event-loop thread.
class ServedSpanner {
 public:
  explicit ServedSpanner(std::unique_ptr<serve::ShardedCluster> cluster)
      : cluster_(std::move(cluster)),
        server_(*cluster_, server_options()),
        loop_([this] { run_loop(); }) {}
  ~ServedSpanner() { stop(); }
  ServedSpanner(const ServedSpanner&) = delete;
  ServedSpanner& operator=(const ServedSpanner&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] Vertex universe() const { return cluster_->universe(); }

  /// Stops the server, joins its loop, and rethrows a loop failure.
  void finish() {
    stop();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void run_loop() noexcept {
    try {
      server_.run();
    } catch (...) {
      error_ = std::current_exception();
    }
  }
  void stop() {
    if (!loop_.joinable()) return;
    server_.request_stop();
    loop_.join();
  }

  std::unique_ptr<serve::ShardedCluster> cluster_;
  net::Server server_;
  std::exception_ptr error_;
  std::thread loop_;  // last: starts after the members it uses exist
};

std::unique_ptr<serve::ShardedCluster> load_cluster(const std::string& path) {
  return std::make_unique<serve::ShardedCluster>(
      serve::ShardedCluster::from_snapshot_files({path}));
}

/// Sends the warm-up chunks over one connection; a failure aborts set-up.
void send_warmup(std::uint16_t port,
                 const std::vector<std::vector<Query>>& chunks) {
  net::LineClient client("127.0.0.1", port, kRecvTimeoutMs);
  for (const auto& chunk : chunks) {
    client.send(wire(chunk.size(), chunk));
    const auto lines = client.recv_lines(chunk.size());
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      std::uint32_t d = 0;
      if (!parse_answer(lines[k], chunk[k], &d)) {
        throw std::runtime_error("warm-up reply rejected: " + lines[k]);
      }
    }
  }
}

/// Pulls one unsigned field out of the one-line STATS JSON reply.
std::uint64_t stats_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) {
    throw std::runtime_error("STATS reply has no \"" + key + "\" field");
  }
  std::uint64_t v = 0;
  const char* begin = json.data() + at + needle.size();
  const auto r = std::from_chars(begin, json.data() + json.size(), v);
  if (r.ec != std::errc{}) throw std::runtime_error("bad STATS field " + key);
  return v;
}

std::string fetch_stats(std::uint16_t port) {
  net::LineClient client("127.0.0.1", port, kRecvTimeoutMs);
  client.send("STATS\n");
  auto line = client.recv_line();
  if (!line) throw std::runtime_error("no STATS reply");
  return *line;
}

// --- the client pass ---------------------------------------------------------

/// One closed-loop pass over kConnections connections.
struct Pass {
  std::vector<std::uint64_t> completed;            ///< requests, per connection
  std::vector<std::vector<std::uint8_t>> ok;       ///< per request
  std::vector<std::vector<double>> rtt_s;          ///< per request
  std::vector<std::vector<double>> start_s;        ///< per request
  std::vector<std::vector<std::uint32_t>> answers; ///< flattened, per connection

  [[nodiscard]] std::vector<double> ok_rtts() const {
    std::vector<double> out;
    for (std::size_t c = 0; c < rtt_s.size(); ++c) {
      for (std::size_t i = 0; i < rtt_s[c].size(); ++i) {
        if (ok[c][i] != 0) out.push_back(rtt_s[c][i]);
      }
    }
    return out;
  }
};

/// Span request id of request i on connection c (also used by the replay).
std::uint64_t request_id(unsigned c, std::uint64_t i) {
  return (static_cast<std::uint64_t>(c) << 40) | i;
}

/// Runs the closed loop: each connection sends its next request only after
/// the previous reply.  The pass runs for `seconds` and until
/// `min_requests` replies have arrived.  Request start times are read from
/// `spans`' clock when it is given.
Pass run_pass(std::uint16_t port, const Traffic& traffic, double seconds,
              std::uint64_t min_requests,
              const SpanLog* spans, FailureCounter& failures) {
  Pass pass;
  pass.completed.assign(kConnections, 0);
  pass.ok.resize(kConnections);
  pass.rtt_s.resize(kConnections);
  pass.start_s.resize(kConnections);
  pass.answers.resize(kConnections);
  std::vector<std::vector<std::string>> errors(kConnections);
  std::vector<std::uint64_t> failed(kConnections, 0);
  std::vector<std::uint64_t> died(kConnections, 0);
  std::atomic<std::uint64_t> done{0};
  const Timer clock;
  // Traced passes read the span log's clock so client spans share its
  // time base; Timer reads are const and safe from any thread.
  const auto now = [&] { return spans != nullptr ? spans->now() : clock.seconds(); };

  const auto keep_going = [&] {
    const double t = clock.seconds();
    if (t >= seconds + kPassGraceS) return false;
    return t < seconds || done.load(std::memory_order_relaxed) < min_requests;
  };
  const auto note = [&](unsigned c, std::string what) {
    ++failed[c];
    if (errors[c].size() < 4) errors[c].push_back(std::move(what));
  };
  const auto body = [&](unsigned c) {
    try {
      net::LineClient client("127.0.0.1", port, kRecvTimeoutMs);
      for (std::uint64_t i = 0;; ++i) {
        if (!keep_going()) break;
        const auto qs = traffic.request(c, i);
        const std::string text = wire(traffic.batch, qs);
        const double start = now();
        client.send(text);
        std::vector<std::string> lines;
        if (traffic.batch == 0) {
          auto line = client.recv_line();
          if (!line) throw std::runtime_error("server closed the connection");
          lines.push_back(std::move(*line));
        } else {
          lines = client.recv_lines(qs.size());
        }
        const double end = now();
        bool good = true;
        for (std::size_t k = 0; k < qs.size(); ++k) {
          std::uint32_t d = graph::kInfDist;
          if (!parse_answer(lines[k], qs[k], &d) && good) {
            note(c, "request " + std::to_string(request_id(c, i)) + " got \"" +
                        lines[k] + "\"");
            good = false;
          }
          pass.answers[c].push_back(d);
        }
        pass.ok[c].push_back(good ? 1 : 0);
        pass.rtt_s[c].push_back(end - start);
        pass.start_s[c].push_back(start);
        done.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const std::exception& e) {
      // Refused, disconnected or timed out: the in-flight request fails
      // and this connection stops.
      died[c] = 1;
      note(c, "connection " + std::to_string(c) + ": " + e.what());
    }
    pass.completed[c] = pass.ok[c].size();
  };

  std::vector<std::thread> threads;
  threads.reserve(kConnections);
  for (unsigned c = 0; c < kConnections; ++c) threads.emplace_back(body, c);
  for (auto& t : threads) t.join();

  for (unsigned c = 0; c < kConnections; ++c) {
    failures.attempt(pass.completed[c] + died[c]);
    for (std::uint64_t k = 0; k < failed[c]; ++k) {
      failures.fail(k < errors[c].size() ? errors[c][k] : "request failed");
    }
  }
  return pass;
}

/// The pass's requests in the fixed replay order: request 0 of every
/// connection, then request 1, and so on.  Each instance of a replay sees
/// the requests in this order, so its cache history is deterministic.
struct Sequence {
  std::vector<std::pair<unsigned, std::uint64_t>> order;
  std::vector<Query> queries;          ///< flattened, in order
  std::vector<std::uint32_t> sizes;    ///< queries per request
  std::vector<std::uint32_t> served;   ///< TCP answers, flattened
  std::vector<std::uint8_t> ok;        ///< per request
  std::vector<double> client_rtt_s;    ///< per request
};

Sequence replay_sequence(const Pass& pass, const Traffic& traffic) {
  Sequence seq;
  std::uint64_t longest = 0;
  for (const auto c : pass.completed) longest = std::max(longest, c);
  const std::uint64_t q = traffic.per_request();
  for (std::uint64_t i = 0; i < longest; ++i) {
    for (unsigned c = 0; c < kConnections; ++c) {
      if (i >= pass.completed[c]) continue;
      seq.order.emplace_back(c, i);
      const auto qs = traffic.request(c, i);
      seq.queries.insert(seq.queries.end(), qs.begin(), qs.end());
      seq.sizes.push_back(static_cast<std::uint32_t>(q));
      const auto first = pass.answers[c].begin() + static_cast<std::ptrdiff_t>(i * q);
      seq.served.insert(seq.served.end(), first, first + static_cast<std::ptrdiff_t>(q));
      seq.ok.push_back(pass.ok[c][i]);
      seq.client_rtt_s.push_back(pass.rtt_s[c][i]);
    }
  }
  return seq;
}

/// Keeps only the answers of requests the client accepted, so a request
/// that already failed on the wire is not counted twice.
void filter_ok(const Sequence& seq, std::span<const std::uint32_t> answers,
               std::vector<std::uint32_t>* served,
               std::vector<std::uint32_t>* other,
               std::vector<std::uint32_t>* sizes) {
  std::size_t at = 0;
  for (std::size_t r = 0; r < seq.sizes.size(); ++r) {
    const std::size_t end = at + seq.sizes[r];
    if (seq.ok[r] != 0) {
      served->insert(served->end(), seq.served.begin() + static_cast<std::ptrdiff_t>(at),
                     seq.served.begin() + static_cast<std::ptrdiff_t>(end));
      other->insert(other->end(), answers.begin() + static_cast<std::ptrdiff_t>(at),
                    answers.begin() + static_cast<std::ptrdiff_t>(end));
      sizes->push_back(seq.sizes[r]);
    }
    at = end;
  }
}

std::uint64_t compare_with_served(const Sequence& seq,
                                  std::span<const std::uint32_t> answers,
                                  FailureCounter& failures) {
  std::vector<std::uint32_t> served;
  std::vector<std::uint32_t> other;
  std::vector<std::uint32_t> sizes;
  filter_ok(seq, answers, &served, &other, &sizes);
  return check_answers_match(served, other, sizes, failures);
}

/// The served answers must equal an in-process batch_query over the same
/// requests (digest and request by request), and the answers of the first
/// kBoundSources distinct sources must lie in [d_G, α·d_G + β].
void check_pass(const Sequence& seq, const std::string& snapshot,
                const Graph& g, FailureCounter& failures) {
  const auto oracle = apps::SpannerDistanceOracle::load_file(snapshot);
  // An answer is d_H(u, v) whatever the order and the cache state, so the
  // reference asks for the queries grouped by source: each distinct source
  // then costs about one BFS.  The answers go back into request order.
  const std::size_t n = seq.queries.size();
  std::vector<std::size_t> by_source(n);
  std::iota(by_source.begin(), by_source.end(), std::size_t{0});
  std::stable_sort(by_source.begin(), by_source.end(),
                   [&](std::size_t a, std::size_t b) {
                     return seq.queries[a].u < seq.queries[b].u;
                   });
  std::vector<std::uint32_t> reference(n, 0);
  std::vector<Query> chunk;
  for (std::size_t at = 0; at < n; at += kCheckChunkQueries) {
    const std::size_t end = std::min<std::size_t>(n, at + kCheckChunkQueries);
    chunk.clear();
    for (std::size_t k = at; k < end; ++k) chunk.push_back(seq.queries[by_source[k]]);
    const auto part = oracle.batch_query(chunk, kCheckThreads);
    for (std::size_t k = at; k < end; ++k) reference[by_source[k]] = part[k - at];
  }
  std::vector<std::uint32_t> served;
  std::vector<std::uint32_t> in_process;
  std::vector<std::uint32_t> sizes;
  filter_ok(seq, reference, &served, &in_process, &sizes);
  const std::uint64_t served_digest = apps::digest_answers(served);
  const std::uint64_t reference_digest = apps::digest_answers(in_process);
  std::printf("# answer digest: served %016llx, batch_query %016llx\n",
              static_cast<unsigned long long>(served_digest),
              static_cast<unsigned long long>(reference_digest));
  if (check_answers_match(served, in_process, sizes, failures) == 0 &&
      served_digest != reference_digest) {
    failures.fail("served answer digest differs from batch_query's");
  }

  std::vector<Vertex> sources;
  std::set<Vertex> seen;
  for (const auto& q : seq.queries) {
    if (sources.size() == kBoundSources) break;
    if (seen.insert(q.u).second) sources.push_back(q.u);
  }
  for (const Vertex s : sources) {
    const auto d_g = graph::bfs(g, s).dist;
    std::size_t k = 0;
    for (std::size_t r = 0; r < seq.sizes.size(); ++r) {
      bool good = true;
      for (std::uint32_t j = 0; j < seq.sizes[r]; ++j, ++k) {
        const Query& q = seq.queries[k];
        if (q.u != s || seq.ok[r] == 0) continue;
        good = good && within_guarantee(seq.served[k], d_g[q.v],
                                        oracle.multiplicative(),
                                        oracle.additive());
      }
      if (!good) {
        failures.fail("request " + std::to_string(r) +
                      ": answer outside [d_G, alpha*d_G + beta]");
      }
    }
  }
}

// --- builds ------------------------------------------------------------------

core::Params params_for(const Graph& g) {
  return core::Params::practical(g.num_vertices(), kEps, kKappa, kRho);
}

core::SpannerResult build(const Graph& g, const core::Params& params) {
  core::BuildOptions options;
  options.validate = false;
  return core::build_spanner(g, params, options);
}

/// Degenerate builds and sampled stretch violations count as failures.
/// Returns the number of (u, v) pairs the stretch check compared.
std::uint64_t check_build(const Graph& g, const core::SpannerResult& r,
                          std::uint64_t seed, FailureCounter& failures) {
  if (r.trace.phases.empty() || r.trace.phases.front().num_popular == 0) {
    failures.fail("degenerate build: phase 0 found no popular cluster");
  } else if (r.edges.size() == g.num_edges()) {
    failures.fail("degenerate build: H = E");
  }
  const auto report = nas::verify::verify_stretch_sampled(
      g, r.spanner, r.params.stretch_multiplicative(),
      r.params.stretch_additive(), kStretchSources, derive_seed(seed, 3),
      kCheckThreads);
  if (!report.bound_ok || !report.connectivity_ok) {
    failures.fail("sampled stretch check failed: d_H > alpha*d_G + beta");
  }
  return report.pairs_checked;
}

/// What every run reports about the spanner it built.
struct BuildInfo {
  std::uint64_t edges = 0;
  std::uint64_t rounds = 0;
};

void write_snapshot(core::SpannerResult&& r, const std::string& path) {
  apps::SpannerDistanceOracle(std::move(r))
      .save_file(path, apps::SnapshotFormat::kV2);
}

// --- the traced core replay --------------------------------------------------

/// The phase loop of core::build_spanner (validation off), replayed through
/// the four public step functions with a span around each call.
struct CoreReplay {
  graph::EdgeSet edges;
  nas::congest::Ledger ledger;
  double wall_s = 0.0;
  std::uint64_t alg1_rounds = 0, alg1_messages = 0, alg1_knowledge = 0;
  std::uint64_t ruling_rounds = 0, rulers = 0;
  std::uint64_t super_rounds = 0, super_edges = 0;
  std::uint64_t inter_rounds = 0, inter_edges = 0, inter_paths = 0;
  std::uint64_t popular_total = 0, phases_active = 0;

  explicit CoreReplay(Vertex n) : edges(n) {}
};

CoreReplay replay_core(const Graph& g, const core::Params& params,
                       SpanLog& spans, SpanLog::Id parent) {
  const auto alg1_name = spans.name("core.alg1");
  const auto ruling_name = spans.name("core.ruling");
  const auto super_name = spans.name("core.super");
  const auto inter_name = spans.name("core.inter");
  CoreReplay out(g.num_vertices());
  const Timer wall;
  core::ClusterState clusters(g.num_vertices());
  auto& ledger = out.ledger;
  for (int i = 0; i <= params.ell(); ++i) {
    const core::PhaseSchedule& sched = params.phase(i);
    const std::string phase = "phase " + std::to_string(i);
    const std::vector<Vertex> centers = clusters.centers();
    if (!centers.empty()) ++out.phases_active;
    std::uint64_t cap = sched.deg;
    if (sched.concluding) {
      cap = std::max<std::uint64_t>(cap, centers.size());
      ledger.begin_section(phase + " count clusters");
      ledger.charge_rounds(2 * static_cast<std::uint64_t>(g.num_vertices()));
    }

    ledger.begin_section(phase + " algorithm1");
    std::optional<core::Algorithm1Result> alg1;
    {
      const ScopedSpan span(spans, alg1_name, parent, static_cast<std::uint64_t>(i));
      alg1.emplace(core::run_algorithm1(g, centers, sched.delta, cap, &ledger));
    }
    out.alg1_rounds += alg1->rounds_charged;
    out.alg1_messages += alg1->messages;
    for (const auto& list : alg1->knowledge) out.alg1_knowledge += list.size();
    std::vector<Vertex> popular;
    for (const Vertex rc : centers) {
      if (alg1->popular[rc] != 0) popular.push_back(rc);
    }
    out.popular_total += popular.size();

    std::vector<Vertex> u_centers;
    if (!sched.concluding) {
      ledger.begin_section(phase + " ruling set");
      std::optional<core::RulingSetResult> ruling;
      {
        const ScopedSpan span(spans, ruling_name, parent, static_cast<std::uint64_t>(i));
        ruling.emplace(core::compute_ruling_set(
            g, popular, sched.q, params.c(), params.ruling_base(), &ledger));
      }
      out.ruling_rounds += ruling->rounds_charged;
      out.rulers += ruling->rulers.size();

      ledger.begin_section(phase + " superclustering");
      std::optional<core::SuperclusterResult> super;
      {
        const ScopedSpan span(spans, super_name, parent, static_cast<std::uint64_t>(i));
        super.emplace(core::build_superclusters(g, clusters, ruling->rulers,
                                                sched.forest_depth, sched.radius,
                                                out.edges, &ledger));
      }
      out.super_rounds += super->rounds_charged;
      out.super_edges += super->edges_added;
      for (const Vertex rc : centers) {
        if (super->forest_root[rc] == graph::kInvalidVertex) {
          u_centers.push_back(rc);
        }
      }
    } else {
      u_centers = centers;
    }

    ledger.begin_section(phase + " interconnection");
    std::optional<core::InterconnectResult> inter;
    {
      const ScopedSpan span(spans, inter_name, parent, static_cast<std::uint64_t>(i));
      inter.emplace(core::interconnect(g, u_centers, *alg1, sched.delta, cap,
                                       out.edges, &ledger));
    }
    out.inter_rounds += inter->rounds_charged;
    out.inter_edges += inter->edges_added;
    out.inter_paths += inter->paths_installed;
    for (const Vertex rc : u_centers) clusters.settle_cluster(rc, i);
  }
  out.wall_s = wall.seconds();
  return out;
}

// --- the traced serve-layer replay -------------------------------------------

/// Submits one batch to a BatchBridge and waits for its completion on the
/// bridge's wakeup pipe.
std::vector<std::uint32_t> bridge_roundtrip(net::BatchBridge& bridge,
                                            int wake_fd,
                                            std::vector<Query> queries) {
  net::BatchJob job;
  job.kind = net::BatchJob::Kind::kBatch;
  job.queries = std::move(queries);
  if (!bridge.try_submit(std::move(job))) {
    throw std::runtime_error("bridge refused a job with an empty queue");
  }
  for (;;) {
    pollfd p{wake_fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(kRecvTimeoutMs));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) throw std::runtime_error("bridge did not complete a job");
    char buf[64];
    while (net::read_some(wake_fd, buf, sizeof buf).status ==
           net::IoStatus::kOk) {
    }
    auto done = bridge.drain_completions();
    if (done.empty()) continue;
    if (!done.front().error.empty()) {
      throw std::runtime_error("bridge job failed: " + done.front().error);
    }
    return std::move(done.front().answers);
  }
}

/// Parses the request's wire bytes the way the server does: line framing,
/// then the command line, then the BATCH body lines.
std::vector<Query> parse_wire(const std::string& text, Vertex universe) {
  const net::ServerOptions limits = server_options();
  std::size_t pos = 0;
  std::string line;
  const auto next = [&] {
    if (net::next_line(text, &pos, limits.max_line_bytes, &line) !=
        net::LineStatus::kLine) {
      throw std::runtime_error("request framing lost");
    }
  };
  next();
  const auto head = net::parse_request_line(line, universe, limits.max_batch);
  if (!head.ok) throw std::runtime_error("request rejected: " + head.error);
  if (head.request.kind == net::Request::Kind::kQuery) {
    return {head.request.query};
  }
  std::vector<Query> out;
  out.reserve(head.request.batch_size);
  for (std::uint64_t k = 0; k < head.request.batch_size; ++k) {
    next();
    const auto body = net::parse_batch_line(line, universe);
    if (!body.ok) throw std::runtime_error("batch line rejected: " + body.error);
    out.push_back(body.request.query);
  }
  return out;
}

struct LayerTotals {
  std::uint64_t bytes_in = 0, bytes_out = 0;
  apps::BatchStats oracle;  ///< summed over the replayed requests
  std::uint64_t oracle_calls = 0;
};

/// Replays the pass's requests, in replay order, through four fresh
/// instances that each saw the same warm-up: the protocol functions, a
/// BatchBridge over its own cluster, a ShardedCluster, and an oracle.  Each
/// call is timed on its own instance, parent layer first; self times are
/// differences between adjacent layers.  Every instance must reproduce the
/// served answers.
LayerTotals replay_layers(const std::string& snapshot, const Traffic& traffic,
                          const std::vector<std::vector<Query>>& warmup,
                          const Sequence& seq, SpanLog& spans,
                          FailureCounter& failures) {
  const auto request_name = spans.name("replay.request");
  const auto parse_name = spans.name("net.protocol.parse");
  const auto bridge_name = spans.name("net.bridge.roundtrip");
  const auto cluster_name = spans.name("serve.cluster.serve");
  const auto oracle_name = spans.name("apps.oracle.batch_query");
  const auto render_name = spans.name("net.protocol.render");

  const net::WakeupPipe wake = net::open_wakeup_pipe();
  const auto bridge_cluster = load_cluster(snapshot);
  net::BatchBridge bridge(*bridge_cluster, kServeThreads,
                          server_options().queue_depth, wake.write_end.get());
  const auto cluster = load_cluster(snapshot);
  const auto oracle = apps::SpannerDistanceOracle::load_file(snapshot);
  const Vertex universe = cluster->universe();

  for (const auto& chunk : warmup) {
    (void)bridge_roundtrip(bridge, wake.read_end.get(), chunk);
    (void)cluster->serve(chunk, kServeThreads);
    (void)oracle.batch_query(chunk, 1);
  }

  LayerTotals totals;
  std::vector<std::uint32_t> via_bridge, via_cluster, via_oracle;
  via_bridge.reserve(seq.served.size());
  via_cluster.reserve(seq.served.size());
  via_oracle.reserve(seq.served.size());
  bool parse_ok = true;
  for (std::size_t r = 0; r < seq.order.size(); ++r) {
    const auto [c, i] = seq.order[r];
    const std::uint64_t id = request_id(c, i);
    const auto queries = traffic.request(c, i);
    const std::string text = wire(traffic.batch, queries);
    const ScopedSpan root(spans, request_name, SpanLog::kNoParent, id);

    std::vector<Query> parsed;
    {
      const ScopedSpan span(spans, parse_name, root.id(), id);
      parsed = parse_wire(text, universe);
    }
    totals.bytes_in += text.size();
    parse_ok = parse_ok && parsed.size() == queries.size() &&
               std::equal(parsed.begin(), parsed.end(), queries.begin(),
                          [](const Query& a, const Query& b) {
                            return a.u == b.u && a.v == b.v;
                          });

    std::vector<std::uint32_t> answers;
    const auto bridge_span = spans.begin(bridge_name, root.id(), id);
    answers = bridge_roundtrip(bridge, wake.read_end.get(), parsed);
    spans.end(bridge_span);
    via_bridge.insert(via_bridge.end(), answers.begin(), answers.end());

    const auto cluster_span = spans.begin(cluster_name, bridge_span.id, id);
    answers = cluster->serve(parsed, kServeThreads);
    spans.end(cluster_span);
    via_cluster.insert(via_cluster.end(), answers.begin(), answers.end());

    apps::BatchStats stats;
    const auto oracle_span = spans.begin(oracle_name, cluster_span.id, id);
    answers = oracle.batch_query(parsed, 1, &stats);
    spans.end(oracle_span);
    via_oracle.insert(via_oracle.end(), answers.begin(), answers.end());
    ++totals.oracle_calls;
    totals.oracle.distinct_sources += stats.distinct_sources;
    totals.oracle.cache_hits += stats.cache_hits;
    totals.oracle.bfs_passes += stats.bfs_passes;
    totals.oracle.evictions += stats.evictions;

    std::ostringstream os;
    {
      const ScopedSpan span(spans, render_name, root.id(), id);
      apps::write_answers(parsed, answers, os);
    }
    totals.bytes_out += os.str().size();
  }
  bridge.shutdown();

  if (!parse_ok) failures.fail("protocol replay parsed different queries");
  const std::pair<const char*, const std::vector<std::uint32_t>*> layers[] = {
      {"bridge", &via_bridge}, {"cluster", &via_cluster}, {"oracle", &via_oracle}};
  for (const auto& [layer, answers] : layers) {
    FailureCounter local;
    if (compare_with_served(seq, *answers, local) > 0) {
      failures.fail(std::string("replay fidelity: the ") + layer +
                    " replay does not reproduce the served answers");
    }
  }
  return totals;
}

// --- the runs ----------------------------------------------------------------

void report_rtts(const Pass& pass, std::uint64_t queries_per_request,
                 Report& report) {
  std::vector<Completion> done;
  for (std::size_t c = 0; c < pass.rtt_s.size(); ++c) {
    for (std::size_t i = 0; i < pass.rtt_s[c].size(); ++i) {
      if (pass.ok[c][i] != 0) {
        done.push_back({pass.start_s[c][i] + pass.rtt_s[c][i], pass.rtt_s[c][i]});
      }
    }
  }
  const std::size_t samples = done.size();
  const WindowedLatency w = windowed_latency(
      std::move(done), 0.0, queries_per_request, kTailQ, kLatencyWindows);
  report.set("qps", w.qps, "1/s");
  report.set("rtt_p50_ms", 1e3 * w.p50_s, "ms");
  report.set("rtt_p99_ms", 1e3 * w.tail_s, "ms");
  std::printf(
      "# rtt samples %zu in %zu windows of >= %zu; >= %llu beyond p99 per window "
      "(at least %llu required)\n",
      samples, w.windows, w.samples_per_window,
      static_cast<unsigned long long>(samples_beyond(w.samples_per_window, kTailQ)),
      static_cast<unsigned long long>(kTailSamples));
  std::printf("# windows (qps p50_ms p99_ms):");
  for (std::size_t k = 0; k < w.windows; ++k) {
    std::printf(" %.4g/%.4g/%.4g", w.window_qps[k], 1e3 * w.window_p50_s[k],
                1e3 * w.window_tail_s[k]);
  }
  std::printf("\n");
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

bool run_untraced(const RunOptions& o, const Spec& spec, Report& report) {
  FailureCounter& failures = report.failures();
  const std::uint64_t min_requests = samples_needed(kTailQ, kTailSamples);
  const TempSnapshot snapshot(o.work_dir, o.workload);
  std::vector<double> setup_s;
  std::vector<double> build_s;
  Graph g;
  BuildInfo info;
  std::unique_ptr<ServedSpanner> served;
  std::vector<std::vector<Query>> warmup;
  std::uint64_t first_digest = 0;  ///< every build must reproduce it

  if (spec.measure_builds) {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const Timer t;
      g = graph::make_workload(spec.family, spec.n, spec.graph_seed);
      setup_s.push_back(t.seconds());
    }
    const auto params = params_for(g);
    std::optional<core::SpannerResult> first;
    const Timer window;
    do {
      failures.attempt();
      try {
        const Timer t;
        auto r = build(g, params);
        build_s.push_back(t.seconds());
        const std::uint64_t digest = digest_edges(r.edges.edges());
        if (!first) {
          (void)check_build(g, r, o.seed, failures);
          first_digest = digest;
          first.emplace(std::move(r));
        } else if (digest != first_digest) {
          failures.fail("a repeated build produced a different spanner");
        }
      } catch (const std::exception& e) {
        failures.fail(std::string("build threw: ") + e.what());
      }
    } while (window.seconds() < o.seconds);
    if (!first) throw std::runtime_error("no build succeeded");
    info = {first->edges.size(), first->ledger.rounds()};

    // The serving tail's set-up is part of set-up time.
    const Timer t;
    write_snapshot(std::move(*first), snapshot.path());
    served = std::make_unique<ServedSpanner>(load_cluster(snapshot.path()));
    warmup = make_warmup(spec, served->universe(), o.seed);
    send_warmup(served->port(), warmup);
    const double tail_setup = t.seconds();
    for (auto& s : setup_s) s += tail_setup;
  } else {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      served.reset();  // the previous set-up's server, outside the timing
      Timer t;
      g = graph::make_workload(spec.family, spec.n, spec.graph_seed);
      const auto params = params_for(g);
      failures.attempt();
      const Timer tb;
      auto r = build(g, params);
      build_s.push_back(tb.seconds());
      double elapsed = t.seconds();
      const std::uint64_t digest = digest_edges(r.edges.edges());
      if (rep == 0) {
        (void)check_build(g, r, o.seed, failures);
        first_digest = digest;
      } else if (digest != first_digest) {
        failures.fail("a repeated build produced a different spanner");
      }
      info = {r.edges.size(), r.ledger.rounds()};
      t.reset();
      write_snapshot(std::move(r), snapshot.path());
      served = std::make_unique<ServedSpanner>(load_cluster(snapshot.path()));
      warmup = make_warmup(spec, served->universe(), o.seed);
      send_warmup(served->port(), warmup);
      elapsed += t.seconds();
      setup_s.push_back(elapsed);
    }
  }

  // The serve workloads' set-up builds take milliseconds; repeat them,
  // outside set-up, so build_s is a median over kBuildSampleSeconds.
  const auto more_builds = [&](double seconds) {
    if (spec.measure_builds) return;
    const auto params = params_for(g);
    const Timer spent;
    while (spent.seconds() < seconds) {
      failures.attempt();
      const Timer tb;
      const auto r = build(g, params);
      build_s.push_back(tb.seconds());
      if (digest_edges(r.edges.edges()) != first_digest) {
        failures.fail("a repeated build produced a different spanner");
      }
    }
  };
  more_builds(kBuildSampleSeconds / 2);
  const Traffic traffic = make_traffic(spec, served->universe(), o.seed);
  const Pass pass = run_pass(served->port(), traffic, o.seconds * spec.pass_share,
                             min_requests, nullptr, failures);
  served->finish();
  more_builds(kBuildSampleSeconds / 2);
  check_pass(replay_sequence(pass, traffic), snapshot.path(), g, failures);

  report.set("setup_s", median(setup_s), "s");
  report.set("build_s", median(build_s), "s");
  report.set("spanner_edges", static_cast<double>(info.edges), "count");
  report.set("congest_rounds", static_cast<double>(info.rounds), "count");
  report_rtts(pass, traffic.per_request(), report);
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  return failures.failed() == 0;
}

bool run_traced(const RunOptions& o, const Spec& spec, Report& report) {
  FailureCounter& failures = report.failures();
  SpanLog spans;
  const std::uint64_t min_requests = samples_needed(kTailQ, kTailSamples);
  const TempSnapshot snapshot(o.work_dir, o.workload + "-traced");

  Graph g;
  {
    const ScopedSpan span(spans, spans.name("graph.gen"));
    g = graph::make_workload(spec.family, spec.n, spec.graph_seed);
  }
  const auto params = params_for(g);

  // The untraced build is the reference the replay must reproduce.
  failures.attempt();
  std::optional<core::SpannerResult> ref;
  double build_wall = 0.0;
  {
    const ScopedSpan span(spans, spans.name("core.build_spanner"));
    const Timer t;
    ref.emplace(build(g, params));
    build_wall = t.seconds();
  }
  failures.attempt();
  const auto replay_name = spans.name("core.replay");
  const auto replay_span = spans.begin(replay_name);
  const CoreReplay core_replay = replay_core(g, params, spans, replay_span.id);
  spans.end(replay_span);
  if (core_replay.edges.edges() != ref->edges.edges() ||
      core_replay.ledger.rounds() != ref->ledger.rounds() ||
      core_replay.ledger.messages() != ref->ledger.messages()) {
    failures.fail(
        "replay fidelity: the core replay does not reproduce build_spanner's "
        "edge list and ledger");
  }
  std::uint64_t pairs_checked = 0;
  {
    const ScopedSpan span(spans, spans.name("verify.stretch"));
    pairs_checked = check_build(g, *ref, o.seed, failures);
  }

  {
    const ScopedSpan span(spans, spans.name("apps.snapshot.write"));
    write_snapshot(std::move(*ref), snapshot.path());
  }
  const auto snapshot_bytes = std::filesystem::file_size(snapshot.path());
  std::unique_ptr<serve::ShardedCluster> loaded;
  {
    const ScopedSpan span(spans, spans.name("apps.snapshot.load"));
    loaded = load_cluster(snapshot.path());
  }
  std::unique_ptr<ServedSpanner> served;
  {
    const ScopedSpan span(spans, spans.name("net.server.start"));
    served = std::make_unique<ServedSpanner>(std::move(loaded));
  }
  const auto warmup = make_warmup(spec, served->universe(), o.seed);
  {
    const ScopedSpan span(spans, spans.name("net.warmup"));
    send_warmup(served->port(), warmup);
  }

  // Untraced, then traced: the same closed loop, the second one keeping
  // every request's start and end for the span log.
  const Traffic traffic = make_traffic(spec, served->universe(), o.seed);
  const double half = o.seconds * spec.pass_share / 2.0;
  const Pass plain =
      run_pass(served->port(), traffic, half, min_requests, nullptr, failures);
  const Pass pass =
      run_pass(served->port(), traffic, half, min_requests, &spans, failures);
  const std::string stats = fetch_stats(served->port());
  served->finish();
  const auto client_name = spans.name("net.client.request");
  for (unsigned c = 0; c < kConnections; ++c) {
    for (std::size_t i = 0; i < pass.rtt_s[c].size(); ++i) {
      spans.add(client_name, pass.start_s[c][i],
                pass.start_s[c][i] + pass.rtt_s[c][i], SpanLog::kNoParent,
                request_id(c, i));
    }
  }
  const Sequence seq = replay_sequence(pass, traffic);
  check_pass(seq, snapshot.path(), g, failures);
  failures.attempt();
  const LayerTotals layers =
      replay_layers(snapshot.path(), traffic, warmup, seq, spans, failures);

  // --- per-layer metrics ---
  report.set("graph.gen_s", spans.total_s("graph.gen"), "s");
  report.set("core.alg1_s", spans.total_s("core.alg1"), "s");
  report.set("core.alg1_rounds", static_cast<double>(core_replay.alg1_rounds), "count");
  report.set("core.alg1_messages", static_cast<double>(core_replay.alg1_messages), "count");
  report.set("core.alg1_knowledge", static_cast<double>(core_replay.alg1_knowledge), "count");
  report.set("core.ruling_s", spans.total_s("core.ruling"), "s");
  report.set("core.ruling_rounds", static_cast<double>(core_replay.ruling_rounds), "count");
  report.set("core.rulers", static_cast<double>(core_replay.rulers), "count");
  report.set("core.super_s", spans.total_s("core.super"), "s");
  report.set("core.super_rounds", static_cast<double>(core_replay.super_rounds), "count");
  report.set("core.super_edges", static_cast<double>(core_replay.super_edges), "count");
  report.set("core.inter_s", spans.total_s("core.inter"), "s");
  report.set("core.inter_rounds", static_cast<double>(core_replay.inter_rounds), "count");
  report.set("core.inter_edges", static_cast<double>(core_replay.inter_edges), "count");
  report.set("core.inter_paths", static_cast<double>(core_replay.inter_paths), "count");
  report.set("core.popular_total", static_cast<double>(core_replay.popular_total), "count");
  report.set("core.phases_active", static_cast<double>(core_replay.phases_active), "count");
  const double steps = spans.total_s("core.alg1") + spans.total_s("core.ruling") +
                       spans.total_s("core.super") + spans.total_s("core.inter");
  report.set("core.attributed_share", steps / core_replay.wall_s, "ratio");
  report.set("verify.stretch_s", spans.total_s("verify.stretch"), "s");
  report.set("verify.pairs_checked", static_cast<double>(pairs_checked), "count");
  report.set("apps.snapshot.write_s", spans.total_s("apps.snapshot.write"), "s");
  report.set("apps.snapshot.load_s", spans.total_s("apps.snapshot.load"), "s");
  report.set("apps.snapshot.bytes", static_cast<double>(snapshot_bytes), "bytes");

  const double oracle_s = spans.total_s("apps.oracle.batch_query");
  const double cluster_s = spans.total_s("serve.cluster.serve");
  const double bridge_s = spans.total_s("net.bridge.roundtrip");
  const double parse_s = spans.total_s("net.protocol.parse");
  const double render_s = spans.total_s("net.protocol.render");
  double client_s = 0.0;
  for (const double r : seq.client_rtt_s) client_s += r;
  const auto& os = layers.oracle;
  report.set("apps.oracle.busy_s", oracle_s, "s");
  report.set("apps.oracle.calls", static_cast<double>(layers.oracle_calls), "count");
  report.set("apps.oracle.bfs_passes", static_cast<double>(os.bfs_passes), "count");
  report.set("apps.oracle.cache_hits", static_cast<double>(os.cache_hits), "count");
  report.set("apps.oracle.distinct_sources", static_cast<double>(os.distinct_sources), "count");
  report.set("apps.oracle.hit_ratio",
             os.distinct_sources == 0 ? 0.0
                                      : static_cast<double>(os.cache_hits) /
                                            static_cast<double>(os.distinct_sources),
             "ratio");
  report.set("apps.oracle.evictions", static_cast<double>(os.evictions), "count");
  report.set("apps.oracle.bytes_materialized",
             static_cast<double>(os.bfs_passes) * 4.0 *
                 static_cast<double>(served->universe()),
             "bytes");
  report.set("serve.cluster.busy_s", cluster_s, "s");
  report.set_self_time("serve.cluster.self_s", cluster_s, {oracle_s});
  report.set("net.protocol.parse_s", parse_s, "s");
  report.set("net.protocol.render_s", render_s, "s");
  report.set("net.protocol.bytes_in", static_cast<double>(layers.bytes_in), "bytes");
  report.set("net.protocol.bytes_out", static_cast<double>(layers.bytes_out), "bytes");
  report.set("net.bridge.roundtrip_s", bridge_s, "s");
  report.set_self_time("net.bridge.self_s", bridge_s, {cluster_s});
  report.set("net.client.rtt_s", client_s, "s");
  report.set_self_time("net.socket.self_s", client_s, {bridge_s, parse_s, render_s});
  report.set("net.server.protocol_errors",
             static_cast<double>(stats_field(stats, "protocol_errors")), "count");
  report.set("net.server.rejected",
             static_cast<double>(stats_field(stats, "connections_rejected")), "count");

  // The traced result over the untraced one, for the workload's measured
  // operation: the build, or the mean request round trip.
  const double overhead =
      spec.measure_builds ? core_replay.wall_s / build_wall
                          : mean(pass.ok_rtts()) / mean(plain.ok_rtts());
  report.set("trace.overhead_ratio", overhead, "ratio");
  report.set("trace.negative_self_times",
             static_cast<double>(report.negative_self_times()), "count");
  report.set("trace.spans", static_cast<double>(spans.recorded()), "count");

  const std::string path =
      (std::filesystem::path(o.work_dir) /
       ("spans-" + o.workload + "-" + std::to_string(o.seed) + ".jsonl"))
          .string();
  spans.write_jsonl(path);
  std::printf("# %zu of %llu spans written to %s\n", spans.kept(),
              static_cast<unsigned long long>(spans.recorded()), path.c_str());
  return failures.failed() == 0;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"build-dense", "serve-hot-q",
                                                 "serve-cold-batch"};
  return names;
}

bool run_workload(const RunOptions& options, Report& report) {
  const Spec spec = spec_for(options);
  std::filesystem::create_directories(options.work_dir);
  return options.trace ? run_traced(options, spec, report)
                       : run_untraced(options, spec, report);
}

}  // namespace nasbench
