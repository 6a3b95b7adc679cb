// nas_serve — build or warm a sharded serving cluster and serve batches.
//
// The cluster-scale counterpart to nas_oracle: where nas_oracle operates one
// DistanceOracle, nas_serve partitions serving across N shard oracles behind
// a deterministic Router (serve::ShardedCluster) — the process shape of a
// partitioned deployment, driven from one binary so CI can compare it
// byte-for-byte against the single-oracle baseline.
//
//   # build from a generated graph, serve a zipfian batch over 8 shards
//   ./nas_serve --family er --n 2000 --eps 0.25 --shards 8 --partition hash
//               --workload zipf --queries 20000 --answers out.txt
//
//   # warm every shard from a NAS-ORACLE snapshot (one path = shared by
//   # every shard; a comma list = one snapshot per shard)
//   ./nas_serve --load oracle.naso --shards 8 --workload zipf --queries 20000
//
//   # answer an explicit query file ("u v" lines, '#' comments)
//   ./nas_serve --load oracle.naso --shards 4 --query-file pairs.txt
//
// The answers file has one "u v d" line per request in request order — the
// same format nas_oracle writes — and is byte-identical at every --shards,
// --partition, --threads, --cache-budget, and --bfs-kernel value.  CI's
// serving-cluster gate cmp's it against the nas_oracle output for the same
// workload.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/query_workload.hpp"
#include "apps/snapshot.hpp"
#include "core/params.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "run/scenario.hpp"
#include "serve/cluster.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

using namespace nas;

int main(int argc, char** argv) {
  try {
    util::Flags flags(argc, argv);

    // Cluster source: snapshot path(s), or a graph + schedule to build from.
    const std::string load_spec = flags.str(
        "load", "",
        "warm shards from snapshot path(s): one path is shared by every "
        "shard, a comma list is one snapshot per shard");
    const std::string family = flags.str(
        "family", "er", "graph family (or file:<path> for an edge list)");
    const auto n = static_cast<graph::Vertex>(
        flags.integer("n", 1024, "target vertex count (generated families)"));
    const auto seed = static_cast<std::uint64_t>(
        flags.integer("seed", 1, "graph generator seed"));
    const double eps = flags.real("eps", 0.25, "schedule epsilon");
    const int kappa =
        static_cast<int>(flags.integer("kappa", 3, "schedule kappa"));
    const double rho = flags.real("rho", 0.4, "schedule rho");
    const std::string mode =
        flags.str("mode", "practical", "schedule mode: practical|paper");

    const auto non_negative = [&](const char* name, std::int64_t fallback,
                                  const char* desc) {
      const auto parsed = flags.integer(name, fallback, desc);
      if (parsed < 0) {
        throw std::invalid_argument(std::string("flag --") + name +
                                    " must be non-negative, got " +
                                    std::to_string(parsed));
      }
      return parsed;
    };
    const auto shards = static_cast<unsigned>(
        non_negative("shards", 1, "serving shards (>= 1)"));
    // Fail fast: the Partitioner would reject 0 too, but only after the
    // whole spanner build or snapshot load already ran.
    if (shards == 0 && !flags.help_requested()) {
      throw std::invalid_argument("flag --shards must be >= 1, got 0");
    }
    const std::string partition =
        flags.str("partition", "hash", "vertex partitioner: hash|range");
    const std::string snapshot_format_guard = flags.str(
        "snapshot-format", "auto",
        "require --load snapshots to be this format: auto|v1|v2 (auto "
        "accepts either; a mismatch is an error before any load runs)");
    const auto cache_budget = static_cast<std::uint64_t>(non_negative(
        "cache-budget", 64 << 20, "per-shard cache budget in bytes, 0 = off"));
    const auto threads = static_cast<unsigned>(non_negative(
        "threads", 1, "shard-execution pool slots, 0 = all cores"));
    const std::string bfs_kernel_name = flags.str(
        "bfs-kernel", "auto",
        "BFS traversal kernel for every shard: topdown|hybrid|auto (answers "
        "are byte-identical for every choice)");

    // Requests: an explicit file, or a generated workload.
    const std::string query_file = flags.str(
        "query-file", "", "answer 'u v' request lines from this file");
    const std::string workload = flags.str(
        "workload", "", "generate requests: uniform|zipf (empty = none)");
    const auto num_queries = static_cast<std::uint64_t>(
        non_negative("queries", 1000, "generated requests"));
    const auto workload_seed = static_cast<std::uint64_t>(
        flags.integer("workload-seed", 1, "request-generator seed"));
    const double zipf_theta =
        flags.real("zipf-theta", 0.99, "zipf skew exponent");

    const std::string answers_path =
        flags.str("answers", "", "write 'u v d' answer lines to this file");
    const std::string stats_path = flags.str(
        "stats-json", "", "write cluster + per-shard stats JSON to this file");

    if (flags.handle_help(
            "nas_serve — partition distance-oracle serving across a sharded "
            "cluster")) {
      return 0;
    }
    flags.reject_unknown();
    if (snapshot_format_guard != "auto" && snapshot_format_guard != "v1" &&
        snapshot_format_guard != "v2") {
      throw std::invalid_argument(
          "flag --snapshot-format must be auto|v1|v2, got \"" +
          snapshot_format_guard + "\"");
    }
    if (snapshot_format_guard != "auto" && !load_spec.empty()) {
      // Deployment guard: a cluster pinned to one encoding refuses to warm
      // from the other, before any shard loads (cheap magic-byte sniff).
      const auto want = apps::parse_snapshot_format(snapshot_format_guard);
      for (const auto& path : run::split_list(load_spec)) {
        const auto have = apps::detect_snapshot_format(path);
        if (have != want) {
          throw std::runtime_error(
              std::string("snapshot ") + path + " is " +
              apps::snapshot_format_name(have) + " but --snapshot-format " +
              snapshot_format_guard + " was requested");
        }
      }
    }

    const serve::ClusterOptions cluster_options{
        .shards = shards,
        .partition = partition,
        .shard_cache_budget_bytes = cache_budget,
        .bfs_kernel = graph::parse_bfs_kernel(bfs_kernel_name)};
    util::Timer build_timer;
    serve::ShardedCluster cluster = [&] {
      if (!load_spec.empty()) {
        return serve::ShardedCluster::from_snapshot_files(
            run::split_list(load_spec), cluster_options);
      }
      const graph::Graph g = family.rfind("file:", 0) == 0
                                 ? graph::read_edge_list_file(family.substr(5))
                                 : graph::make_workload(family, n, seed);
      const auto params =
          mode == "paper"
              ? core::Params::paper(g.num_vertices(), eps, kappa, rho)
              : core::Params::practical(g.num_vertices(), eps, kappa, rho);
      const auto result = core::build_spanner(g, params, {.validate = false});
      return serve::ShardedCluster(result.spanner,
                                   params.stretch_multiplicative(),
                                   params.stretch_additive(), cluster_options);
    }();
    const double build_ms = build_timer.millis();
    std::cerr << "cluster: " << cluster.num_shards() << " shards ("
              << cluster.partitioner().name() << " partition), "
              << cluster.shard(0).summary() << " per shard, "
              << "guarantee d_H <= " << cluster.multiplicative() << "*d_G + "
              << cluster.additive() << ", cache capacity "
              << cluster.shard(0).cache_capacity() << " sources/shard\n";

    std::vector<apps::Query> queries;
    if (!query_file.empty()) {
      queries = apps::read_query_file(query_file);
    } else if (!workload.empty()) {
      queries = apps::make_query_workload(
          cluster.universe(),
          {workload, num_queries, workload_seed, zipf_theta});
    }

    serve::ClusterStats stats;
    std::vector<std::uint32_t> answers;
    util::Timer serve_timer;
    if (!queries.empty()) {
      answers = cluster.serve(queries, threads, &stats);
    }
    const double serve_ms = serve_timer.millis();

    if (!queries.empty()) {
      std::cerr << "served " << stats.requests << " requests across "
                << stats.shards_used << "/" << cluster.num_shards()
                << " shards (" << stats.distinct_sources << " sources, "
                << stats.cache_hits << " cached, " << stats.bfs_passes
                << " BFS, " << stats.evictions << " evictions)\n";
    }
    if (!answers_path.empty()) {
      // Same contract as nas_oracle: the file is created even for an empty
      // request set, but answers with no request source is a usage error.
      if (query_file.empty() && workload.empty()) {
        throw std::runtime_error(
            "--answers needs requests: pass --query-file or --workload");
      }
      std::ofstream out(answers_path);
      if (!out) {
        throw std::runtime_error("cannot open answers file " + answers_path);
      }
      apps::write_answers(queries, answers, out);
      std::cerr << "wrote " << queries.size() << " answers to " << answers_path
                << "\n";
    } else if (!queries.empty()) {
      apps::write_answers(queries, answers, std::cout);
    }

    if (!stats_path.empty()) {
      // Shared schema (serve::cluster_stats_fields — the same core
      // nas_served's STATS command emits) plus this tool's one-shot extras.
      util::JsonObject fields = serve::cluster_stats_fields(cluster, stats);
      fields.emplace_back(
          "digest", util::JsonValue::hex64(apps::digest_answers(answers)));
      fields.emplace_back("build_ms",
                          util::JsonValue::literal(run::format_real(build_ms, 4)));
      fields.emplace_back("serve_ms",
                          util::JsonValue::literal(run::format_real(serve_ms, 4)));
      std::ofstream out(stats_path);
      if (!out) {
        throw std::runtime_error("cannot open stats file " + stats_path);
      }
      out << util::render_json_object(fields) << "\n";
      std::cerr << "wrote stats to " << stats_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "nas_serve: error: " << e.what() << "\n";
    return 2;
  }
}
