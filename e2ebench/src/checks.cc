#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <set>

#include "harness/validator.h"

namespace e2e {

using gly::AlgorithmKind;
using gly::AlgorithmOutput;
using gly::AlgorithmParams;

namespace {

// Graphalytics marks vertices a BFS never reaches with the largest int64.
constexpr int64_t kUnreached = std::numeric_limits<int64_t>::max();
constexpr double kRelTolerance = 1e-6;

std::string Fmt(const char* format, double a, double b, double c = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

bool Near(double expected, double actual) {
  return std::abs(expected - actual) <=
         kRelTolerance * std::max(std::abs(expected), 1e-300);
}

}  // namespace

Checker::Checker(const EdgeSet& graph)
    : adj_(graph), components_(Components(adj_)) {}

const std::vector<int64_t>& Checker::BfsDepths(uint32_t source) {
  auto it = bfs_.find(source);
  if (it != bfs_.end()) return it->second;
  std::vector<int64_t> depth(adj_.n, kUnreached);
  std::deque<uint32_t> queue{source};
  depth[source] = 0;
  while (!queue.empty()) {
    uint32_t v = queue.front();
    queue.pop_front();
    for (const uint32_t* w = adj_.begin(v); w != adj_.end(v); ++w) {
      if (depth[*w] == kUnreached) {
        depth[*w] = depth[v] + 1;
        queue.push_back(*w);
      }
    }
  }
  return bfs_.emplace(source, std::move(depth)).first->second;
}

const std::vector<double>& Checker::PrRanks(const gly::PrParams& params) {
  auto key = std::make_tuple(params.iterations, params.damping);
  auto it = pr_.find(key);
  if (it != pr_.end()) return it->second;
  // Ranks start at 1/n; every round each vertex gets (1-d)/n plus d times
  // its neighbours' rank shares. Isolated vertices keep their mass to
  // themselves: it leaks rather than being spread.
  const double n = adj_.n;
  std::vector<double> rank(adj_.n, 1.0 / n), next(adj_.n);
  for (uint32_t iter = 0; iter < params.iterations; ++iter) {
    for (uint32_t v = 0; v < adj_.n; ++v) {
      double sum = 0.0;
      for (const uint32_t* u = adj_.begin(v); u != adj_.end(v); ++u) {
        sum += rank[*u] / static_cast<double>(adj_.Degree(*u));
      }
      next[v] = (1.0 - params.damping) / n + params.damping * sum;
    }
    rank.swap(next);
  }
  return pr_.emplace(key, std::move(rank)).first->second;
}

double Checker::MeanLcc() {
  if (have_lcc_) return lcc_;
  // Triangles at each apex by merging sorted neighbour lists.
  double sum = 0.0;
  for (uint32_t v = 0; v < adj_.n; ++v) {
    const uint64_t d = adj_.Degree(v);
    if (d < 2) continue;
    uint64_t links = 0;
    for (const uint32_t* u = adj_.begin(v); u != adj_.end(v); ++u) {
      const uint32_t *a = adj_.begin(v), *b = adj_.begin(*u);
      while (a != adj_.end(v) && b != adj_.end(*u)) {
        if (*a < *b) ++a;
        else if (*b < *a) ++b;
        else { ++links; ++a; ++b; }
      }
    }
    // Each link among v's neighbours was seen from both ends.
    sum += static_cast<double>(links / 2) / (static_cast<double>(d * (d - 1)) / 2);
  }
  lcc_ = adj_.n == 0 ? 0.0 : sum / adj_.n;
  have_lcc_ = true;
  return lcc_;
}

void Checker::Prepare(AlgorithmKind kind, const AlgorithmParams& params) {
  if (kind == AlgorithmKind::kBfs) BfsDepths(params.bfs.source);
  if (kind == AlgorithmKind::kPr) PrRanks(params.pr);
  if (kind == AlgorithmKind::kStats) MeanLcc();
}

std::string Checker::Check(AlgorithmKind kind, const AlgorithmParams& params,
                           const AlgorithmOutput& out) {
  const uint32_t n = adj_.n;
  const auto& values = out.vertex_values;
  const bool per_vertex = kind == AlgorithmKind::kBfs ||
                          kind == AlgorithmKind::kConn ||
                          kind == AlgorithmKind::kCd;
  if (per_vertex && values.size() != n) {
    return Fmt("%.0f values for %.0f vertices", values.size(), n);
  }
  switch (kind) {
    case AlgorithmKind::kBfs: {
      const uint32_t s = params.bfs.source;
      if (values[s] != 0) return Fmt("depth(source %.0f) = %.0f", s, values[s]);
      for (uint32_t u = 0; u < n; ++u) {
        for (const uint32_t* v = adj_.begin(u); v != adj_.end(u); ++v) {
          const int64_t a = values[u], b = values[*v];
          const bool slack_ok = (a == kUnreached || b == kUnreached)
                                    ? a == b
                                    : std::llabs(a - b) <= 1;
          if (!slack_ok) return Fmt("edge %.0f-%.0f breaks depth slack", u, *v);
        }
      }
      const auto& depth = BfsDepths(s);
      for (uint32_t v = 0; v < n; ++v) {
        if (values[v] != depth[v]) return Fmt("BFS depth of %.0f differs", v, 0);
      }
      return "";
    }
    case AlgorithmKind::kConn:
      for (uint32_t v = 0; v < n; ++v) {
        if (values[v] != static_cast<int64_t>(components_[v])) {
          return Fmt("CONN label of %.0f is %.0f, want %.0f", v, values[v],
                     components_[v]);
        }
      }
      return "";
    case AlgorithmKind::kCd:
      for (uint32_t v = 0; v < n; ++v) {
        const int64_t label = values[v];
        if (label < 0 || label >= n ||
            components_[static_cast<uint32_t>(label)] != components_[v]) {
          return Fmt("CD label %.0f of %.0f is not in its component", label, v);
        }
      }
      return "";
    case AlgorithmKind::kPr: {
      const auto& scores = out.vertex_scores;
      if (scores.size() != n) return Fmt("%.0f ranks for %.0f vertices", scores.size(), n);
      const auto& want = PrRanks(params.pr);
      double total = 0.0;
      for (uint32_t v = 0; v < n; ++v) {
        if (!Near(want[v], scores[v])) {
          return Fmt("PR rank of %.0f is %.12g, want %.12g", v, scores[v], want[v]);
        }
        total += scores[v];
      }
      if (total < 1.0 - params.pr.damping - 1e-9 || total > 1.0 + 1e-9) {
        return Fmt("PR rank sum %.12g outside [1-d, 1] (d=%.3g)", total,
                   params.pr.damping);
      }
      return "";
    }
    case AlgorithmKind::kStats:
      if (out.stats.num_vertices != n || out.stats.num_edges != adj_.m) {
        return Fmt("STATS counts %.0f vertices / %.0f edges are wrong",
                   out.stats.num_vertices, out.stats.num_edges);
      }
      if (!Near(MeanLcc(), out.stats.mean_local_clustering)) {
        return Fmt("STATS mean LCC %.12g, want %.12g",
                   out.stats.mean_local_clustering, MeanLcc());
      }
      return "";
    case AlgorithmKind::kEvo: {
      const uint32_t k = params.evo.num_new_vertices;
      std::set<uint64_t> fresh;
      for (const gly::Edge& e : out.new_edges.edges()) {
        const bool src_new = e.src >= n, dst_new = e.dst >= n;
        if (src_new == dst_new) {
          return Fmt("EVO edge %.0f-%.0f does not join new to old", e.src, e.dst);
        }
        const uint64_t v = src_new ? e.src : e.dst;
        if (v >= static_cast<uint64_t>(n) + k) return Fmt("EVO vertex %.0f beyond %.0f new", v, k);
        fresh.insert(v);
      }
      if (fresh.size() != k) return Fmt("EVO added %.0f vertices, want %.0f", fresh.size(), k);
      return "";
    }
  }
  return "unknown algorithm";
}

AlgorithmOutput Perturb(AlgorithmKind kind, const AlgorithmOutput& out,
                        uint32_t n) {
  AlgorithmOutput bad = out;
  switch (kind) {
    case AlgorithmKind::kBfs:
      // One reached vertex one level deeper.
      for (int64_t& d : bad.vertex_values) {
        if (d > 0 && d != kUnreached) { ++d; break; }
      }
      break;
    case AlgorithmKind::kConn:
      ++bad.vertex_values[n / 2];  // no longer its component's minimum
      break;
    case AlgorithmKind::kCd:
      bad.vertex_values[n / 2] = n;  // not a vertex id
      break;
    case AlgorithmKind::kPr:
      bad.vertex_scores[n / 2] *= 1.01;
      break;
    case AlgorithmKind::kStats:
      bad.stats.mean_local_clustering *= 1.001;
      break;
    case AlgorithmKind::kEvo: {
      // Re-point one new edge's old endpoint at another new vertex.
      gly::Edge& e = bad.new_edges.mutable_edges().front();
      if (e.src >= n) e.dst = e.src; else e.src = e.dst;
      break;
    }
  }
  return bad;
}

uint32_t CanonicalChecksum(const AlgorithmOutput& out) {
  if (out.new_edges.empty()) return gly::harness::OutputChecksum(out);
  AlgorithmOutput copy = out;
  auto& edges = copy.new_edges.mutable_edges();
  std::sort(edges.begin(), edges.end(), [](const gly::Edge& a, const gly::Edge& b) {
    return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
  });
  return gly::harness::OutputChecksum(copy);
}

bool ExactAcrossEngines(AlgorithmKind kind) {
  return kind != AlgorithmKind::kPr && kind != AlgorithmKind::kStats;
}

}  // namespace e2e
