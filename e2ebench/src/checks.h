// Output checks made apart from the program: each is either an independent
// computation on the benchmark's own adjacency (BFS depths, union-find
// components, PageRank iteration, triangle-count LCC) or a property the
// method must have (BFS edge slack, CD labels inside the own component, EVO
// new-to-old edges). None calls ref:: or the harness validator.

#pragma once

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "inputs.h"
#include "ref/algorithms.h"

namespace e2e {

/// Checks outputs for one input graph. Expected values are computed on
/// first use and cached, so Prepare() moves that work out of timed regions.
class Checker {
 public:
  explicit Checker(const EdgeSet& graph);

  const Adjacency& adjacency() const { return adj_; }
  const std::vector<uint32_t>& components() const { return components_; }

  /// Computes the expected values `kind` needs under `params`.
  void Prepare(gly::AlgorithmKind kind, const gly::AlgorithmParams& params);

  /// Empty when `out` is correct; otherwise a one-line diagnostic.
  std::string Check(gly::AlgorithmKind kind, const gly::AlgorithmParams& params,
                    const gly::AlgorithmOutput& out);

 private:
  const std::vector<int64_t>& BfsDepths(uint32_t source);
  const std::vector<double>& PrRanks(const gly::PrParams& params);
  double MeanLcc();

  Adjacency adj_;
  std::vector<uint32_t> components_;
  std::map<uint32_t, std::vector<int64_t>> bfs_;
  std::map<std::tuple<uint32_t, double>, std::vector<double>> pr_;
  bool have_lcc_ = false;
  double lcc_ = 0.0;
};

/// A copy of a correct `out` with one value made wrong, for the self-test
/// that each check rejects what it should.
gly::AlgorithmOutput Perturb(gly::AlgorithmKind kind,
                             const gly::AlgorithmOutput& out, uint32_t n);

/// harness::OutputChecksum of `out` with EVO's new edges sorted: engines
/// may emit the same edge set in different orders.
uint32_t CanonicalChecksum(const gly::AlgorithmOutput& out);

/// True for outputs that must agree bit for bit across engines. PR ranks
/// and the STATS mean LCC are sums whose order differs per engine, so
/// those are held to a tolerance instead.
bool ExactAcrossEngines(gly::AlgorithmKind kind);

}  // namespace e2e
