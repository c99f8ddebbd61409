// Seeded input generators and the benchmark's own view of an input graph.
//
// Every input is generated here from the workload seed, written as
// Graphalytics text (`<prefix>.v`: one vertex id per line, `<prefix>.e`: one
// undirected `u v` edge per line, u < v, no duplicates, no self-loops), and
// read back by the program's own ETL. Nothing in this file calls the
// program: a change to its datagen or graph modules cannot shift the inputs,
// and the checks in checks.h work on the adjacency built here.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// SplitMix64: small, seedable, and fully specified, so inputs depend only
/// on the seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// An undirected simple graph on vertices [0, n): each edge once, u < v,
/// sorted.
struct EdgeSet {
  uint32_t n = 0;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
};

/// Graph500-style R-MAT (a=0.57, b=c=0.19): 2^scale vertices,
/// edge_factor * 2^scale drawn edges, vertex ids permuted, self-loops and
/// duplicates dropped. Low-degree vertices are often isolated.
EdgeSet GenerateRmat(uint32_t scale, uint32_t edge_factor, uint64_t seed);

/// SNB-like social graph: n persons split into communities of 40..200
/// members; each person knows its `ring` nearest community members on
/// either side (a ring lattice: high clustering), 10% of those ties are
/// rewired to a random member of the same community, and every person has
/// one tie to a random person anywhere (communities join into one
/// component). Degrees stay near 2*ring + 2: low skew. Ids are permuted.
EdgeSet GenerateSocial(uint32_t n, uint32_t ring, uint64_t seed);

/// Writes `<prefix>.v` and `<prefix>.e`.
bool WriteGraphalytics(const EdgeSet& graph, const std::string& prefix);

/// Reads the text written by WriteGraphalytics with its own parser (not
/// the program's), counting lines. Returns false with `error` set on any
/// malformed line.
bool ReadGraphalytics(const std::string& prefix, EdgeSet* graph,
                      std::string* error);

/// Sorted undirected adjacency (CSR) over an EdgeSet.
struct Adjacency {
  explicit Adjacency(const EdgeSet& graph);
  uint32_t n = 0;
  uint64_t m = 0;  ///< undirected edges
  std::vector<uint64_t> offsets;
  std::vector<uint32_t> targets;
  uint64_t Degree(uint32_t v) const { return offsets[v + 1] - offsets[v]; }
  const uint32_t* begin(uint32_t v) const { return targets.data() + offsets[v]; }
  const uint32_t* end(uint32_t v) const { return targets.data() + offsets[v + 1]; }
};

/// Component label per vertex: the smallest vertex id in its component
/// (union-find).
std::vector<uint32_t> Components(const Adjacency& adj);

/// `count` distinct vertices of the largest component, drawn from `seed`.
/// With `depth` > 0 they are vertices of that eccentricity (the nearest
/// ones when too few are found), so every seed gives the same number of BFS
/// levels: supersteps and MapReduce jobs then do not move with the seed.
/// Fewer than `count` if the component is smaller.
std::vector<uint32_t> PickSources(const Adjacency& adj,
                                  const std::vector<uint32_t>& components,
                                  uint32_t count, uint32_t depth,
                                  uint64_t seed);

}  // namespace e2e
