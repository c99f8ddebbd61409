#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>

namespace e2e {

namespace {

// Relabels through a seeded permutation, orients u < v, drops self-loops
// and duplicates.
EdgeSet Finish(uint32_t n, std::vector<std::pair<uint32_t, uint32_t>> raw,
               Rng& rng) {
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (uint32_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Below(i)]);
  }
  EdgeSet out;
  out.n = n;
  out.edges.reserve(raw.size());
  for (auto [u, v] : raw) {
    u = perm[u];
    v = perm[v];
    if (u == v) continue;
    out.edges.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(out.edges.begin(), out.edges.end());
  out.edges.erase(std::unique(out.edges.begin(), out.edges.end()),
                  out.edges.end());
  return out;
}

}  // namespace

EdgeSet GenerateRmat(uint32_t scale, uint32_t edge_factor, uint64_t seed) {
  Rng rng(seed);
  const uint32_t n = 1u << scale;
  const uint64_t draws = static_cast<uint64_t>(edge_factor) * n;
  std::vector<std::pair<uint32_t, uint32_t>> raw;
  raw.reserve(draws);
  for (uint64_t e = 0; e < draws; ++e) {
    uint32_t u = 0, v = 0;
    for (uint32_t bit = 0; bit < scale; ++bit) {
      const double r = rng.Uniform();
      // Quadrants a | b / c | d with a=0.57, b=0.19, c=0.19, d=0.05.
      const uint32_t right = (r >= 0.57 && r < 0.76) || r >= 0.95;
      const uint32_t down = r >= 0.76;
      u = (u << 1) | down;
      v = (v << 1) | right;
    }
    raw.emplace_back(u, v);
  }
  return Finish(n, std::move(raw), rng);
}

EdgeSet GenerateSocial(uint32_t n, uint32_t ring, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<uint32_t, uint32_t>> raw;
  raw.reserve(static_cast<size_t>(n) * (ring + 1));
  for (uint32_t start = 0; start < n;) {
    const uint32_t size = std::min<uint32_t>(
        n - start, 40 + static_cast<uint32_t>(rng.Below(161)));
    for (uint32_t i = 0; i < size; ++i) {
      for (uint32_t j = 1; j <= ring; ++j) {
        uint32_t t = start + (i + j) % size;
        if (rng.Uniform() < 0.1) t = start + static_cast<uint32_t>(rng.Below(size));
        raw.emplace_back(start + i, t);
      }
      raw.emplace_back(start + i, static_cast<uint32_t>(rng.Below(n)));
    }
    start += size;
  }
  return Finish(n, std::move(raw), rng);
}

bool WriteGraphalytics(const EdgeSet& graph, const std::string& prefix) {
  std::string text;
  text.reserve(static_cast<size_t>(graph.n) * 8);
  char line[32];
  for (uint32_t v = 0; v < graph.n; ++v) {
    text.append(line, std::snprintf(line, sizeof(line), "%u\n", v));
  }
  std::ofstream vfile(prefix + ".v", std::ios::binary);
  vfile << text;
  text.clear();
  for (auto [u, v] : graph.edges) {
    text.append(line, std::snprintf(line, sizeof(line), "%u %u\n", u, v));
  }
  std::ofstream efile(prefix + ".e", std::ios::binary);
  efile << text;
  return static_cast<bool>(vfile) && static_cast<bool>(efile);
}

namespace {

bool Slurp(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

// Parses up to `want` unsigned decimal fields per line.
bool ParseLines(const std::string& text, int want,
                const std::function<bool(const uint64_t*)>& on_line) {
  uint64_t fields[2] = {0, 0};
  int got = 0;
  bool in_number = false;
  for (char c : text) {
    if (c >= '0' && c <= '9') {
      if (!in_number) {
        if (got == want) return false;
        fields[got++] = 0;
        in_number = true;
      }
      fields[got - 1] = fields[got - 1] * 10 + static_cast<uint64_t>(c - '0');
      if (fields[got - 1] > 0xFFFFFFFFull) return false;
    } else if (c == ' ' || c == '\t') {
      in_number = false;
    } else if (c == '\n') {
      if (got != want || !on_line(fields)) return false;
      got = 0;
      in_number = false;
    } else {
      return false;
    }
  }
  return got == 0;
}

}  // namespace

bool ReadGraphalytics(const std::string& prefix, EdgeSet* graph,
                      std::string* error) {
  std::string text;
  if (!Slurp(prefix + ".v", &text)) {
    *error = "cannot read " + prefix + ".v";
    return false;
  }
  graph->n = 0;
  graph->edges.clear();
  if (!ParseLines(text, 1, [&](const uint64_t* f) {
        if (f[0] != graph->n) return false;  // ids are listed densely
        ++graph->n;
        return true;
      })) {
    *error = "malformed " + prefix + ".v";
    return false;
  }
  if (!Slurp(prefix + ".e", &text)) {
    *error = "cannot read " + prefix + ".e";
    return false;
  }
  if (!ParseLines(text, 2, [&](const uint64_t* f) {
        if (f[0] >= f[1] || f[1] >= graph->n) return false;
        graph->edges.emplace_back(static_cast<uint32_t>(f[0]),
                                  static_cast<uint32_t>(f[1]));
        return true;
      })) {
    *error = "malformed " + prefix + ".e";
    return false;
  }
  return true;
}

Adjacency::Adjacency(const EdgeSet& graph) : n(graph.n), m(graph.edges.size()) {
  offsets.assign(static_cast<size_t>(n) + 1, 0);
  for (auto [u, v] : graph.edges) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (uint32_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  targets.resize(offsets[n]);
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (auto [u, v] : graph.edges) {
    targets[cursor[u]++] = v;
    targets[cursor[v]++] = u;
  }
  for (uint32_t v = 0; v < n; ++v) {
    std::sort(targets.begin() + static_cast<int64_t>(offsets[v]),
              targets.begin() + static_cast<int64_t>(offsets[v + 1]));
  }
}

std::vector<uint32_t> Components(const Adjacency& adj) {
  std::vector<uint32_t> parent(adj.n);
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (uint32_t u = 0; u < adj.n; ++u) {
    for (const uint32_t* it = adj.begin(u); it != adj.end(u); ++it) {
      uint32_t a = find(u), b = find(*it);
      // Union by smaller root id, so every root is its component's minimum.
      if (a < b) parent[b] = a;
      else if (b < a) parent[a] = b;
    }
  }
  for (uint32_t v = 0; v < adj.n; ++v) parent[v] = find(v);
  return parent;
}

namespace {

// Largest BFS depth reached from `source`.
uint32_t Eccentricity(const Adjacency& adj, uint32_t source) {
  constexpr uint32_t kUnseen = ~0u;
  std::vector<uint32_t> depth(adj.n, kUnseen);
  std::vector<uint32_t> queue{source};
  depth[source] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const uint32_t v = queue[head];
    for (const uint32_t* w = adj.begin(v); w != adj.end(v); ++w) {
      if (depth[*w] == kUnseen) {
        depth[*w] = depth[v] + 1;
        queue.push_back(*w);
      }
    }
  }
  return depth[queue.back()];
}

}  // namespace

std::vector<uint32_t> PickSources(const Adjacency& adj,
                                  const std::vector<uint32_t>& components,
                                  uint32_t count, uint32_t depth,
                                  uint64_t seed) {
  std::vector<uint32_t> size(components.size(), 0);
  for (uint32_t label : components) ++size[label];
  const uint32_t giant = static_cast<uint32_t>(
      std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<uint32_t> members;
  for (uint32_t v = 0; v < components.size(); ++v) {
    if (components[v] == giant) members.push_back(v);
  }
  Rng rng(seed);
  for (size_t i = 0; i + 1 < members.size(); ++i) {
    std::swap(members[i], members[i + rng.Below(members.size() - i)]);
  }
  if (depth == 0) {
    members.resize(std::min<size_t>(members.size(), count));
    return members;
  }
  // Draws in seeded order, keeping those at `depth`; past kMaxDraws, or
  // when the component has too few, the rest are the draws nearest to it.
  constexpr size_t kMaxDraws = 1024;
  std::vector<uint32_t> picked;
  std::vector<std::pair<uint32_t, uint32_t>> others;  // (|ecc - depth|, v)
  for (size_t i = 0; i < members.size() && i < kMaxDraws && picked.size() < count; ++i) {
    const uint32_t ecc = Eccentricity(adj, members[i]);
    if (ecc == depth) {
      picked.push_back(members[i]);
    } else {
      others.emplace_back(ecc > depth ? ecc - depth : depth - ecc, members[i]);
    }
  }
  std::stable_sort(others.begin(), others.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < others.size() && picked.size() < count; ++i) {
    picked.push_back(others[i].second);
  }
  return picked;
}

}  // namespace e2e
