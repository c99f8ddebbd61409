// e2ebench — the repository's end-to-end benchmark.
//
//   e2ebench gen --workload W --seed N --data DIR
//       Generates the workload's inputs from the seed as Graphalytics text.
//   e2ebench run --workload W --seed N --data DIR --scratch DIR
//                --seconds S --trace 0|1 [--spans FILE]
//       Phase A (setup): ETL of every input plus every platform's load.
//       Phase B (direct): Platform::Run on every platform x cell, once as a
//         checked warm-up, then in timed rounds; a cell's time is the median
//         of its timed calls.
//       Phase C (harness): harness::RunBenchmark over the same matrix with
//         validation, journal and monitor on; makespan is the median pass.
//       Timed rounds and harness passes alternate for S seconds (at least
//         three of each).
//       Every output is checked by checks.h. The last stdout line is one
//       JSON object: end-to-end metrics with --trace 0, per-layer metrics
//       with --trace 1.
//
// e2ebench/run.py builds this program, generates inputs and runs it.

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "common/config.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "harness/core.h"
#include "harness/platform.h"
#include "harness/validator.h"
#include "inputs.h"
#include "ref/algorithms.h"
#include "spans.h"

namespace e2e {
namespace {

using gly::AlgorithmKind;
using gly::AlgorithmOutput;
using gly::AlgorithmParams;

// ------------------------------------------------------------- workloads

struct InputSpec {
  std::string name;
  bool social;     ///< GenerateSocial(size, param) / GenerateRmat(size, param)
  uint32_t size;   ///< persons, or RMAT scale
  uint32_t param;  ///< ring half-width, or RMAT edge factor
  /// Eccentricity of the BFS sources (0 = any): the most common one on
  /// this input's giant component, the same for every seed.
  uint32_t bfs_depth;
};

struct Workload {
  std::string name;
  std::vector<InputSpec> inputs;
  std::vector<std::string> platforms;
  std::vector<AlgorithmKind> algorithms;
  uint32_t bfs_sources;  ///< BFS cells per input
  uint32_t pr_iterations;
  uint32_t cd_iterations;
  uint32_t jobs;  ///< harness.jobs in phase C
  uint32_t neo4j_page_cache_mb;
  /// Calls per platform per round, aligned with `platforms`: cheap engines
  /// repeat so that every platform's median rests on enough samples.
  std::vector<uint32_t> reps;
};

const std::vector<std::string> kEngines = {"giraph", "graphx", "mapreduce",
                                           "neo4j"};
const std::vector<AlgorithmKind> kAllAlgorithms = {
    AlgorithmKind::kStats, AlgorithmKind::kBfs, AlgorithmKind::kConn,
    AlgorithmKind::kCd,    AlgorithmKind::kEvo, AlgorithmKind::kPr};

// Fixed thread and worker counts: two per engine, two ETL threads, and at
// most two cells in flight, so no more than four threads compete for
// cores.
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kThreads = 2;

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"rmat-traverse",
       {{"rmat", false, 14, 10, 5}},
       kEngines,
       {AlgorithmKind::kBfs, AlgorithmKind::kConn},
       8, 10, 5, 1, 2,
       {8, 8, 1, 1}},
      {"snb-iterate",
       {{"snb", true, 12000, 5, 0}},
       kEngines,
       {AlgorithmKind::kStats, AlgorithmKind::kPr, AlgorithmKind::kCd},
       1, 8, 3, 1, 64,
       {4, 2, 1, 2}},
      {"harness-matrix",
       {{"rmat9", false, 9, 8, 4},
        {"rmat10", false, 10, 8, 5},
        {"snb1k", true, 1000, 4, 5},
        {"snb2k", true, 2000, 4, 6}},
       {"giraph", "graphx", "mapreduce", "neo4j", "reference"},
       kAllAlgorithms,
       1, 10, 5, 2, 16,
       {4, 4, 2, 4, 1}},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0x100000001B3ULL + salt);
  return rng.Next();
}

std::string Lower(AlgorithmKind kind) {
  std::string s = gly::AlgorithmKindName(kind);
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Platform counters arrive as strings; graphx reports materialized bytes
// as "12.3 MiB".
double ParseCount(const std::string& text) {
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  std::string unit = end ? std::string(end) : "";
  static const std::map<std::string, double> kScale = {
      {" KiB", 1024.0}, {" MiB", 1048576.0}, {" GiB", 1073741824.0}};
  auto it = kScale.find(unit);
  return it == kScale.end() ? value : value * it->second;
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // KiB on Linux
}

// Bytes in the neo4j platform's store directories under $TMPDIR.
uint64_t Neo4jStoreBytes() {
  namespace fs = std::filesystem;
  const char* tmp = std::getenv("TMPDIR");
  std::error_code ec;
  uint64_t bytes = 0;
  for (const auto& dir : fs::directory_iterator(tmp ? tmp : "/tmp", ec)) {
    if (dir.path().filename().string().rfind("gly-neo4j", 0) != 0) continue;
    for (const auto& f : fs::recursive_directory_iterator(dir.path(), ec)) {
      if (f.is_regular_file(ec)) bytes += f.file_size(ec);
    }
  }
  return bytes;
}

// ------------------------------------------------------------------- gen

int Generate(const Workload& w, uint64_t seed, const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (size_t i = 0; i < w.inputs.size(); ++i) {
    const InputSpec& in = w.inputs[i];
    const uint64_t graph_seed = Mix(seed, i);
    EdgeSet g = in.social ? GenerateSocial(in.size, in.param, graph_seed)
                          : GenerateRmat(in.size, in.param, graph_seed);
    if (!WriteGraphalytics(g, dir + "/" + in.name)) {
      std::fprintf(stderr, "e2ebench: cannot write %s/%s\n", dir.c_str(),
                   in.name.c_str());
      return 1;
    }
  }
  return 0;
}

// ------------------------------------------------------------------- run

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  std::string data;
  std::string scratch;
  std::string spans;
  double seconds = 0;  ///< required
  bool trace = false;
};

struct Input {
  std::string name;
  std::unique_ptr<Checker> checker;
  std::vector<uint32_t> sources;
  gly::Graph graph;
};

/// One (input, algorithm, parameters) unit of work; BFS has one per source.
struct Cell {
  size_t input = 0;
  AlgorithmKind kind = AlgorithmKind::kStats;
  AlgorithmParams params;
  bool in_harness = false;  ///< also part of the phase-C matrix
  std::string label;
};

/// One platform on one cell.
struct Call {
  size_t platform = 0;
  size_t cell = 0;
  std::vector<double> times;  ///< timed rounds
  uint32_t checksum = 0;      ///< OutputChecksum of the warm-up output
  uint32_t canonical = 0;     ///< CanonicalChecksum of the same output
  uint32_t wrong = 0;            ///< OutputChecksum of its perturbed copy
  uint32_t wrong_canonical = 0;  ///< CanonicalChecksum of the perturbed copy
  AlgorithmOutput kept;       ///< warm-up output of phase-C cells (traced)
  std::map<std::string, double> counters;  ///< of the last timed call
};

class Bench {
 public:
  explicit Bench(const Options& o) : o_(o), w_(*o.workload), log_(o.trace) {}
  int Execute();

 private:
  bool Fail(const std::string& what) {
    std::fprintf(stderr, "e2ebench: INCORRECT: %s\n", what.c_str());
    correct_ = false;
    return false;
  }
  bool PrepareInputs();
  bool Setup();
  void BuildCells();
  void RunCall(Call& call, bool timed);
  std::map<std::string, double> CallCounters(size_t platform, size_t input,
                                             const gly::harness::Platform& instance);
  void WarmUp();
  void Measure();
  double Harness(uint32_t jobs, const std::string& journal);
  void TraceExtras();
  void Report();

  gly::Config PlatformConfig() const;

  const Options& o_;
  const Workload& w_;
  SpanLog log_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Input> inputs_;
  // instances_[platform][input]
  std::vector<std::vector<std::unique_ptr<gly::harness::Platform>>> instances_;
  std::vector<std::vector<double>> load_s_;
  std::vector<Cell> cells_;
  std::vector<Call> calls_;
  // Last LastRunMetrics() per [platform][input] instance, parsed.
  std::vector<std::vector<std::map<std::string, double>>> last_counters_;
  uint32_t rounds_ = 0;
  double setup_s_ = 0, makespan_s_ = 0;
  double validate_s_ = 0, ref_s_ = 0, serial_s_ = 0;
};

gly::Config Bench::PlatformConfig() const {
  gly::Config config;
  for (const std::string& p : w_.platforms) {
    config.SetInt(p + ".workers", kWorkers);
    config.SetInt(p + ".threads", kThreads);
  }
  config.SetInt("neo4j.page_cache_mb", w_.neo4j_page_cache_mb);
  return config;
}

// Untimed: reads every input with the benchmark's own parser (which also
// brings the files into the page cache before phase A), builds the check
// adjacency, and draws the BFS sources from the largest component.
bool Bench::PrepareInputs() {
  for (size_t i = 0; i < w_.inputs.size(); ++i) {
    Input in;
    in.name = w_.inputs[i].name;
    EdgeSet edges;
    std::string error;
    if (!ReadGraphalytics(o_.data + "/" + in.name, &edges, &error)) {
      std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
      return false;
    }
    in.checker = std::make_unique<Checker>(edges);
    in.sources = PickSources(in.checker->adjacency(), in.checker->components(),
                             w_.bfs_sources, w_.inputs[i].bfs_depth,
                             Mix(o_.seed, 1000 + i));
    const Adjacency& adj = in.checker->adjacency();
    uint32_t isolated = 0, giant = 0;
    uint64_t max_degree = 0;
    for (uint32_t v = 0; v < adj.n; ++v) {
      isolated += adj.Degree(v) == 0;
      giant += in.checker->components()[v] == in.checker->components()[in.sources[0]];
      max_degree = std::max(max_degree, adj.Degree(v));
    }
    std::fprintf(stderr,
                 "input %s: %u vertices (%.1f%% isolated, largest component "
                 "%u), %llu edges, max degree %llu\n",
                 in.name.c_str(), adj.n, 100.0 * isolated / adj.n, giant,
                 static_cast<unsigned long long>(adj.m),
                 static_cast<unsigned long long>(max_degree));
    inputs_.push_back(std::move(in));
  }
  return true;
}

// Phase A: ETL through the program's graph module, then every platform
// created and loaded.
bool Bench::Setup() {
  Span setup(log_, "phase.setup");
  gly::EtlOptions etl;
  etl.threads = kThreads;
  gly::CsrBuildOptions build;
  build.threads = kThreads;
  for (Input& in : inputs_) {
    gly::Result<gly::EdgeList> edges = gly::Status::OK();
    {
      Span s(log_, "graph.read", in.name);
      edges = gly::ReadGraphalyticsDataset(o_.data + "/" + in.name, {}, etl);
    }
    if (!edges.ok()) return Fail("read " + in.name + ": " + edges.status().ToString());
    Span s(log_, "graph.build", in.name);
    auto graph = gly::GraphBuilder::Undirected(*edges, build);
    if (!graph.ok()) return Fail("build " + in.name + ": " + graph.status().ToString());
    in.graph = std::move(*graph);
  }
  const gly::Config config = PlatformConfig();
  instances_.resize(w_.platforms.size());
  last_counters_.assign(w_.platforms.size(),
                        std::vector<std::map<std::string, double>>(inputs_.size()));
  load_s_.assign(w_.platforms.size(), std::vector<double>(inputs_.size(), 0));
  for (size_t p = 0; p < w_.platforms.size(); ++p) {
    const std::string& name = w_.platforms[p];
    for (size_t i = 0; i < inputs_.size(); ++i) {
      Span s(log_, name + ".load", inputs_[i].name);
      auto platform = gly::harness::MakePlatform(name, config.Scoped(name));
      if (!platform.ok()) return Fail(name + ": " + platform.status().ToString());
      gly::Status st = (*platform)->LoadGraph(inputs_[i].graph, inputs_[i].name);
      if (!st.ok()) return Fail(name + " load: " + st.ToString());
      instances_[p].push_back(std::move(*platform));
      load_s_[p][i] = s.End();
    }
  }
  setup_s_ = setup.End();
  std::fprintf(stderr, "neo4j stores %.1f MiB, page cache %u MiB per instance\n",
               Neo4jStoreBytes() / 1048576.0, w_.neo4j_page_cache_mb);
  return true;
}

void Bench::BuildCells() {
  for (size_t i = 0; i < inputs_.size(); ++i) {
    for (AlgorithmKind kind : w_.algorithms) {
      AlgorithmParams params;
      params.pr.iterations = w_.pr_iterations;
      params.cd.max_iterations = w_.cd_iterations;
      const size_t variants =
          kind == AlgorithmKind::kBfs ? inputs_[i].sources.size() : 1;
      for (size_t s = 0; s < variants; ++s) {
        if (kind == AlgorithmKind::kBfs) params.bfs.source = inputs_[i].sources[s];
        std::string label = inputs_[i].name + "/" + Lower(kind);
        if (kind == AlgorithmKind::kBfs) {
          label += '@';
          label += std::to_string(params.bfs.source);
        }
        inputs_[i].checker->Prepare(kind, params);
        cells_.push_back({i, kind, params, s == 0, label});
      }
    }
  }
  // Round order: every platform on a cell before the next cell, so slow
  // drift on the host spreads over all platforms alike.
  for (size_t c = 0; c < cells_.size(); ++c) {
    for (size_t p = 0; p < w_.platforms.size(); ++p) {
      Call call;
      call.platform = p;
      call.cell = c;
      calls_.push_back(std::move(call));
    }
  }
}

// The counters of the call just made on `instance`. neo4j reports its page
// cache's counters since the store was opened, so those become differences
// from the instance's previous call.
std::map<std::string, double> Bench::CallCounters(
    size_t platform, size_t input, const gly::harness::Platform& instance) {
  std::map<std::string, double> now;
  for (const auto& [key, value] : instance.LastRunMetrics()) now[key] = ParseCount(value);
  std::map<std::string, double>& before = last_counters_[platform][input];
  std::map<std::string, double> call = now;
  if (w_.platforms[platform] == "neo4j") {
    for (const char* key : {"cache_hits", "cache_misses", "cache_shard_contention"}) {
      call[key] -= before[key];
    }
  }
  before = std::move(now);
  return call;
}

void Bench::RunCall(Call& call, bool timed) {
  const Cell& cell = cells_[call.cell];
  const std::string& platform = w_.platforms[call.platform];
  gly::harness::Platform& instance = *instances_[call.platform][cell.input];
  ++attempted_;
  Span span(log_, timed ? platform + "." + Lower(cell.kind) : "warmup",
            cell.label);
  gly::Result<AlgorithmOutput> out = instance.Run(cell.kind, cell.params);
  const double seconds = span.End();
  if (!out.ok()) {
    ++failed_;
    std::fprintf(stderr, "e2ebench: %s %s failed: %s\n", platform.c_str(),
                 cell.label.c_str(), out.status().ToString().c_str());
    return;
  }
  const uint32_t checksum = gly::harness::OutputChecksum(*out);
  if (!timed) {
    Checker& checker = *inputs_[cell.input].checker;
    std::string bad = checker.Check(cell.kind, cell.params, *out);
    if (!bad.empty()) Fail(platform + " " + cell.label + ": " + bad);
    // Self-test: the same check must reject a perturbed copy, and so must
    // every checksum comparison (against the timed calls here, against the
    // other engines in WarmUp, against phase C in Harness).
    AlgorithmOutput wrong = Perturb(cell.kind, *out, inputs_[cell.input].graph.num_vertices());
    if (checker.Check(cell.kind, cell.params, wrong).empty()) {
      Fail("self-test: check accepted a perturbed " + cell.label);
    }
    CallCounters(call.platform, cell.input, instance);
    call.checksum = checksum;
    call.canonical = CanonicalChecksum(*out);
    call.wrong = gly::harness::OutputChecksum(wrong);
    call.wrong_canonical = CanonicalChecksum(wrong);
    if (call.wrong == call.checksum) {
      Fail("self-test: timed-call comparison accepted a perturbed " + cell.label);
    }
    if (o_.trace && cell.in_harness) call.kept = std::move(*out);
    return;
  }
  call.times.push_back(seconds);
  call.counters = CallCounters(call.platform, cell.input, instance);
  if (checksum != call.checksum) {
    Fail(platform + " " + cell.label + ": output differs from the warm-up's");
  }
}

// Phase B's untimed round: every output checked once.
void Bench::WarmUp() {
  for (Call& call : calls_) RunCall(call, false);
  for (size_t c = 0; c < cells_.size(); ++c) {
    if (!ExactAcrossEngines(cells_[c].kind)) continue;
    std::optional<uint32_t> first;
    for (const Call& call : calls_) {
      if (call.cell != c) continue;
      if (!first) first = call.canonical;
      if (call.canonical != *first) {
        Fail(w_.platforms[call.platform] + " " + cells_[c].label +
             ": output checksum differs from the other platforms'");
      }
      if (call.wrong_canonical == *first) {
        Fail("self-test: cross-engine comparison accepted a perturbed " +
             w_.platforms[call.platform] + " " + cells_[c].label);
      }
    }
  }
}

// Timed phase-B rounds alternate with phase-C passes until --seconds have
// passed, so both sample the whole window: the host's speed drifts over
// seconds, and a clump of samples would catch one moment of it. Within a
// round, a platform's repeated calls are spread over passes of the cell
// list for the same reason.
void Bench::Measure() {
  const uint32_t passes = *std::max_element(w_.reps.begin(), w_.reps.end());
  std::vector<double> makespans;
  const Clock::time_point start = Clock::now();
  do {
    for (uint32_t pass = 0; pass < passes; ++pass) {
      for (Call& call : calls_) {
        if (pass < w_.reps[call.platform]) RunCall(call, true);
      }
    }
    makespans.push_back(Harness(w_.jobs, o_.scratch + "/journal-" +
                                             std::to_string(rounds_) + ".jsonl"));
    ++rounds_;
  } while (rounds_ < 3 ||
           std::chrono::duration<double>(Clock::now() - start).count() < o_.seconds);
  makespan_s_ = Median(makespans);
}

// Phase C: one harness pass; returns its wall time.
double Bench::Harness(uint32_t jobs, const std::string& journal) {
  gly::harness::RunSpec spec;
  spec.platforms = w_.platforms;
  spec.platform_config = PlatformConfig();
  spec.algorithms = w_.algorithms;
  spec.validate = true;
  spec.monitor = true;
  spec.jobs = jobs;
  spec.journal_path = journal;
  for (size_t i = 0; i < inputs_.size(); ++i) {
    gly::harness::DatasetSpec dataset;
    dataset.name = inputs_[i].name;
    dataset.graph = &inputs_[i].graph;
    for (const Cell& cell : cells_) {
      if (cell.input == i && cell.in_harness) dataset.params = cell.params;
    }
    dataset.params.bfs.source = inputs_[i].sources.empty() ? 0 : inputs_[i].sources[0];
    spec.datasets.push_back(dataset);
  }
  Span span(log_, jobs == w_.jobs ? "phase.harness" : "harness.serial");
  auto results = gly::harness::RunBenchmark(spec);
  const double seconds = span.End();
  if (!results.ok()) {
    Fail("RunBenchmark: " + results.status().ToString());
    return seconds;
  }
  for (const gly::harness::BenchmarkResult& r : *results) {
    ++attempted_;
    const std::string what = r.platform + " " + r.graph + "/" + Lower(r.algorithm);
    if (!r.status.ok()) {
      ++failed_;
      std::fprintf(stderr, "e2ebench: harness %s failed: %s\n", what.c_str(),
                   r.status.ToString().c_str());
      continue;
    }
    if (!r.validation.ok()) Fail("harness " + what + ": " + r.validation.ToString());
    const Call* phase_b = nullptr;
    for (const Call& call : calls_) {
      const Cell& cell = cells_[call.cell];
      if (cell.in_harness && w_.platforms[call.platform] == r.platform &&
          inputs_[cell.input].name == r.graph && cell.kind == r.algorithm) {
        phase_b = &call;
      }
    }
    if (phase_b == nullptr || phase_b->checksum != r.output_checksum) {
      Fail("harness " + what + ": checksum differs from phase B");
    } else if (phase_b->wrong == r.output_checksum) {
      Fail("self-test: phase-C comparison accepted a perturbed " + what);
    }
  }
  return seconds;
}

// Traced runs only: the validator and reference costs per phase-C cell,
// and a serial harness pass when phase C ran concurrently.
void Bench::TraceExtras() {
  for (const Call& call : calls_) {
    const Cell& cell = cells_[call.cell];
    if (!cell.in_harness) continue;
    Span s(log_, "validator.validate", cell.label);
    gly::Status st = gly::harness::ValidateOutput(inputs_[cell.input].graph,
                                                  cell.kind, cell.params, call.kept);
    s.End();
    if (!st.ok()) Fail("ValidateOutput " + cell.label + ": " + st.ToString());
  }
  for (const Cell& cell : cells_) {
    if (!cell.in_harness) continue;
    Span s(log_, "ref.run", cell.label);
    gly::ref::Run(inputs_[cell.input].graph, cell.kind, cell.params);
  }
  validate_s_ = log_.Total("validator.validate");
  ref_s_ = log_.Total("ref.run");
  serial_s_ = w_.jobs == 1 ? makespan_s_
                           : Harness(1, o_.scratch + "/journal-serial.jsonl");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

void Bench::Report() {
  // Per (platform, algorithm): sum over cells of the median timed call.
  std::map<std::string, double> cell_s;
  std::map<std::string, double> counters;
  for (const Call& call : calls_) {
    if (call.times.empty()) continue;
    const std::string& p = w_.platforms[call.platform];
    const Cell& cell = cells_[call.cell];
    const double median = Median(call.times);
    cell_s[p] += median;
    cell_s[p + "." + Lower(cell.kind)] += median;
    std::string counters_text;
    for (const auto& [key, value] : call.counters) {
      counters_text += " " + key + "=" + std::to_string(static_cast<int64_t>(value));
    }
    std::fprintf(stderr, "cell %-10s %-22s median %.6f s over %zu (min %.6f, max %.6f);%s\n",
                 p.c_str(), cell.label.c_str(), median, call.times.size(),
                 *std::min_element(call.times.begin(), call.times.end()),
                 *std::max_element(call.times.begin(), call.times.end()),
                 counters_text.c_str());
    for (const auto& [key, value] : call.counters) counters[p + "." + key] += value;
  }
  std::vector<Metric> e2e = {{"setup_s", setup_s_, "s"}};
  for (const std::string& p : kEngines) e2e.push_back({p + "_s", cell_s[p], "s"});
  e2e.push_back({"makespan_s", makespan_s_, "s"});
  e2e.push_back({"peak_rss_mib", PeakRssMib(), "MiB"});

  std::vector<Metric> metrics = e2e;
  if (o_.trace) {
    std::printf("traced end-to-end: %s\n", Json(e2e).c_str());
    metrics = {{"graph.read_s", log_.Total("graph.read"), "s"},
               {"graph.build_s", log_.Total("graph.build"), "s"}};
    for (const std::string& p : kEngines) {
      metrics.push_back({p + ".load_s", log_.Total(p + ".load"), "s"});
    }
    for (const std::string& p : kEngines) {
      for (AlgorithmKind kind : kAllAlgorithms) {
        const std::string key = p + "." + Lower(kind);
        metrics.push_back({key + "_s", cell_s[key], "s"});
      }
    }
    for (const char* key :
         {"giraph.supersteps", "giraph.messages", "giraph.cross_worker_bytes",
          "graphx.datasets", "graphx.materialized", "graphx.shuffle_bytes",
          "mapreduce.jobs", "mapreduce.spill_bytes", "mapreduce.shuffle_bytes",
          "mapreduce.output_bytes", "neo4j.rels_expanded", "neo4j.cache_hits",
          "neo4j.cache_misses"}) {
      std::string name = key;
      const bool bytes = name.ends_with("_bytes") || name == "graphx.materialized";
      if (name == "graphx.materialized") name += "_bytes";
      metrics.push_back({name, counters[key], bytes ? "B" : "count"});
    }
    const double hits = counters["neo4j.cache_hits"];
    const double misses = counters["neo4j.cache_misses"];
    metrics.push_back({"neo4j.cache_hit_ratio",
                       hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"});
    metrics.push_back({"neo4j.cache_shard_contention",
                       counters["neo4j.cache_shard_contention"], "count"});
    // The part of a serial harness pass not spent in the same cells' loads,
    // runs and validations as measured directly.
    double direct = validate_s_;
    for (size_t p = 0; p < w_.platforms.size(); ++p) {
      for (double s : load_s_[p]) direct += s;
    }
    for (const Call& call : calls_) {
      if (cells_[call.cell].in_harness && !call.times.empty()) direct += Median(call.times);
    }
    metrics.push_back({"validator.validate_s", validate_s_, "s"});
    metrics.push_back({"ref.run_s", ref_s_, "s"});
    metrics.push_back({"harness.unattributed_s", serial_s_ - direct, "s"});
    metrics.push_back({"harness.jobs_speedup", serial_s_ / makespan_s_, "ratio"});
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), Json(metrics).c_str());
}

int Bench::Execute() {
  if (!PrepareInputs() || !Setup()) return 1;
  std::fprintf(stderr, "setup %.6f s, peak RSS %.1f MiB\n", setup_s_, PeakRssMib());
  BuildCells();
  WarmUp();
  Measure();
  std::fprintf(stderr, "%u rounds of %zu direct calls and one harness pass; "
               "makespan %.6f s, peak RSS %.1f MiB\n",
               rounds_, calls_.size(), makespan_s_, PeakRssMib());
  if (o_.trace) TraceExtras();
  Report();
  if (o_.trace && !o_.spans.empty() && !log_.WriteChromeTrace(o_.spans)) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", o_.spans.c_str());
  }
  std::fflush(stdout);
  return correct_ ? 0 : 3;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench gen --workload W --seed N --data DIR\n"
               "       e2ebench run --workload W --seed N --data DIR "
               "--scratch DIR --seconds S --trace 0|1 [--spans FILE]\n"
               "workloads:");
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  Options o;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") o.workload = FindWorkload(value);
    else if (key == "--seed") o.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--data") o.data = value;
    else if (key == "--scratch") o.scratch = value;
    else if (key == "--spans") o.spans = value;
    else if (key == "--seconds") o.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") o.trace = value == "1";
    else return Usage();
  }
  if (o.workload == nullptr || o.data.empty()) return Usage();
  if (mode == "gen") return Generate(*o.workload, o.seed, o.data);
  if (mode != "run" || o.scratch.empty() || !(o.seconds > 0)) return Usage();
  Bench bench(o);
  return bench.Execute();
}
