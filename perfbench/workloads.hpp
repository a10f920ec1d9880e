// The benchmark's four workloads (BENCHMARK.json) and the layer probes.
//
// A workload pass builds its inputs from Params only, drives the program
// through its public API (k8s::Cluster, serve::TrafficDriver,
// bench::run_matrix), checks the outputs and hashes every simulated
// output into one digest. With a SpanLog it is the traced run: the same
// calls, each wrapped in a host span, plus the per-layer readings.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engines/calibration.hpp"
#include "span_log.hpp"

namespace perfbench {

enum class Workload { kPaper, kDense, kFleet, kServe };

[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);

/// Everything a pass needs, generated from the workload and `--seed`.
/// Seed 0 reproduces the repo's benches: node seed 42 and traffic seeds
/// 0x7001/0x7002. `paper` goes through bench::run_matrix, which always
/// uses the default node seed, so its inputs do not depend on the seed.
struct Params {
  Workload workload = Workload::kPaper;
  uint64_t seed = 0;
  uint64_t node_seed = 42;
  // dense / fleet
  uint32_t pods = 0;
  uint32_t nodes = 1;
  // serve
  uint32_t replicas_per_class = 0;
  uint32_t requests_per_class = 0;
  double rate_rps = 0;
  uint64_t traffic_seed_wasm = 0x7001;
  uint64_t traffic_seed_py = 0x7002;
  /// Churn, as offsets from the start of traffic in virtual seconds:
  /// OOM kills of request-service:wasm replicas (in-place restarts) and
  /// deletions of request-service:python replicas (replaced by their
  /// Deployment). `churn_pick` picks the victim among the ready replicas.
  std::vector<double> oom_at_s;
  std::vector<double> delete_at_s;
  std::vector<uint64_t> churn_pick;
};

[[nodiscard]] Params make_params(Workload w, uint64_t seed);

/// Inputs of the layer probes, taken from the workload's own run.
struct ProbeInputs {
  uint32_t pods_per_node = 1;  ///< K of the CPU probe
  uint32_t nodes = 1;          ///< W of the bind probe
  uint32_t pods = 1;           ///< arrivals of the TrafficDriver::start probe
  std::vector<uint8_t> module;                  ///< the Wasm the pods run
  std::vector<std::pair<bool, wasmctr::engines::EngineKind>>
      engines;                                  ///< (shim flavour, kind)
  std::string config_json;      ///< one container's config.json
  std::string bundle_path;      ///< that container's bundle directory
  std::string expected_stdout;  ///< that container's stdout
  std::string python_script;    ///< the Python containers' script
  std::optional<std::string> expected_python_stdout;
  /// Handler results the request trace shows (serve only).
  std::optional<int32_t> wasm_result;
  std::optional<int32_t> python_result;
  bool probe_traffic_start = true;  ///< false when the workload timed it
  uint64_t seed = 0;
};

/// One pass over a workload.
struct Pass {
  double setup_s = 0;  ///< host seconds before the timed phase
  double timed_s = 0;  ///< host seconds of the timed phase
  uint64_t pods_running = 0;  ///< pods reaching Running in the timed phase
  uint64_t requests = 0;      ///< requests completed in the timed phase
  uint64_t events = 0;        ///< kernel events in the timed phase
  double peak_rss_mib = 0;    ///< the pass process's peak host RSS
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< failed checks, for stderr
  uint64_t digest = 0;
  std::map<std::string, double> sim;    ///< the sim_* end-to-end metrics
  std::map<std::string, double> layer;  ///< per-layer metrics (traced)

  void check(bool ok, const std::string& what);
};

/// Dense/fleet/serve: one full pass (setup + timed phase). Paper: the
/// cell-by-cell pass through the public Cluster API, which is the
/// workload's set-up (it warms the engine memos and yields the per-pod
/// samples) and its traced run.
[[nodiscard]] Pass run_pass(const Params& p, SpanLog* log);

/// Paper only: one timed bench::run_matrix pass.
[[nodiscard]] Pass run_paper_matrix();

/// Time the layer probes, check each one's result, and add the per-layer
/// metrics they yield to `out`.
void run_probes(const ProbeInputs& in, SpanLog& log, Pass& out);

}  // namespace perfbench
