// wasmctr benchmark: one workload per invocation.
//
//   wasmctr_perfbench --workload paper|dense|fleet|serve --seed N
//                     --seconds S --trace 0|1 [--spans PATH]
//   wasmctr_perfbench --list
//
// --trace 0 repeats untraced passes for S seconds, each in a forked
// child, and prints the end-to-end metrics. --trace 1 runs untraced
// passes for S/2 seconds, then one traced pass with the same seed, and
// prints the per-layer metrics; PATH receives its spans. Every pass hashes
// its simulated outputs; a digest that differs between passes, or between
// the traced and untraced runs, fails the run. The last line of stdout is
// the result object perfbench/run.py checks against BENCHMARK.json.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed with --trace 0. perfbench/run.py --self-test checks these lists
// against BENCHMARK.json one for one.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"pods_per_s", "pods/s"},
    {"requests_per_s", "req/s"},
    {"peak_rss_mib", "MiB"},
    {"sim_mem_mib_per_pod", "MiB"},
    {"sim_free_mib_per_pod", "MiB"},
    {"sim_startup_s", "virtual_s"},
    {"sim_req_p50_ms", "virtual_ms"},
    {"sim_req_p99_ms", "virtual_ms"},
};

// Printed with --trace 1.
constexpr MetricDef kPerLayer[] = {
    {"sim.kernel.events_per_pod", "count"},
    {"sim.kernel.events_per_req", "count"},
    {"sim.kernel.ns_per_event", "ns"},
    {"sim.kernel.heap_peak", "count"},
    {"sim.kernel.tombstone_peak", "count"},
    {"sim.cpu.ns_per_event", "ns"},
    {"sim.cpu.runnable_peak", "count"},
    {"sim.cpu.busy_s", "virtual_s"},
    {"mem.anon_mib", "MiB"},
    {"mem.shared_mib", "MiB"},
    {"mem.cache_mib", "MiB"},
    {"mem.shared_mib.wasmcode", "MiB"},
    {"mem.shared_mib.wasmmeta", "MiB"},
    {"mem.shared_mib.lib", "MiB"},
    {"mem.shared_mib.image", "MiB"},
    {"mem.shared_mib.other", "MiB"},
    {"mem.probe_us", "us"},
    {"wasm.decode_us", "us"},
    {"wasm.validate_us", "us"},
    {"wasm.compile_us", "us"},
    {"engines.start_us", "us"},
    {"engines.invoke_us", "us"},
    {"pylite.boot_us", "us"},
    {"pylite.invoke_us", "us"},
    {"oci.spec_us", "us"},
    {"containerd.daemon_busy_s", "virtual_s"},
    {"containerd.sandboxes", "count"},
    {"k8s.deploy_us_per_pod", "us"},
    {"k8s.bind_us", "us"},
    {"k8s.start_attempts_per_pod", "count"},
    {"k8s.restarts", "count"},
    {"k8s.evictions", "count"},
    {"k8s.unschedulable", "count"},
    {"serve.attempts_per_req", "count"},
    {"serve.cold_frac", "ratio"},
    {"serve.queue_ms", "virtual_ms"},
    {"serve.exec_ms", "virtual_ms"},
    {"serve.start_us", "us"},
    {"obs.spans_per_pod", "count"},
    {"obs.series", "count"},
    {"phase.sched.bind_s", "virtual_s"},
    {"phase.kubelet.sync_s", "virtual_s"},
    {"phase.sandbox.cni_s", "virtual_s"},
    {"phase.cri.create_s", "virtual_s"},
    {"phase.shim.spawn_s", "virtual_s"},
    {"phase.runtime.exec_s", "virtual_s"},
    {"phase.engine.load_s", "virtual_s"},
    {"phase.interp.boot_s", "virtual_s"},
    {"phase.wasi.start_s", "virtual_s"},
    {"alloc.per_pod", "count"},
    {"alloc.per_req", "count"},
    {"alloc.deploy_per_pod", "count"},
    {"bench.trace_overhead", "ratio"},
};

constexpr const char* kWorkloads[] = {"paper", "dense", "fleet", "serve"};

// At least this many untraced passes, so the medians have company.
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMinPassesTraced = 2;
constexpr std::size_t kMaxPasses = 200;
// paper set-ups per run (the others' set-up comes with every pass).
constexpr int kPaperSetups = 5;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

std::string pass_to_json(const Pass& p) {
  using wasmctr::json::Array;
  using wasmctr::json::Object;
  Object o;
  o["setup_s"] = p.setup_s;
  o["timed_s"] = p.timed_s;
  o["pods_running"] = p.pods_running;
  o["requests"] = p.requests;
  o["events"] = p.events;
  o["attempted"] = p.attempted;
  o["failed"] = p.failed;
  o["digest"] = p.digest;
  Array failures;
  for (const std::string& f : p.failures) failures.emplace_back(f);
  o["failures"] = std::move(failures);
  Object sim;
  for (const auto& [name, value] : p.sim) sim[name] = value;
  o["sim"] = std::move(sim);
  return wasmctr::json::Value(std::move(o)).dump();
}

bool pass_from_json(const std::string& text, Pass& p) {
  auto parsed = wasmctr::json::parse(text);
  if (!parsed || !parsed->is_object()) return false;
  const wasmctr::json::Value& v = *parsed;
  const auto num = [&v](const char* key) {
    const wasmctr::json::Value* f = v.find(key);
    return f != nullptr && f->is_number() ? f->as_double() : 0.0;
  };
  const auto count = [&v](const char* key) {
    return static_cast<uint64_t>(v.get_i64(key));
  };
  p.setup_s = num("setup_s");
  p.timed_s = num("timed_s");
  p.pods_running = count("pods_running");
  p.requests = count("requests");
  p.events = count("events");
  p.attempted = count("attempted");
  p.failed = count("failed");
  p.digest = count("digest");
  if (const auto* f = v.find("failures"); f != nullptr && f->is_array()) {
    for (const auto& e : f->as_array()) p.failures.push_back(e.as_string());
  }
  if (const auto* sim = v.find("sim"); sim != nullptr && sim->is_object()) {
    for (const auto& [name, value] : sim->as_object()) {
      p.sim[name] = value.as_double();
    }
  }
  return true;
}

/// Runs one untraced pass in a forked child. Every pass then starts from
/// the same heap, whatever earlier passes left behind, and the child's
/// peak RSS is the pass's own.
Pass run_forked(const std::function<Pass()>& body) {
  std::fflush(stdout);
  std::fflush(stderr);
  Pass p;
  int fds[2];
  if (pipe(fds) != 0) {
    p.check(false, "pipe for the pass process");
    return p;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    p.check(false, "fork the pass process");
    return p;
  }
  if (pid == 0) {
    close(fds[0]);
    const std::string text = pass_to_json(body());
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(1);
      off += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !pass_from_json(text, p)) {
    p = Pass{};
    p.check(false, "pass process exited cleanly");
  }
  p.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return p;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: wasmctr_perfbench --workload paper|dense|fleet|"
               "serve --seed N --seconds S --trace 0|1 [--spans PATH]\n"
               "       wasmctr_perfbench --list\n",
               why);
  return 2;
}

bool parse_u64(const char* text, uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  out = v;
  return true;
}

void print_list() {
  using wasmctr::json::Array;
  using wasmctr::json::Object;
  const auto defs = [](const auto& table) {
    Array out;
    for (const MetricDef& m : table) {
      Object o;
      o["name"] = m.name;
      o["unit"] = m.unit;
      out.emplace_back(std::move(o));
    }
    return out;
  };
  Object root;
  root["end_to_end"] = defs(kEndToEnd);
  root["per_layer"] = defs(kPerLayer);
  Array workloads;
  for (const char* w : kWorkloads) workloads.emplace_back(w);
  root["workloads"] = std::move(workloads);
  std::printf("%s\n", wasmctr::json::Value(std::move(root)).dump().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_arg;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 2;
  std::string spans_path;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      print_list();
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload_arg = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, seed)) return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, seconds) || seconds == 0 || seconds > 120) {
        return usage("bad --seconds (1..120)");
      }
    } else if (flag == "--trace") {
      if (!parse_u64(value, trace) || trace > 1) return usage("bad --trace");
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const auto workload = parse_workload(workload_arg);
  if (!workload) return usage("unknown or missing --workload");
  if (!have_seed || seconds == 0 || trace > 1) {
    return usage("--seed, --seconds and --trace are required");
  }
  const bool traced = trace == 1;
  const Params params = make_params(*workload, seed);
  const bool paper = *workload == Workload::kPaper;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  const auto account = [&](const Pass& pass, const char* which) {
    attempted += pass.attempted;
    failed += pass.failed;
    for (const std::string& f : pass.failures) {
      std::fprintf(stderr, "[FAIL] %s pass: %s\n", which, f.c_str());
    }
  };
  bool have_digest = false;
  uint64_t digest = 0;
  const auto same_digest = [&](const Pass& pass, const char* which) {
    ++attempted;
    if (!have_digest) {
      have_digest = true;
      digest = pass.digest;
      return;
    }
    if (pass.digest != digest) {
      ++failed;
      std::fprintf(stderr,
                   "[FAIL] %s pass: digest %016" PRIx64 " != %016" PRIx64
                   "\n",
                   which, pass.digest, digest);
    }
  };

  // paper's set-up is one cell-by-cell pass through the public Cluster
  // API: it warms the engines' process-global memos and yields the per-pod
  // samples. All but the last run in children forked from the cold
  // parent, so each starts cold; the last warms the parent for the timed
  // passes.
  std::vector<double> setup_s;
  Pass cells;
  if (paper) {
    const auto setup = [&] {
      const int64_t t0 = host_ns();
      Pass pass = run_pass(params, nullptr);
      pass.setup_s = static_cast<double>(host_ns() - t0) / 1e9;
      return pass;
    };
    for (int i = 0; i < kPaperSetups; ++i) {
      Pass pass = i + 1 < kPaperSetups ? run_forked(setup) : setup();
      std::printf("set-up %d: %.6f s\n", i + 1, pass.setup_s);
      setup_s.push_back(pass.setup_s);
      account(pass, "set-up");
      same_digest(pass, "set-up");
      cells = std::move(pass);
    }
  }

  std::vector<Pass> passes;
  const double budget_s =
      traced ? static_cast<double>(seconds) / 2 : static_cast<double>(seconds);
  const std::size_t min_passes = traced ? kMinPassesTraced : kMinPasses;
  double measured_s = 0;
  while (passes.size() < kMaxPasses &&
         (passes.size() < min_passes || measured_s < budget_s)) {
    const int64_t t0 = host_ns();
    Pass pass = run_forked([&] {
      return paper ? run_paper_matrix() : run_pass(params, nullptr);
    });
    measured_s += static_cast<double>(host_ns() - t0) / 1e9;
    std::printf("pass %zu: set-up %.6f s, timed %.6f s\n", passes.size() + 1,
                pass.setup_s, pass.timed_s);
    account(pass, "untraced");
    same_digest(pass, "untraced");
    passes.push_back(std::move(pass));
  }
  const Pass& sim_pass = paper ? cells : passes.front();

  // Throughput and set-up time are the best pass's. On a shared host,
  // co-tenant load slows these memory-bound passes by up to 1.5x for
  // seconds to minutes at a time, so a median over one run's passes
  // depends on which phase the run met; the fastest pass is the one
  // closest to the program's own cost.
  double best_timed_s = std::numeric_limits<double>::infinity();
  double pods_per_s = 0;
  double requests_per_s = 0;
  std::vector<double> peak_rss_mib;
  for (const Pass& pass : passes) {
    if (pass.timed_s <= 0) continue;  // the pass process failed
    if (!paper) setup_s.push_back(pass.setup_s);
    peak_rss_mib.push_back(pass.peak_rss_mib);
    best_timed_s = std::min(best_timed_s, pass.timed_s);
    pods_per_s = std::max(
        pods_per_s, static_cast<double>(pass.pods_running) / pass.timed_s);
    // On the startup workloads each pod creation is the request.
    const uint64_t requests = *workload == Workload::kServe
                                  ? pass.requests
                                  : pass.pods_running;
    requests_per_s = std::max(
        requests_per_s, static_cast<double>(requests) / pass.timed_s);
  }

  std::map<std::string, double> metrics;
  if (!traced) {
    metrics["setup_s"] = setup_s.empty()
                             ? 0
                             : *std::min_element(setup_s.begin(), setup_s.end());
    metrics["pods_per_s"] = pods_per_s;
    metrics["requests_per_s"] = requests_per_s;
    metrics["peak_rss_mib"] = median(peak_rss_mib);
    for (const auto& [name, value] : sim_pass.sim) metrics[name] = value;
  } else {
    SpanLog log(workload_arg, seed);
    Pass pass = run_pass(params, &log);
    account(pass, "traced");
    same_digest(pass, "traced");
    metrics = pass.layer;
    const uint64_t events = paper ? cells.events : passes.front().events;
    metrics["sim.kernel.ns_per_event"] =
        best_timed_s * 1e9 / static_cast<double>(events);
    metrics["bench.trace_overhead"] =
        log.seconds("bench.timed_phase") / best_timed_s - 1.0;
    if (!spans_path.empty()) {
      std::ofstream out(spans_path, std::ios::binary | std::ios::trunc);
      out << log.json();
      if (!out) std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    }
  }

  // Every listed metric, by name, in the listed order.
  using wasmctr::json::Object;
  using wasmctr::json::Value;
  Object printed;
  std::printf("%s seed=%" PRIu64 " trace=%" PRIu64 ": %zu untraced passes\n",
              workload_arg.c_str(), seed, trace, passes.size());
  for (const MetricDef& m : traced ? std::span<const MetricDef>(kPerLayer)
                                   : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = metrics.find(m.name);
    ++attempted;
    if (it == metrics.end()) {
      ++failed;
      std::fprintf(stderr, "[FAIL] metric %s was not measured\n", m.name);
    }
    double value = it == metrics.end() ? 0 : it->second;
    // JSON has no infinity: a latency quantile over failed requests reads
    // as the largest double.
    if (std::isinf(value)) value = std::numeric_limits<double>::max();
    std::printf("  %-30s %18.6f %s\n", m.name, value, m.unit);
    Object o;
    o["value"] = value;
    o["unit"] = m.unit;
    printed[m.name] = std::move(o);
  }
  std::printf("digest %s seed=%" PRIu64 " %016" PRIx64 "\n",
              workload_arg.c_str(), seed, digest);

  Object result;
  result["correct"] = failed == 0;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = std::move(printed);
  std::printf("%s\n", Value(std::move(result)).dump().c_str());
  return 0;
}
