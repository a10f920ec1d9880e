#include "workloads.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "bench_support/report.hpp"
#include "k8s/cluster.hpp"
#include "obs/metrics.hpp"
#include "pylite/scripts.hpp"
#include "serve/traffic.hpp"
#include "support/rng.hpp"
#include "wasm/workloads.hpp"

namespace perfbench {

using namespace wasmctr;
using k8s::DeployConfig;

namespace {

// Sizes. `dense` and `fleet` deploy the same pod total: dense at the
// paper's top density, fleet at its lowest on 40x the nodes, so one
// stresses the per-node CPU model and the other the per-node control
// plane. `serve` follows bench_serving's two Deployments, long enough
// that warm requests dominate.
constexpr uint32_t kDensePodsPerNode = 400;
constexpr uint32_t kDenseNodes = 32;
constexpr uint32_t kFleetPodsPerNode = 10;
constexpr uint32_t kServeReplicasPerClass = 50;
constexpr uint32_t kServeRequestsPerClass = 20000;
constexpr double kServeRateRps = 500;
constexpr int kChurnPerKind = 8;
constexpr uint32_t kPaperDensities[] = {10, 100, 400};
// The engines paper's Wasm configurations run: (runwasi shim, kind).
constexpr std::pair<bool, engines::EngineKind> kPaperEngines[] = {
    {false, engines::EngineKind::kWamr},
    {false, engines::EngineKind::kWasmtime},
    {false, engines::EngineKind::kWasmer},
    {false, engines::EngineKind::kWasmEdge},
    {true, engines::EngineKind::kWasmtime},
    {true, engines::EngineKind::kWasmer},
    {true, engines::EngineKind::kWasmEdge}};

// The counters are sampled once per virtual tick.
constexpr SimDuration kTick = sim_s(1.0);
constexpr int kMaxTicks = 5000;

constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ull;

constexpr const char* kPhases[] = {
    "sched.bind",  "kubelet.sync", "sandbox.cni", "cri.create", "shim.spawn",
    "runtime.exec", "engine.load", "interp.boot", "wasi.start"};

std::vector<DeployConfig> all_configs() {
  return {std::begin(k8s::kAllConfigs), std::end(k8s::kAllConfigs)};
}

std::vector<uint32_t> paper_densities() {
  return {std::begin(kPaperDensities), std::end(kPaperDensities)};
}

/// FNV-1a 64: the digest of a pass's simulated outputs.
uint64_t fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void append(std::string& blob, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void append(std::string& blob, const char* fmt, ...) {
  char line[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(line, sizeof line, fmt, args);
  va_end(args);
  blob += line;
}

/// Points the log's counter sampler at a live cluster, and detaches it
/// before the cluster goes away.
class SamplerScope {
 public:
  explicit SamplerScope(SpanLog* log) : log_(log) {}
  ~SamplerScope() {
    if (log_ != nullptr) log_->set_sampler({});
  }
  SamplerScope(const SamplerScope&) = delete;
  SamplerScope& operator=(const SamplerScope&) = delete;

  void attach(k8s::Cluster& c) {
    if (log_ == nullptr) return;
    log_->set_sampler([&c](CounterSample& s) {
      sim::Kernel& k = c.kernel();
      s.virtual_s = to_seconds(k.now());
      s.events = k.executed();
      s.heap = k.heap_size();
      s.pending = k.pending();
      for (uint32_t i = 0; i < c.worker_count(); ++i) {
        s.runnable = std::max<uint64_t>(s.runnable, c.node(i).cpu().runnable());
      }
    });
  }

 private:
  SpanLog* log_;
};

struct KernelPeaks {
  uint64_t heap = 0;
  uint64_t tombstones = 0;
  bool heap_bounded = true;
};

/// Advance the cluster by one tick and read the kernel's heap counters.
void tick(k8s::Cluster& c, SpanLog* log, KernelPeaks& peaks) {
  {
    Span s(log, "sim.Kernel::run_until");
    c.run_for(kTick);
  }
  const sim::Kernel& k = c.kernel();
  peaks.heap = std::max<uint64_t>(peaks.heap, k.heap_size());
  peaks.tombstones =
      std::max<uint64_t>(peaks.tombstones, k.heap_size() - k.pending());
  // bench_scale's compaction invariant.
  if (k.heap_size() > std::max<std::size_t>(2 * k.pending(), 64)) {
    peaks.heap_bounded = false;
  }
  if (log != nullptr) log->sample("tick");
}

/// Tick until the kernel has nothing left to run (no node lifecycle).
void drain(k8s::Cluster& c, SpanLog* log, KernelPeaks& peaks) {
  for (int t = 0; t < kMaxTicks && c.kernel().pending() > 0; ++t) {
    tick(c, log, peaks);
  }
}

double quantile_ms(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return obs::nearest_rank(values, q);
}

/// Pod startup latency (creation to Running) in virtual ms; pods that
/// never ran count as +inf.
void pod_latencies(k8s::Cluster& c, std::vector<double>& out) {
  for (const k8s::Pod* pod : c.api().pods()) {
    out.push_back(pod->status.phase == k8s::PodPhase::kRunning
                      ? to_millis(pod->status.running_at -
                                  pod->status.created_at)
                      : std::numeric_limits<double>::infinity());
  }
}

void add_sim_digest(const Pass& r, std::string& blob) {
  for (const auto& [name, value] : r.sim) {
    append(blob, "%s=%.17g\n", name.c_str(), value);
  }
}

/// Counters that add up across clusters (paper sums its 27 cells).
struct LayerTotals {
  uint64_t startups = 0;  // pod timelines that reached Running
  uint64_t attempts = 0;
  uint64_t restarts = 0;
  uint64_t evictions = 0;
  uint64_t unschedulable = 0;
  uint64_t sandboxes = 0;
  uint64_t spans = 0;
  double cpu_busy_s = 0;
  double daemon_busy_s = 0;
  std::map<std::string, double> phase_s;
  std::vector<std::string> unknown_phases;

  void add(k8s::Cluster& c) {
    for (uint32_t i = 0; i < c.worker_count(); ++i) {
      const k8s::Kubelet& kl = c.kubelet(i);
      attempts += kl.pods_started() + kl.pods_failed();
      restarts += kl.restarts_total();
      evictions += kl.pods_evicted();
      sandboxes += c.cri(i).sandbox_count();
      cpu_busy_s += c.node(i).cpu().consumed_cpu_seconds();
    }
    daemon_busy_s += to_seconds(c.node(0).daemon_lock().busy_time());
    unschedulable += c.scheduler().unschedulable_count();
    const obs::Tracer& tracer = c.obs().tracer;
    startups += tracer.completed_timelines();
    spans += tracer.spans().size();
    for (const obs::PhaseStat& ps : tracer.pod_phase_stats()) {
      if (std::find(std::begin(kPhases), std::end(kPhases), ps.phase) ==
          std::end(kPhases)) {
        unknown_phases.push_back(ps.phase);
      }
      phase_s[ps.phase] += ps.total_s;
    }
  }

  void emit(const SpanLog& log, uint64_t pods, Pass& r) const {
    const auto per = [](double v, uint64_t n) {
      return n == 0 ? 0.0 : v / static_cast<double>(n);
    };
    for (const CounterSample& s : log.samples()) {
      r.layer["sim.cpu.runnable_peak"] = std::max<double>(
          r.layer["sim.cpu.runnable_peak"], static_cast<double>(s.runnable));
    }
    r.layer["sim.cpu.busy_s"] = cpu_busy_s;
    r.layer["containerd.daemon_busy_s"] = daemon_busy_s;
    r.layer["containerd.sandboxes"] = static_cast<double>(sandboxes);
    r.layer["k8s.start_attempts_per_pod"] =
        per(static_cast<double>(attempts), pods);
    r.layer["k8s.restarts"] = static_cast<double>(restarts);
    r.layer["k8s.evictions"] = static_cast<double>(evictions);
    r.layer["k8s.unschedulable"] = static_cast<double>(unschedulable);
    r.layer["obs.spans_per_pod"] = per(static_cast<double>(spans), pods);
    for (const char* phase : kPhases) {
      const auto it = phase_s.find(phase);
      r.layer[std::string("phase.") + phase + "_s"] =
          per(it == phase_s.end() ? 0.0 : it->second, startups);
    }
    for (const std::string& phase : unknown_phases) {
      r.check(false, "pod phase " + phase + " is listed in BENCHMARK.json");
    }
  }
};

/// Worker 0's memory by kind, and the registry's series count.
void node_layers(k8s::Cluster& c, Pass& r) {
  const mem::NodeMemory& m = c.node(0).memory();
  r.layer["mem.anon_mib"] = m.anon_total().mib();
  r.layer["mem.shared_mib"] = m.shared_resident().mib();
  r.layer["mem.cache_mib"] = m.page_cache().mib();
  for (std::size_t k = 0; k < mem::kMappingKindCount; ++k) {
    const auto kind = static_cast<mem::MappingKind>(k);
    r.layer[std::string("mem.shared_mib.") + mem::mapping_kind_name(kind)] =
        m.shared_by_kind(kind).mib();
  }
  uint64_t series = 0;
  const obs::Registry& reg = c.obs().metrics;
  reg.for_each_counter([&](const auto&, const auto&, const auto&) { ++series; });
  reg.for_each_gauge([&](const auto&, const auto&, const auto&) { ++series; });
  reg.for_each_histogram(
      [&](const auto&, const auto&, const auto&) { ++series; });
  r.layer["obs.series"] = static_cast<double>(series);
}

/// The host-time and allocation metrics read off the benchmark's spans.
void span_layers(const SpanLog& log, const char* deploy_span,
                 const char* start_span, uint64_t pods, uint64_t requests,
                 double timed_events, Pass& r) {
  const auto per = [](double v, uint64_t n) {
    return n == 0 ? 0.0 : v / static_cast<double>(n);
  };
  r.layer["k8s.deploy_us_per_pod"] = per(log.seconds(deploy_span) * 1e6, pods);
  r.layer["alloc.deploy_per_pod"] =
      per(static_cast<double>(log.allocs(deploy_span)), pods);
  r.layer["alloc.per_pod"] =
      per(static_cast<double>(log.allocs(start_span)), pods);
  r.layer["alloc.per_req"] =
      per(static_cast<double>(log.allocs("bench.timed_phase")), requests);
  r.layer["mem.probe_us"] =
      (log.seconds("mem.MetricsServer::average_working_set") +
       log.seconds("mem.FreeProbe::delta_per_container")) *
      1e6;
  r.layer["sim.kernel.events_per_req"] = per(timed_events, requests);
}

/// The serve layer's virtual-time metrics; the startup workloads send no
/// requests, so theirs read 0.
void no_requests(Pass& r) {
  for (const char* name : {"serve.attempts_per_req", "serve.cold_frac",
                           "serve.queue_ms", "serve.exec_ms"}) {
    r.layer[name] = 0;
  }
}

/// A running pod's container: its config.json and stdout, for the probes.
void capture_container(k8s::Cluster& c, uint32_t worker,
                       const std::string& pod_name, ProbeInputs& in,
                       bool python) {
  const k8s::Pod* pod = c.api().pod(pod_name);
  if (pod == nullptr || pod->status.container_id.empty()) return;
  auto out = c.pod_stdout(pod_name);
  if (python) {
    if (out) in.expected_python_stdout = *out;
    return;
  }
  // containerd's bundle layout (containerd.cpp, CreateContainer).
  in.bundle_path = "run/containerd/io.containerd.runtime.v2.task/k8s.io/" +
                   pod->status.container_id;
  auto config = c.node(worker).fs().read_file(in.bundle_path + "/config.json");
  if (config) in.config_json = *config;
  if (out) in.expected_stdout = *out;
}

void read_memory(k8s::Cluster& c, SpanLog* log, std::size_t worker0_pods,
                 Pass& r) {
  {
    Span s(log, "mem.MetricsServer::average_working_set");
    r.sim["sim_mem_mib_per_pod"] = c.metrics_avg_per_container().mib();
  }
  Span s(log, "mem.FreeProbe::delta_per_container");
  r.sim["sim_free_mib_per_pod"] =
      c.free_probe().delta_per_container(worker0_pods).mib();
}

// --- paper ---------------------------------------------------------------

std::string digest_samples(const std::vector<bench::Sample>& samples) {
  std::string blob;
  for (const bench::Sample& s : samples) {
    append(blob, "%s n=%u metrics=%.17g free=%.17g startup=%.17g\n",
           k8s::deploy_config_name(s.config), s.density, s.metrics_mib,
           s.free_mib, s.startup_s);
  }
  return blob;
}

Pass run_paper_cells(const Params& p, SpanLog* log) {
  Pass r;
  std::vector<bench::Sample> samples;
  std::vector<double> latencies;
  LayerTotals totals;
  KernelPeaks peaks;
  ProbeInputs probe;
  probe.seed = p.seed;
  probe.nodes = 1;
  probe.module = wasm::build_minimal_microservice();
  probe.python_script = pylite::minimal_microservice_script();
  probe.engines = {std::begin(kPaperEngines), std::end(kPaperEngines)};
  uint64_t events = 0;
  const int64_t t0 = host_ns();
  {
    Span timed(log, "bench.timed_phase");
    for (const DeployConfig config : all_configs()) {
      for (const uint32_t density : paper_densities()) {
        const std::string cell = std::string(k8s::deploy_config_name(config)) +
                                 "/" + std::to_string(density);
        Span cell_span(log, "bench.run_experiment", cell);
        std::unique_ptr<k8s::Cluster> cluster;
        SamplerScope sampler(log);
        {
          Span s(log, "k8s.Cluster::Cluster");
          cluster = std::make_unique<k8s::Cluster>();
        }
        k8s::Cluster& c = *cluster;
        sampler.attach(c);
        Status st;
        {
          Span s(log, "k8s.Cluster::deploy");
          st = c.deploy(config, density);
        }
        r.check(st.is_ok(), cell + " deploy accepted");
        drain(c, log, peaks);
        std::size_t running = 0;
        {
          Span s(log, "k8s.Cluster::running_count");
          running = c.running_count();
        }
        r.attempted += density;
        r.failed += density - std::min<std::size_t>(running, density);
        r.pods_running += running;
        events += c.kernel().executed();
        bench::Sample sample;
        sample.config = config;
        sample.density = density;
        Pass mem;
        read_memory(c, log, running, mem);
        sample.metrics_mib = mem.sim["sim_mem_mib_per_pod"];
        sample.free_mib = mem.sim["sim_free_mib_per_pod"];
        {
          Span s(log, "k8s.Cluster::startup_makespan");
          sample.startup_s = to_seconds(c.startup_makespan());
        }
        samples.push_back(sample);
        pod_latencies(c, latencies);
        if (log == nullptr) continue;
        totals.add(c);
        const bool headline =
            config == DeployConfig::kCrunWamr && density == 400;
        if (headline) node_layers(c, r);
        if (config == DeployConfig::kCrunWamr && density == 10) {
          capture_container(c, 0, c.api().pods().front()->spec.name, probe,
                            false);
        }
        if (config == DeployConfig::kRuncPython && density == 10) {
          capture_container(c, 0, c.api().pods().front()->spec.name, probe,
                            true);
        }
      }
    }
  }
  const int64_t t1 = host_ns();
  r.timed_s = static_cast<double>(t1 - t0) / 1e9;
  r.events = events;

  // Fig 10's summary: crun-wamr averaged over the three densities.
  double mem_sum = 0;
  double free_sum = 0;
  for (const uint32_t d : paper_densities()) {
    const bench::Sample& s = bench::find(samples, DeployConfig::kCrunWamr, d);
    mem_sum += s.metrics_mib;
    free_sum += s.free_mib;
  }
  const double n = static_cast<double>(std::size(kPaperDensities));
  r.sim["sim_mem_mib_per_pod"] = mem_sum / n;
  r.sim["sim_free_mib_per_pod"] = free_sum / n;
  r.sim["sim_startup_s"] =
      bench::find(samples, DeployConfig::kCrunWamr, 400).startup_s;
  r.sim["sim_req_p50_ms"] = quantile_ms(latencies, 0.50);
  r.sim["sim_req_p99_ms"] = quantile_ms(latencies, 0.99);
  r.digest = fnv1a(digest_samples(samples));

  if (log != nullptr) {
    totals.emit(*log, r.pods_running, r);
    no_requests(r);
    span_layers(*log, "k8s.Cluster::deploy", "bench.timed_phase",
                r.pods_running, 0, 0, r);
    r.layer["sim.kernel.events_per_pod"] =
        static_cast<double>(events) / static_cast<double>(r.pods_running);
    r.layer["sim.kernel.heap_peak"] = static_cast<double>(peaks.heap);
    r.layer["sim.kernel.tombstone_peak"] =
        static_cast<double>(peaks.tombstones);
    probe.pods_per_node = 400;
    probe.pods = static_cast<uint32_t>(r.pods_running);
    run_probes(probe, *log, r);
  }
  return r;
}

// --- dense / fleet -------------------------------------------------------

Pass run_startup(const Params& p, SpanLog* log) {
  Pass r;
  std::unique_ptr<k8s::Cluster> cluster;
  SamplerScope sampler(log);
  const int64_t t0 = host_ns();
  {
    Span setup(log, "bench.setup");
    Span s(log, "k8s.Cluster::Cluster");
    k8s::ClusterOptions opts;
    opts.workers = p.nodes;  // >= 2 workers: node lifecycle is on
    opts.node.seed = p.node_seed;
    cluster = std::make_unique<k8s::Cluster>(opts);
  }
  k8s::Cluster& c = *cluster;
  sampler.attach(c);
  // As in bench_scale: span capture and histogram samples are off unless
  // this is the traced run, which needs the spans for the phase metrics.
  c.obs().tracer.set_span_capture(log != nullptr);
  c.obs().metrics.set_sample_retention(false);

  KernelPeaks peaks;
  std::size_t running = 0;
  Status st;
  const int64_t t1 = host_ns();
  {
    Span timed(log, "bench.timed_phase");
    {
      Span s(log, "k8s.Cluster::deploy");
      st = c.deploy(DeployConfig::kCrunWamr, p.pods, "scale");
    }
    for (int t = 0; t < kMaxTicks && running < p.pods && st.is_ok(); ++t) {
      tick(c, log, peaks);
      Span s(log, "k8s.Cluster::running_count");
      running = c.running_count();
    }
  }
  const int64_t t2 = host_ns();
  r.setup_s = static_cast<double>(t1 - t0) / 1e9;
  r.timed_s = static_cast<double>(t2 - t1) / 1e9;
  r.pods_running = running;
  r.events = c.kernel().executed();
  r.attempted = p.pods;
  r.failed = p.pods - std::min<std::size_t>(running, p.pods);

  // bench_scale's checks.
  uint64_t records = 0;
  for (uint32_t i = 0; i < c.worker_count(); ++i) {
    records += c.kubelet(i).record_count();
  }
  r.check(st.is_ok(), "deploy accepted");
  r.check(running == p.pods, "all pods Running");
  r.check(c.scheduler().unschedulable_count() == 0, "no pod unschedulable");
  r.check(c.scheduler().bound_count() == p.pods,
          "scheduler bound_count equals pods");
  r.check(records == p.pods, "kubelet records equal pods");
  r.check(peaks.heap_bounded, "kernel heap <= max(2*pending, 64)");

  const std::string& node0 = c.kubelet(0).config().node_name;
  const std::size_t worker0_pods = c.api().pods_on_node(node0).size();
  read_memory(c, log, worker0_pods, r);
  {
    Span s(log, "k8s.Cluster::startup_makespan");
    r.sim["sim_startup_s"] = to_seconds(c.startup_makespan());
  }
  std::vector<double> latencies;
  pod_latencies(c, latencies);
  r.sim["sim_req_p50_ms"] = quantile_ms(latencies, 0.50);
  r.sim["sim_req_p99_ms"] = quantile_ms(latencies, 0.99);

  // The bundle bench_scale --export writes, plus the sim metrics.
  std::string blob;
  append(blob,
         "pods=%u nodes=%u virtual_s=%.6f events=%" PRIu64
         " running=%zu bound=%u unschedulable=%u records=%" PRIu64 "\n",
         p.pods, p.nodes, to_seconds(c.kernel().now()), r.events, running,
         c.scheduler().bound_count(), c.scheduler().unschedulable_count(),
         records);
  blob += "== fault trace ==\n" + c.faults().trace_string();
  blob += "== node lifecycle trace ==\n" + c.lifecycle().trace_string();
  blob += "== pod digest ==\n";
  for (const k8s::Pod* pod : c.api().pods()) {
    append(blob, "pod=%s node=%s phase=%s running_at=%.6f\n",
           pod->spec.name.c_str(), pod->status.node.c_str(),
           k8s::pod_phase_name(pod->status.phase),
           to_seconds(pod->status.running_at));
  }
  add_sim_digest(r, blob);
  r.digest = fnv1a(blob);

  if (log != nullptr) {
    LayerTotals totals;
    totals.add(c);
    totals.emit(*log, running, r);
    no_requests(r);
    node_layers(c, r);
    span_layers(*log, "k8s.Cluster::deploy", "bench.timed_phase", running, 0,
                0, r);
    r.layer["sim.kernel.events_per_pod"] =
        static_cast<double>(r.events) / static_cast<double>(p.pods);
    r.layer["sim.kernel.heap_peak"] = static_cast<double>(peaks.heap);
    r.layer["sim.kernel.tombstone_peak"] =
        static_cast<double>(peaks.tombstones);
    ProbeInputs probe;
    probe.seed = p.seed;
    probe.pods_per_node = p.pods / p.nodes;
    probe.nodes = p.nodes;
    probe.pods = p.pods;
    probe.module = wasm::build_minimal_microservice();
    probe.engines = {{false, engines::EngineKind::kWamr}};
    probe.python_script = pylite::minimal_microservice_script();
    capture_container(c, 0, *c.api().pods_on_node(node0).begin(), probe,
                      false);
    run_probes(probe, *log, r);
  }
  return r;
}

// --- serve ---------------------------------------------------------------

serve::DeploymentSpec deployment(const std::string& name,
                                 const std::string& image,
                                 const std::string& runtime_class,
                                 uint32_t replicas, uint64_t memory_limit) {
  serve::DeploymentSpec spec;
  spec.name = name;
  spec.replicas = replicas;
  spec.pod_template.image = image;
  spec.pod_template.runtime_class = runtime_class;
  spec.pod_template.restart_policy = k8s::RestartPolicy::kOnFailure;
  spec.pod_template.memory_limit = memory_limit;
  return spec;
}

/// A Running replica of `deployment`, chosen by `pick`; nullptr if none.
const k8s::Pod* pick_replica(k8s::Cluster& c, const std::string& deployment,
                             uint64_t pick) {
  std::vector<const k8s::Pod*> ready;
  for (const std::string& name : c.deployments().pods_of(deployment)) {
    const k8s::Pod* pod = c.api().pod(name);
    if (pod != nullptr && pod->status.phase == k8s::PodPhase::kRunning &&
        !pod->status.container_id.empty()) {
      ready.push_back(pod);
    }
  }
  return ready.empty() ? nullptr : ready[pick % ready.size()];
}

Pass run_serve(const Params& p, SpanLog* log) {
  Pass r;
  const uint32_t replicas = 2 * p.replicas_per_class;
  std::unique_ptr<k8s::Cluster> cluster;
  std::unique_ptr<serve::TrafficDriver> wasm_driver;
  std::unique_ptr<serve::TrafficDriver> py_driver;
  SamplerScope sampler(log);
  KernelPeaks peaks;
  const int64_t t0 = host_ns();
  {
    Span setup(log, "bench.setup");
    {
      Span s(log, "k8s.Cluster::Cluster");
      k8s::ClusterOptions opts;
      opts.restart_policy = k8s::RestartPolicy::kOnFailure;
      opts.node.seed = p.node_seed;
      cluster = std::make_unique<k8s::Cluster>(opts);
    }
    k8s::Cluster& c = *cluster;
    sampler.attach(c);
    c.obs().tracer.set_span_capture(log != nullptr);
    k8s::Service wsvc;
    wsvc.name = "wasm-svc";
    wsvc.selector = {{"app", "wsrv"}};
    wsvc.policy = k8s::LbPolicy::kLeastOutstanding;
    k8s::Service psvc;
    psvc.name = "py-svc";
    psvc.selector = {{"app", "psrv"}};
    psvc.policy = k8s::LbPolicy::kRoundRobin;
    bool ok = true;
    {
      Span s(log, "k8s.ApiServer::create_service");
      ok = c.api().create_service(wsvc).is_ok() &&
           c.api().create_service(psvc).is_ok();
    }
    {
      Span s(log, "serve.DeploymentController::create");
      ok = ok && c.deployments()
                     .create(deployment("wsrv", "request-service:wasm",
                                        "crun-wamr", p.replicas_per_class,
                                        64ull << 20))
                     .is_ok();
    }
    {
      Span s(log, "serve.DeploymentController::create");
      ok = ok && c.deployments()
                     .create(deployment("psrv", "request-service:python",
                                        "runc", p.replicas_per_class, 0))
                     .is_ok();
    }
    r.check(ok, "services and deployments created");
    {
      Span s(log, "bench.start_replicas");
      drain(c, log, peaks);
    }
    r.check(c.deployments().ready_replicas("wsrv") == p.replicas_per_class &&
                c.deployments().ready_replicas("psrv") ==
                    p.replicas_per_class,
            "every replica Ready before traffic");
    serve::TrafficOptions wopts;
    wopts.service = "wasm-svc";
    wopts.total_requests = p.requests_per_class;
    wopts.rate_rps = p.rate_rps;
    wopts.seed = p.traffic_seed_wasm;
    serve::TrafficOptions popts = wopts;
    popts.service = "py-svc";
    popts.seed = p.traffic_seed_py;
    wasm_driver = std::make_unique<serve::TrafficDriver>(
        c.kernel(), c.api(), c.cri(), c.endpoints(), wopts);
    py_driver = std::make_unique<serve::TrafficDriver>(
        c.kernel(), c.api(), c.cri(), c.endpoints(), popts);
  }
  k8s::Cluster& c = *cluster;
  const double startup_s = to_seconds(c.startup_makespan());
  const uint64_t setup_events = c.kernel().executed();
  const uint32_t started_before = c.kubelet().pods_started();

  const int64_t t1 = host_ns();
  {
    Span timed(log, "bench.timed_phase");
    {
      Span s(log, "serve.TrafficDriver::start");
      wasm_driver->start();
    }
    {
      Span s(log, "serve.TrafficDriver::start");
      py_driver->start();
    }
    const SimTime base = c.kernel().now();
    for (std::size_t i = 0; i < p.oom_at_s.size(); ++i) {
      c.kernel().schedule_at(
          base + sim_s(p.oom_at_s[i]), [&c, pick = p.churn_pick[i]] {
            const k8s::Pod* pod = pick_replica(c, "wsrv", pick);
            if (pod == nullptr) return;
            // A spike past the 64 MiB limit: cgroup OOM kill, then an
            // in-place restart after CrashLoopBackOff.
            (void)c.cri().grow_container_memory(pod->status.container_id,
                                                Bytes(128ull << 20));
          });
    }
    for (std::size_t i = 0; i < p.delete_at_s.size(); ++i) {
      c.kernel().schedule_at(
          base + sim_s(p.delete_at_s[i]),
          [&c, pick = p.churn_pick[p.oom_at_s.size() + i]] {
            const k8s::Pod* pod = pick_replica(c, "psrv", pick);
            if (pod == nullptr) return;
            // A copy: delete_pod still reads the name after erasing the pod.
            const std::string name = pod->spec.name;
            (void)c.api().delete_pod(name);
          });
    }
    drain(c, log, peaks);
  }
  const int64_t t2 = host_ns();
  r.setup_s = static_cast<double>(t1 - t0) / 1e9;
  r.timed_s = static_cast<double>(t2 - t1) / 1e9;
  r.pods_running = c.kubelet().pods_started() - started_before;
  r.events = c.kernel().executed() - setup_events;

  std::vector<double> latencies;
  uint64_t attempts = 0;
  for (const serve::TrafficDriver* d : {wasm_driver.get(), py_driver.get()}) {
    r.check(d->served() + d->failed() == p.requests_per_class,
            "served + failed = requests");
    r.check(d->cold_hits() + d->warm_hits() == d->served(),
            "cold + warm = served");
    r.attempted += p.requests_per_class;
    r.failed += d->failed();
    r.requests += d->served();
    for (const serve::RequestOutcome& o : d->outcomes()) {
      attempts += o.attempts;
      latencies.push_back(o.ok ? to_millis(o.latency)
                               : std::numeric_limits<double>::infinity());
    }
  }
  const uint32_t ready = c.deployments().ready_replicas("wsrv") +
                         c.deployments().ready_replicas("psrv");
  r.check(ready == replicas, "ready replicas back at spec");
  r.check(c.scheduler().bound_count() == ready, "zero leaked scheduler slots");
  r.check(c.kubelet().active_pods() == ready, "zero leaked kubelet slots");
  r.check(c.kubelet().in_place_restarts() >= 1,
          "churn restarted a replica in place");
  r.check(c.deployments().pods_created("psrv") > p.replicas_per_class,
          "churn replaced a deleted replica");

  r.sim["sim_startup_s"] = startup_s;
  r.sim["sim_req_p50_ms"] = quantile_ms(latencies, 0.50);
  r.sim["sim_req_p99_ms"] = quantile_ms(latencies, 0.99);
  read_memory(c, log, c.running_count(), r);

  std::string blob;
  blob += "== wasm requests ==\n" + wasm_driver->trace_string();
  blob += "== python requests ==\n" + py_driver->trace_string();
  blob += "== endpoints ==\n" + c.endpoints().trace_string();
  blob += "== deployments ==\n" + c.deployments().trace_string();
  blob += "== backoff ==\n" + c.kubelet().backoff_trace_string();
  blob += "== fault trace ==\n" + c.faults().trace_string();
  add_sim_digest(r, blob);
  r.digest = fnv1a(blob);

  if (log != nullptr) {
    const uint64_t requests = 2ull * p.requests_per_class;
    LayerTotals totals;
    totals.add(c);
    totals.emit(*log, c.deployments().pods_created("wsrv") +
                          c.deployments().pods_created("psrv"),
                r);
    node_layers(c, r);
    span_layers(*log, "serve.DeploymentController::create",
                "bench.start_replicas", replicas, requests,
                static_cast<double>(r.events), r);
    r.layer["sim.kernel.events_per_pod"] =
        static_cast<double>(setup_events) / replicas;
    r.layer["sim.kernel.heap_peak"] = static_cast<double>(peaks.heap);
    r.layer["sim.kernel.tombstone_peak"] =
        static_cast<double>(peaks.tombstones);
    r.layer["serve.attempts_per_req"] =
        static_cast<double>(attempts) / static_cast<double>(requests);
    r.layer["serve.cold_frac"] =
        static_cast<double>(wasm_driver->cold_hits() +
                            py_driver->cold_hits()) /
        static_cast<double>(r.requests);
    r.layer["serve.start_us"] =
        log->seconds("serve.TrafficDriver::start") * 1e6;
    double queue_ms = 0;
    double exec_ms = 0;
    uint64_t queue_n = 0;
    uint64_t exec_n = 0;
    for (const obs::Span& s : c.obs().tracer.spans()) {
      if (!s.closed) continue;
      if (s.name == "serve.queue") {
        queue_ms += to_millis(s.duration());
        ++queue_n;
      } else if (s.name == "serve.exec") {
        exec_ms += to_millis(s.duration());
        ++exec_n;
      }
    }
    r.layer["serve.queue_ms"] = queue_n == 0 ? 0 : queue_ms / queue_n;
    r.layer["serve.exec_ms"] = exec_n == 0 ? 0 : exec_ms / exec_n;

    ProbeInputs probe;
    probe.seed = p.seed;
    probe.pods_per_node = replicas;
    probe.nodes = 1;
    probe.pods = replicas;
    probe.module = wasm::build_request_microservice();
    probe.engines = {{false, engines::EngineKind::kWamr}};
    probe.python_script = pylite::request_handler_script();
    probe.probe_traffic_start = false;
    const k8s::Pod* wpod = pick_replica(c, "wsrv", 0);
    const k8s::Pod* ppod = pick_replica(c, "psrv", 0);
    if (wpod != nullptr) capture_container(c, 0, wpod->spec.name, probe, false);
    if (ppod != nullptr) capture_container(c, 0, ppod->spec.name, probe, true);
    for (const serve::RequestOutcome& o : wasm_driver->outcomes()) {
      if (o.ok) probe.wasm_result = o.result;
    }
    for (const serve::RequestOutcome& o : py_driver->outcomes()) {
      if (o.ok) probe.python_result = o.result;
    }
    run_probes(probe, *log, r);
  }
  return r;
}

}  // namespace

void Pass::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "paper") return Workload::kPaper;
  if (name == "dense") return Workload::kDense;
  if (name == "fleet") return Workload::kFleet;
  if (name == "serve") return Workload::kServe;
  return std::nullopt;
}

Params make_params(Workload w, uint64_t seed) {
  Params p;
  p.workload = w;
  p.seed = seed;
  // Seed 0 keeps the benches' constants; other seeds perturb them all.
  const uint64_t mix = seed * kSeedMix;
  p.node_seed = 42 ^ mix;
  p.traffic_seed_wasm = 0x7001 ^ mix;
  p.traffic_seed_py = 0x7002 ^ mix;
  switch (w) {
    case Workload::kPaper:
      break;
    case Workload::kDense:
      p.nodes = kDenseNodes;
      p.pods = kDensePodsPerNode * kDenseNodes;
      break;
    case Workload::kFleet:
      p.pods = kDensePodsPerNode * kDenseNodes;
      p.nodes = p.pods / kFleetPodsPerNode;
      break;
    case Workload::kServe: {
      p.replicas_per_class = kServeReplicasPerClass;
      p.requests_per_class = kServeRequestsPerClass;
      p.rate_rps = kServeRateRps;
      // Churn spread over the whole traffic phase.
      const double traffic_s = kServeRequestsPerClass / kServeRateRps;
      Rng rng = Rng(seed).fork("perfbench:churn");
      for (int i = 0; i < kChurnPerKind; ++i) {
        p.oom_at_s.push_back(rng.next_double() * traffic_s);
        p.delete_at_s.push_back(rng.next_double() * traffic_s);
      }
      std::sort(p.oom_at_s.begin(), p.oom_at_s.end());
      std::sort(p.delete_at_s.begin(), p.delete_at_s.end());
      for (int i = 0; i < 2 * kChurnPerKind; ++i) {
        p.churn_pick.push_back(rng.next_u64());
      }
      break;
    }
  }
  return p;
}

Pass run_pass(const Params& p, SpanLog* log) {
  switch (p.workload) {
    case Workload::kPaper: return run_paper_cells(p, log);
    case Workload::kDense:
    case Workload::kFleet: return run_startup(p, log);
    case Workload::kServe: return run_serve(p, log);
  }
  return {};
}

Pass run_paper_matrix() {
  Pass r;
  const int64_t t0 = host_ns();
  const std::vector<bench::Sample> samples =
      bench::run_matrix(all_configs(), paper_densities());
  const int64_t t1 = host_ns();
  r.timed_s = static_cast<double>(t1 - t0) / 1e9;
  for (const bench::Sample& s : samples) r.pods_running += s.density;
  r.attempted = r.pods_running;
  r.digest = fnv1a(digest_samples(samples));
  return r;
}

}  // namespace perfbench
