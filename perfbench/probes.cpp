// Layer probes: timed direct calls into one layer's public functions,
// made after the workload finishes, with the workload's own inputs and
// sizes. Each probe checks its own result; a probe whose check fails
// counts as a failed operation.
#include <algorithm>
#include <utility>
#include <vector>

#include "engines/engine.hpp"
#include "engines/serve_slot.hpp"
#include "k8s/api_server.hpp"
#include "k8s/cluster.hpp"
#include "oci/spec.hpp"
#include "pylite/ast.hpp"
#include "pylite/interp.hpp"
#include "pylite/scripts.hpp"
#include "serve/traffic.hpp"
#include "sim/cpu.hpp"
#include "sim/node.hpp"
#include "support/rng.hpp"
#include "wasm/baseline/compiler.hpp"
#include "wasm/decoder.hpp"
#include "wasm/validator.hpp"
#include "wasm/workloads.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace wasmctr;

namespace {

// Each probe repeats at least kMinReps times and for at least kMinNs, and
// reports the median, so one slow repetition does not move it.
constexpr std::size_t kMinReps = 7;
constexpr std::size_t kMaxReps = 2000;
constexpr int64_t kMinNs = 20'000'000;
constexpr uint32_t kMaxBindPods = 2000;
constexpr int kCallsPerRep = 20;

/// Median host µs per operation. `rep` runs one repetition and returns
/// (timed nanoseconds, operations timed).
template <typename Rep>
double median_us(Rep&& rep) {
  std::vector<double> us;
  const int64_t start = host_ns();
  while (us.size() < kMinReps ||
         (host_ns() - start < kMinNs && us.size() < kMaxReps)) {
    const auto [ns, ops] = rep();
    us.push_back(static_cast<double>(ns) / 1e3 / static_cast<double>(ops));
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

/// K bursts on one node's processor-sharing model, drained.
double cpu_probe(uint32_t k, uint64_t seed, bool& ok) {
  std::vector<SimDuration> work;
  Rng rng = Rng(seed).fork("perfbench:cpu");
  for (uint32_t i = 0; i < k; ++i) {
    work.push_back(sim_s(0.005 + 0.045 * rng.next_double()));
  }
  return median_us([&] {
    sim::Kernel kernel;
    sim::CpuScheduler cpu(kernel, sim::NodeConfig{}.cores);
    uint32_t done = 0;
    const int64_t t0 = host_ns();
    for (const SimDuration w : work) cpu.submit(w, [&done] { ++done; });
    kernel.run();
    const int64_t t1 = host_ns();
    ok = ok && done == k && cpu.runnable() == 0;
    return std::pair{t1 - t0, static_cast<double>(k + kernel.executed())};
  });
}

/// Binds against W kubelet-style watchers that filter on node name.
double bind_probe(uint32_t watchers, uint32_t pods, bool& ok) {
  const uint32_t binds = std::clamp<uint32_t>(pods, 1, kMaxBindPods);
  std::vector<std::string> nodes;
  for (uint32_t i = 0; i < watchers; ++i) {
    nodes.push_back("node-" + std::to_string(i));
  }
  return median_us([&] {
    k8s::ApiServer api;
    uint64_t hits = 0;
    for (const std::string& node : nodes) {
      api.watch_bound([&hits, &node](const k8s::Pod& pod) {
        if (pod.status.node != node) return;
        ++hits;
      });
    }
    std::vector<std::string> names;
    for (uint32_t j = 0; j < binds; ++j) {
      k8s::PodSpec spec;
      spec.name = "probe-" + std::to_string(j);
      names.push_back(spec.name);
      ok = ok && api.create_pod(std::move(spec)).is_ok();
    }
    const int64_t t0 = host_ns();
    for (uint32_t j = 0; j < binds; ++j) {
      const uint64_t before = hits;
      ok = ok && api.bind_pod(names[j], nodes[j % watchers]).is_ok() &&
           hits == before + 1;
    }
    const int64_t t1 = host_ns();
    return std::pair{t1 - t0, static_cast<double>(binds)};
  });
}

/// The WASI view the container runtime gives a module (mirrors
/// OciRuntimeBase::wasi_options_for).
wasi::WasiOptions wasi_options(const oci::RuntimeSpec& spec,
                               const std::string& bundle_path) {
  wasi::WasiOptions opts;
  opts.args = spec.args;
  opts.env = spec.env;
  for (const oci::Mount& m : spec.mounts) {
    opts.preopens.emplace_back(m.destination, m.source);
  }
  const std::string rootfs = bundle_path + "/" + spec.root_path;
  opts.preopens.emplace_back("/data", rootfs + "/data");
  opts.preopens.emplace_back("/tmp", rootfs + "/tmp");
  return opts;
}

template <typename Op>
std::pair<int64_t, double> timed_calls(Op&& op) {
  const int64_t t0 = host_ns();
  for (int i = 0; i < kCallsPerRep; ++i) op();
  const int64_t t1 = host_ns();
  return {t1 - t0, static_cast<double>(kCallsPerRep)};
}

}  // namespace

void run_probes(const ProbeInputs& in, SpanLog& log, Pass& out) {
  const int32_t request_arg = serve::TrafficOptions{}.request_arg;

  {
    Span s(&log, "sim.CpuScheduler::submit",
           "probe K=" + std::to_string(in.pods_per_node));
    bool ok = true;
    out.layer["sim.cpu.ns_per_event"] =
        cpu_probe(in.pods_per_node, in.seed, ok) * 1e3;
    out.check(ok, "cpu probe completes every burst, runnable() == 0");
  }
  {
    Span s(&log, "k8s.ApiServer::bind_pod",
           "probe W=" + std::to_string(in.nodes));
    bool ok = true;
    out.layer["k8s.bind_us"] = bind_probe(in.nodes, in.pods, ok);
    out.check(ok, "bind probe: each bind reaches exactly one watcher");
  }

  // --- wasm ---
  auto module = wasm::decode_module(in.module);
  out.check(module.is_ok(), "wasm probe decodes the workload's module");
  if (module) {
    bool ok = true;
    {
      Span s(&log, "wasm.decode_module", "probe");
      out.layer["wasm.decode_us"] = median_us([&] {
        const int64_t t0 = host_ns();
        ok = ok && wasm::decode_module(in.module).is_ok();
        return std::pair{host_ns() - t0, 1.0};
      });
    }
    {
      Span s(&log, "wasm.validate_module", "probe");
      out.layer["wasm.validate_us"] = median_us([&] {
        const int64_t t0 = host_ns();
        ok = ok && wasm::validate_module(*module).is_ok();
        return std::pair{host_ns() - t0, 1.0};
      });
    }
    {
      Span s(&log, "wasm.baseline::compile_module", "probe");
      out.layer["wasm.compile_us"] = median_us([&] {
        const int64_t t0 = host_ns();
        ok = ok && wasm::baseline::compile_module(*module, in.module).is_ok();
        return std::pair{host_ns() - t0, 1.0};
      });
    }
    out.check(ok, "wasm probes decode, validate and compile");
  }

  // --- oci + engines (start) ---
  auto spec = oci::RuntimeSpec::parse(in.config_json);
  out.check(spec.is_ok(), "oci probe parses the workload's config.json");
  if (spec) {
    bool ok = true;
    {
      Span s(&log, "oci.RuntimeSpec::parse", "probe round trip");
      out.layer["oci.spec_us"] = median_us([&] {
        return timed_calls([&] {
          auto parsed = oci::RuntimeSpec::parse(in.config_json);
          ok = ok && parsed && parsed->to_config_json() == in.config_json;
        });
      });
    }
    out.check(ok, "oci probe: config.json round-trips byte for byte");

    const wasi::WasiOptions opts = wasi_options(*spec, in.bundle_path);
    double start_us = 0;
    ok = true;
    for (const auto& [shim, kind] : in.engines) {
      const engines::Engine engine = shim ? engines::make_shim_engine(kind)
                                          : engines::make_crun_engine(kind);
      Span s(&log, "engines.Engine::run_module",
             std::string("probe ") + (shim ? "shim-" : "crun-") +
                 engines::engine_name(kind));
      wasi::VirtualFs fs;
      start_us += median_us([&] {
        const int64_t t0 = host_ns();
        auto report = engine.run_module(in.module, opts, fs);
        const int64_t t1 = host_ns();
        ok = ok && report && report->exit_code == 0 &&
             report->stdout_data == in.expected_stdout;
        return std::pair{t1 - t0, 1.0};
      });
    }
    out.layer["engines.start_us"] =
        in.engines.empty() ? 0 : start_us / in.engines.size();
    out.check(ok && !in.engines.empty(),
              "engine probe: run_module exits 0 with the pods' stdout");

    // A warm request on a standalone node.
    Span s(&log, "engines.ServeSlot::invoke", "probe warm");
    sim::Node node;
    const engines::Engine engine =
        engines::make_crun_engine(engines::EngineKind::kWamr);
    engines::ServeSlot slot(node, engine, wasm::build_request_microservice(),
                            opts);
    std::optional<int32_t> expected = in.wasm_result;
    ok = true;
    slot.invoke(request_arg, [&](Result<engines::InvokeReport> r) {
      ok = ok && r && r->cold;
      if (r && !expected) expected = r->result;
    });
    node.kernel().run();
    out.layer["engines.invoke_us"] = median_us([&] {
      return timed_calls([&] {
        slot.invoke(request_arg, [&](Result<engines::InvokeReport> r) {
          ok = ok && r && !r->cold && r->result == expected;
        });
        node.kernel().run();
      });
    });
    out.check(ok, "invoke probe: warm invokes return the traced result");
  }

  // --- pylite ---
  {
    Span s(&log, "pylite.Interp::run", "probe boot");
    bool ok = true;
    out.layer["pylite.boot_us"] = median_us([&] {
      const int64_t t0 = host_ns();
      auto program = pylite::parse_source(in.python_script);
      pylite::Interp interp;
      ok = ok && program && interp.run(*program).is_ok();
      const int64_t t1 = host_ns();
      if (in.expected_python_stdout) {
        ok = ok && interp.stdout_data() == *in.expected_python_stdout;
      }
      return std::pair{t1 - t0, 1.0};
    });
    out.check(ok, "pylite probe boots the container script");
  }
  {
    Span s(&log, "pylite.Interp::call", "probe warm");
    const std::string script = pylite::request_handler_script();
    auto program = pylite::parse_source(script);
    pylite::Interp interp;
    bool ok = program && interp.run(*program).is_ok();
    std::optional<int32_t> expected = in.python_result;
    const auto call = [&] {
      interp.set_step_limit(interp.steps_executed() +
                            engines::kRequestStepBudget);
      auto v = interp.call("handle", {pylite::PyValue::integer(request_arg)});
      const int64_t* n = v ? std::get_if<int64_t>(&v->v) : nullptr;
      ok = ok && n != nullptr;
      if (n == nullptr) return;
      // ServeSlot reports the handler's value truncated to i32, as here.
      const auto result = static_cast<int32_t>(*n);
      if (!expected) expected = result;
      ok = ok && result == *expected;
    };
    if (ok) {
      out.layer["pylite.invoke_us"] =
          median_us([&] { return timed_calls(call); });
    }
    out.check(ok, "pylite probe: warm calls return the traced result");
  }

  // --- serve: scheduling the arrivals, when the workload did not ---
  if (in.probe_traffic_start) {
    Span s(&log, "serve.TrafficDriver::start", "probe");
    bool ok = true;
    out.layer["serve.start_us"] = median_us([&] {
      k8s::Cluster cluster;
      k8s::Service svc;
      svc.name = "probe-svc";
      svc.selector = {{"app", "probe"}};
      ok = ok && cluster.api().create_service(svc).is_ok();
      serve::TrafficOptions opts;
      opts.service = svc.name;
      opts.total_requests = in.pods;
      opts.seed = in.seed;
      // The TrafficDriver's arrivals never run: the kernel drops them with
      // the cluster.
      serve::TrafficDriver driver(cluster.kernel(), cluster.api(),
                                  cluster.cri(), cluster.endpoints(), opts);
      const std::size_t before = cluster.kernel().pending();
      const int64_t t0 = host_ns();
      driver.start();
      const int64_t t1 = host_ns();
      ok = ok && cluster.kernel().pending() == before + in.pods;
      return std::pair{t1 - t0, 1.0};
    });
    out.check(ok, "traffic probe schedules one arrival per request");
  }
}

}  // namespace perfbench
