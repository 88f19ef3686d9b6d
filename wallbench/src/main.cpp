// hpf-cg wall-clock benchmark: time-to-solution on the CG workloads of
// wallbench/README.md, with per-layer timing measured from outside the
// library.
//
//   wallbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//   wallbench --selftest
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}.  The lines before it carry the run manifest and sample
// details.  wallbench/run.py builds this binary and runs it.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "hpfcg/check/check.hpp"
#include "hpfcg/race/race.hpp"
#include "hpfcg/repro/repro.hpp"
#include "hpfcg/sparse/halo.hpp"
#include "hpfcg/trace/trace.hpp"
#include "wallbench.hpp"

namespace wallbench {

namespace {

std::string knob(const char* name) {
  const char* v = std::getenv(name);
  return json_string(v == nullptr ? "unset" : v);
}

const char* solver_name(Solver s) {
  switch (s) {
    case Solver::kCg: return "cg_dist";
    case Solver::kCgFused: return "cg_fused_dist";
    case Solver::kPcgFusedMg: return "pcg_fused_dist+MgPreconditioner";
  }
  return "?";
}

}  // namespace

std::string manifest_json(const RunConfig& cfg) {
  const Workload& w = *cfg.workload;
  const auto b = [](bool v) { return v ? "true" : "false"; };
  std::ostringstream o;
  o << "{\"workload\": " << json_string(w.name)
    << ", \"solver\": " << json_string(solver_name(w.solver))
    << ", \"np\": " << w.np << ", \"grid\": [" << w.dims[0] << ", "
    << w.dims[1] << ", " << w.dims[2] << "]"
    << ", \"seed\": " << cfg.seed
    << ", \"seconds\": " << json_number(cfg.seconds)
    << ", \"trace\": " << (cfg.trace ? 1 : 0)
    << ", \"rel_tolerance\": " << json_number(kRelTolerance)
    << ", \"residual_bound\": "
    << json_number(kResidualSlack * kRelTolerance)
    << ", \"compiled\": {\"HPFCG_CHECK\": " << b(hpfcg::check::kCompiled)
    << ", \"HPFCG_TRACE\": " << b(hpfcg::trace::kCompiled)
    << ", \"HPFCG_RACE\": " << b(hpfcg::race::kCompiled)
    << ", \"HPFCG_REPRO\": " << b(hpfcg::repro::kCompiled) << "}"
    << ", \"knobs\": {\"HPFCG_HALO\": " << knob("HPFCG_HALO")
    << ", \"HPFCG_REPRO\": " << knob("HPFCG_REPRO")
    << ", \"HPFCG_CHECK\": " << knob("HPFCG_CHECK")
    << ", \"HPFCG_TRACE\": " << knob("HPFCG_TRACE")
    << ", \"HPFCG_RACE\": " << knob("HPFCG_RACE") << "}"
    << ", \"active\": {\"halo\": " << b(sparse::halo::enabled())
    << ", \"repro\": " << b(hpfcg::repro::enabled())
    << ", \"check\": " << b(hpfcg::check::enabled())
    << ", \"trace\": " << b(hpfcg::trace::enabled())
    << ", \"race\": " << b(hpfcg::race::enabled()) << "}"
    << ", \"build_type\": " << json_string(WALLBENCH_BUILD_TYPE)
    << ", \"compiler\": " << json_string(WALLBENCH_COMPILER)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"llc_bytes\": " << llc_bytes() << "}";
  return o.str();
}

}  // namespace wallbench

namespace {

int usage(const char* why) {
  std::cerr << "wallbench: " << why << "\n"
            << "usage: wallbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n"
               "       wallbench --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wallbench;
  RunConfig cfg;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      const int failed = selftest();
      std::cout << "selftest: " << failed << " failed\n";
      return failed == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        workload = val;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (arg == "--trace") {
        cfg.trace = std::stoi(val) != 0;
      } else if (arg == "--trace-out") {
        cfg.trace_out = val;
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  cfg.workload = find_workload(workload);
  if (cfg.workload == nullptr) return usage("unknown --workload");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    std::cout << "{\"manifest\": " << manifest_json(cfg) << "}\n";
    const Outcome out = cfg.trace ? run_traced(cfg) : run_untraced(cfg);
    std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed
              << ", \"metrics\": " << out.metrics.json() << "}" << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "wallbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
