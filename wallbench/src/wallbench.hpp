#pragma once
// Shared pieces of the wall-clock benchmark: the workload table, the
// distributed system each workload builds, the benchmark's own span log,
// and the metric sink the result line is printed from.
//
// The spans here are recorded by the benchmark around calls into the
// library's public functions (the DistOp/DistPrec callbacks it hands the
// solver, the collectives, halo exchange and intrinsics it probes); the
// library's own hpfcg::trace layer stays at its default (off).

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hpfcg/hpf/dist_vector.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/solvers/dist_solvers.hpp"
#include "hpfcg/solvers/multigrid.hpp"
#include "hpfcg/sparse/csr.hpp"
#include "hpfcg/sparse/dist_csr.hpp"

namespace wallbench {

namespace hpf = hpfcg::hpf;
namespace msg = hpfcg::msg;
namespace solvers = hpfcg::solvers;
namespace sparse = hpfcg::sparse;

// ---- workloads ------------------------------------------------------------

enum class Matrix { kLaplacian2d, kLaplacian3d, kStencil27 };
enum class Solver { kCg, kCgFused, kPcgFusedMg };

/// One row of the workload table (README.md says why each exists).
struct Workload {
  std::string_view name;
  Matrix matrix;
  std::array<std::size_t, 3> dims;  ///< grid extents (nz = 1 for 2-D)
  Solver solver;
  int np;
};

/// Every workload solves to this relative tolerance from x0 = 0.
inline constexpr double kRelTolerance = 1e-8;
/// A solve passes the residual check when the true residual
/// ||b - A x|| / ||b||, recomputed serially, is at most this multiple of
/// kRelTolerance.  The recursive residual the solver stops on is below
/// kRelTolerance; the slack covers its rounding drift from the true one.
inline constexpr double kResidualSlack = 2.0;

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// The workload's inputs: a deterministic matrix and a seeded RHS.
struct Inputs {
  sparse::Csr<double> a;
  std::vector<double> b;
};
Inputs make_inputs(const Workload& w, std::uint64_t seed);

/// Stopping control shared by every workload solve.  The residual history
/// is tracked so each solve has a bit-exact residual_signature().
solvers::SolveOptions solve_options();

/// True residual ||b - A x|| / ||b||, serially with Csr::matvec.
double true_relative_residual(const sparse::Csr<double>& a,
                              const std::vector<double>& b,
                              const std::vector<double>& x);
bool residual_ok(double true_rel);

// ---- spans ----------------------------------------------------------------

enum class Kind : std::uint8_t {
  kSetupDistribute,
  kSetupHaloPlan,
  kSetupVectors,
  kSetupMg,
  kSolve,
  kMatvec,
  kPrecond,
  kAllreduce,
  kAllreduceBatch,
  kPingpong,
  kHaloExchange,
  kDot,
  kDotProducts,
  kAxpy,
};
const char* kind_name(Kind k);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  Kind kind;
  std::int32_t parent;  ///< index of the enclosing span, -1 at top level
  std::int64_t t0_ns;
  std::int64_t t1_ns;
  [[nodiscard]] double us() const { return (t1_ns - t0_ns) * 1e-3; }
};

/// One rank's spans, in memory until the run ends.  Written only by its
/// own rank thread; read by the main thread after Runtime::run joins.
class SpanLog {
 public:
  /// RAII span; a null log records nothing (the untraced path).
  class Scope {
   public:
    Scope(SpanLog* log, Kind kind);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    SpanLog* log_;
    std::int32_t index_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations (us) of every span of `kind` at index >= `from`.
  [[nodiscard]] std::vector<double> durations(Kind kind,
                                              std::size_t from = 0) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// Median and arbitrary-quantile helpers over a copy of the samples.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double sum(const std::vector<double>& v);

// ---- the distributed system ----------------------------------------------

/// One rank's share of a workload's distributed system: the row-aligned
/// matrix with its halo plan, the RHS and solution vectors, and on the MG
/// workload the multigrid hierarchy.  Construction is collective.
class System {
 public:
  /// `log` (may be null) receives the setup-phase spans; with a log the
  /// phases are separated by barriers so each span is machine-wide.
  System(msg::Process& proc, const Workload& w, const Inputs& in,
         SpanLog* log);
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// One solve from x0 = 0 (collective).  With a log, every matvec and
  /// preconditioner application the solver makes is recorded as a child
  /// of a kSolve span.
  solvers::SolveResult solve(SpanLog* log);

  msg::Process& proc() { return *proc_; }
  sparse::DistCsr<double>& mat() { return mat_; }
  hpf::DistributedVector<double>& b() { return *b_; }
  hpf::DistributedVector<double>& x() { return *x_; }
  [[nodiscard]] const hpf::DistPtr& dist() const { return dist_; }

 private:
  msg::Process* proc_;
  const Workload* w_;
  hpf::DistPtr dist_;
  sparse::DistCsr<double> mat_;
  std::optional<hpf::DistributedVector<double>> b_, x_;
  std::unique_ptr<solvers::MgPreconditioner> mg_;
};

// ---- metrics ----------------------------------------------------------------

/// Named metrics with units, in emission order.
class Metrics {
 public:
  void set(std::string name, double value, std::string unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}`
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Full-precision JSON number; a non-finite value becomes null.
std::string json_number(double v);
std::string json_string(std::string_view s);

// ---- solves and episodes (runs.cpp) ----------------------------------------

/// Per-rank message counters of one solve: the quantities a traced and an
/// untraced solve of the same system must agree on exactly.
struct Counts {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t reductions = 0;
  std::uint64_t halo_bytes = 0;
  std::uint64_t mg_vcycles = 0;
  std::uint64_t mg_level_sweeps = 0;

  static Counts of(const msg::Stats& s);
  Counts operator-(const Counts& o) const;
  bool operator==(const Counts&) const = default;
};

/// What rank 0 saw of one solve.
struct SolveRecord {
  double seconds = 0.0;
  std::uint64_t signature = 0;
  std::size_t iterations = 0;
  bool converged = false;
  double true_rel = 0.0;
  bool traced = false;
};

/// Everything a run's solves left behind: rank 0's records and every
/// rank's per-solve counters (slot r is written only by rank r).
struct SolveLog {
  explicit SolveLog(int np) : counts(static_cast<std::size_t>(np)) {}
  std::vector<SolveRecord> records;
  std::vector<std::vector<Counts>> counts;  // [rank][solve]
};

/// Repeated solves on a built system (collective) until `budget_s` is
/// spent, at least `min_solves` and at most `max_solves` of them.  Each is
/// timed on rank 0 from a barrier to the solver's return; x is then
/// gathered and its true residual recomputed serially, outside the timing.
void solve_loop(System& sys, const Inputs& in, SpanLog* log, double budget_s,
                std::size_t min_solves, std::size_t max_solves,
                SolveLog& out);

/// Build a machine of the workload's NP and the workload's system on it,
/// then run `after(sys, log)` on every rank.  Returns the setup time: from
/// Runtime construction to the barrier behind the last setup step, which
/// is when the first solver call may start.  `logs` (one per rank, may be
/// null) receives the setup-phase spans; `runtime_s` the Runtime
/// construction time alone.
double episode(const Workload& w, const Inputs& in, std::vector<SpanLog>* logs,
               const std::function<void(System&, SpanLog*)>& after,
               double* runtime_s = nullptr);

/// Failed solves: not converged, true residual out of bound, a residual
/// signature other than the log's first, or counters other than the first
/// solve's on any rank.
std::uint64_t count_failures(const SolveLog& log);

// ---- probes and references (probes.cpp) -------------------------------------

/// Time single calls into each layer at the workload's NP on a built
/// system (collective): scalar and 3-value allreduce, a rank 0<->1
/// ping-pong, HaloPlan::exchange over a plan built from the system's
/// columns, and dot_product, dot_products and axpy on its vectors.  Each
/// call is a span in `log`, preceded by a barrier.
void probe_layers(System& sys, SpanLog* log);

/// Same-process single-rank ratios' numerators and denominators (us).
struct SingleRankRefs {
  double dist_matvec_us = 0.0;  ///< NP=1 DistCsr::matvec
  double csr_matvec_us = 0.0;   ///< raw Csr::matvec
  double dist_dot_us = 0.0;     ///< NP=1 hpf::dot_product
  double serial_dot_us = 0.0;   ///< plain serial loop
  double dist_iter_us = 0.0;    ///< NP=1 distributed Krylov, per iteration
  double serial_iter_us = 0.0;  ///< serial solvers::cg / cg_fused, per iter
};
SingleRankRefs single_rank_refs(const Workload& w, const Inputs& in);

/// STREAM-style triad a = b + s*c over arrays of at least 4x the LLC.
struct Triad {
  double gbs = 0.0;
  std::size_t array_bytes = 0;
};
Triad triad_reference(std::size_t llc_bytes);

/// Last-level cache size as the C library reports it.
std::size_t llc_bytes();

// ---- entry points -----------------------------------------------------------

struct RunConfig {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< trace-mode span file ("" = do not write)
};

/// What every run mode reports on its last stdout line.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

/// The run manifest: compiled features, knob values, build, machine.
std::string manifest_json(const RunConfig& cfg);

/// --trace 0: setup and solve timing, every answer checked.
Outcome run_untraced(const RunConfig& cfg);
/// --trace 1: traced solves, layer probes and same-process references.
Outcome run_traced(const RunConfig& cfg);
/// The benchmark's own tests; returns the number of failed checks.
int selftest();

}  // namespace wallbench
