// Workload table, inputs, the per-rank distributed system, and the small
// span/metric/JSON helpers the run modes share.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "hpfcg/hpf/intrinsics.hpp"
#include "hpfcg/sparse/generators.hpp"
#include "wallbench.hpp"

namespace wallbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table{
      {"lap3d-cg-fused", Matrix::kLaplacian3d, {64, 64, 64}, Solver::kCgFused,
       2},
      {"lap2d-cg-latency", Matrix::kLaplacian2d, {32, 32, 1}, Solver::kCg, 4},
      {"hpcg-mg-pcg", Matrix::kStencil27, {48, 48, 48}, Solver::kPcgFusedMg,
       4},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  const auto [nx, ny, nz] = w.dims;
  Inputs in;
  switch (w.matrix) {
    case Matrix::kLaplacian2d:
      in.a = sparse::laplacian_2d(nx, ny);
      break;
    case Matrix::kLaplacian3d:
      in.a = sparse::laplacian_3d(nx, ny, nz);
      break;
    case Matrix::kStencil27:
      in.a = sparse::stencil27_3d(nx, ny, nz);
      break;
  }
  in.b = sparse::random_rhs(in.a.n_rows(), seed);
  return in;
}

solvers::SolveOptions solve_options() {
  return {.max_iterations = 1000,
          .rel_tolerance = kRelTolerance,
          .track_residuals = true};
}

double true_relative_residual(const sparse::Csr<double>& a,
                              const std::vector<double>& b,
                              const std::vector<double>& x) {
  std::vector<double> ax(b.size());
  a.matvec(x, ax);
  double rr = 0.0;
  double bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rr += (b[i] - ax[i]) * (b[i] - ax[i]);
    bb += b[i] * b[i];
  }
  return std::sqrt(rr) / std::sqrt(bb);
}

bool residual_ok(double true_rel) {
  return std::isfinite(true_rel) && true_rel <= kResidualSlack * kRelTolerance;
}

// ---- spans ----------------------------------------------------------------

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kSetupDistribute: return "setup.distribute";
    case Kind::kSetupHaloPlan: return "setup.halo_plan";
    case Kind::kSetupVectors: return "setup.vectors";
    case Kind::kSetupMg: return "setup.mg";
    case Kind::kSolve: return "solve";
    case Kind::kMatvec: return "solve.matvec";
    case Kind::kPrecond: return "solve.precond";
    case Kind::kAllreduce: return "msg.allreduce";
    case Kind::kAllreduceBatch: return "msg.allreduce_batch";
    case Kind::kPingpong: return "msg.pingpong";
    case Kind::kHaloExchange: return "sparse.halo_exchange";
    case Kind::kDot: return "hpf.dot_product";
    case Kind::kDotProducts: return "hpf.dot_products";
    case Kind::kAxpy: return "hpf.axpy";
  }
  return "?";
}

SpanLog::Scope::Scope(SpanLog* log, Kind kind) : log_(log) {
  if (log_ == nullptr) return;
  index_ = static_cast<std::int32_t>(log_->spans_.size());
  log_->spans_.push_back(Span{kind, log_->open_, now_ns(), 0});
  log_->open_ = index_;
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  Span& s = log_->spans_[static_cast<std::size_t>(index_)];
  s.t1_ns = now_ns();
  log_->open_ = s.parent;
}

std::vector<double> SpanLog::durations(Kind kind, std::size_t from) const {
  std::vector<double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].kind == kind) out.push_back(spans_[i].us());
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks (numpy's default).
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// ---- the distributed system ----------------------------------------------

namespace {

sparse::DistCsr<double> distribute(msg::Process& proc,
                                   const sparse::Csr<double>& a,
                                   const hpf::DistPtr& dist, SpanLog* log) {
  SpanLog::Scope span(log, Kind::kSetupDistribute);
  auto mat = sparse::DistCsr<double>::row_aligned(proc, a, dist);
  if (log != nullptr) proc.barrier();
  return mat;
}

}  // namespace

System::System(msg::Process& proc, const Workload& w, const Inputs& in,
               SpanLog* log)
    : proc_(&proc),
      w_(&w),
      dist_(hpf::make_block(in.a.n_rows(), proc.nprocs())),
      mat_(distribute(proc, in.a, dist_, log)) {
  {
    SpanLog::Scope span(log, Kind::kSetupHaloPlan);
    mat_.prepare_halo();
    if (log != nullptr) proc.barrier();
  }
  {
    SpanLog::Scope span(log, Kind::kSetupVectors);
    b_.emplace(proc, dist_);
    x_.emplace(proc, dist_);
    b_->from_global(in.b);
    if (log != nullptr) proc.barrier();
  }
  if (w.solver == Solver::kPcgFusedMg) {
    SpanLog::Scope span(log, Kind::kSetupMg);
    mg_ = std::make_unique<solvers::MgPreconditioner>(proc, mat_, w.dims);
    if (log != nullptr) proc.barrier();
  }
}

solvers::SolveResult System::solve(SpanLog* log) {
  hpf::fill(*x_, 0.0);
  const solvers::DistOp<double> op =
      [this, log](const hpf::DistributedVector<double>& p,
                  hpf::DistributedVector<double>& q) {
        SpanLog::Scope span(log, Kind::kMatvec);
        mat_.matvec(p, q);
      };
  const auto opts = solve_options();
  SpanLog::Scope span(log, Kind::kSolve);
  switch (w_->solver) {
    case Solver::kCg:
      return solvers::cg_dist<double>(op, *b_, *x_, opts);
    case Solver::kCgFused:
      return solvers::cg_fused_dist<double>(op, *b_, *x_, opts);
    case Solver::kPcgFusedMg: {
      const solvers::DistPrec<double> prec =
          [this, log](const hpf::DistributedVector<double>& r,
                      hpf::DistributedVector<double>& z) {
            SpanLog::Scope span(log, Kind::kPrecond);
            mg_->apply(r, z);
          };
      return solvers::pcg_fused_dist<double>(op, prec, *b_, *x_, opts);
    }
  }
  return {};
}

// ---- metrics and JSON -------------------------------------------------------

void Metrics::set(std::string name, double value, std::string unit) {
  entries_.push_back({std::move(name), value, std::move(unit)});
}

std::string Metrics::json() const {
  std::string out = "{";
  for (const Entry& e : entries_) {
    if (out.size() > 1) out += ", ";
    out += json_string(e.name) + ": {\"value\": " + json_number(e.value) +
           ", \"unit\": " + json_string(e.unit) + "}";
  }
  return out + "}";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // run.py rejects a non-number
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace wallbench
