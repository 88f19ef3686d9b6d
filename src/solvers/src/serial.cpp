#include "hpfcg/solvers/serial.hpp"

#include "hpfcg/solvers/krylov.hpp"
#include "serial_space.hpp"

namespace hpfcg::solvers {

namespace {

using detail::SerialSpace;

MatVec wrap(const sparse::Csr<double>& a) {
  return [&a](std::span<const double> x, std::span<double> y) {
    a.matvec(x, y);
  };
}

MatVec wrap_transpose(const sparse::Csr<double>& a) {
  return [&a](std::span<const double> x, std::span<double> y) {
    a.matvec_transpose(x, y);
  };
}

}  // namespace

SolveResult cg(const MatVec& a, std::span<const double> b,
               std::span<double> x, const SolveOptions& opts) {
  return krylov::cg(SerialSpace("cg", b, x), a, b, x, opts);
}

SolveResult cg(const sparse::Csr<double>& a, std::span<const double> b,
               std::span<double> x, const SolveOptions& opts) {
  return cg(wrap(a), b, x, opts);
}

SolveResult cg_fused(const MatVec& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts) {
  return krylov::cg_fused(SerialSpace("cg_fused", b, x), a, b, x, opts);
}

SolveResult cg_fused(const sparse::Csr<double>& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts) {
  return cg_fused(wrap(a), b, x, opts);
}

SolveResult pcg(const MatVec& a, const PrecApply& m_inv,
                std::span<const double> b, std::span<double> x,
                const SolveOptions& opts) {
  return krylov::pcg(SerialSpace("pcg", b, x), a, m_inv, b, x, opts);
}

SolveResult pcg(const sparse::Csr<double>& a, const PrecApply& m_inv,
                std::span<const double> b, std::span<double> x,
                const SolveOptions& opts) {
  return pcg(wrap(a), m_inv, b, x, opts);
}

SolveResult pcg_fused(const MatVec& a, const PrecApply& m_inv,
                      std::span<const double> b, std::span<double> x,
                      const SolveOptions& opts) {
  return krylov::pcg_fused(SerialSpace("pcg_fused", b, x), a, m_inv, b, x,
                           opts);
}

SolveResult pcg_fused(const sparse::Csr<double>& a, const PrecApply& m_inv,
                      std::span<const double> b, std::span<double> x,
                      const SolveOptions& opts) {
  return pcg_fused(wrap(a), m_inv, b, x, opts);
}

SolveResult bicg(const MatVec& a, const MatVec& a_transpose,
                 std::span<const double> b, std::span<double> x,
                 const SolveOptions& opts) {
  return krylov::bicg(SerialSpace("bicg", b, x), a, a_transpose, b, x, opts);
}

SolveResult bicg(const sparse::Csr<double>& a, std::span<const double> b,
                 std::span<double> x, const SolveOptions& opts) {
  return bicg(wrap(a), wrap_transpose(a), b, x, opts);
}

SolveResult cgs(const MatVec& a, std::span<const double> b,
                std::span<double> x, const SolveOptions& opts) {
  return krylov::cgs(SerialSpace("cgs", b, x), a, b, x, opts);
}

SolveResult cgs(const sparse::Csr<double>& a, std::span<const double> b,
                std::span<double> x, const SolveOptions& opts) {
  return cgs(wrap(a), b, x, opts);
}

SolveResult bicgstab(const MatVec& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts) {
  return krylov::bicgstab(SerialSpace("bicgstab", b, x), a, b, x, opts);
}

SolveResult bicgstab(const sparse::Csr<double>& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts) {
  return bicgstab(wrap(a), b, x, opts);
}

SolveResult bicgstab_fused(const MatVec& a, std::span<const double> b,
                           std::span<double> x, const SolveOptions& opts) {
  return krylov::bicgstab_fused(SerialSpace("bicgstab_fused", b, x), a, b, x,
                                opts);
}

SolveResult bicgstab_fused(const sparse::Csr<double>& a,
                           std::span<const double> b, std::span<double> x,
                           const SolveOptions& opts) {
  return bicgstab_fused(wrap(a), b, x, opts);
}

}  // namespace hpfcg::solvers
