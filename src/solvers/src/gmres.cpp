#include "hpfcg/solvers/gmres.hpp"

#include "hpfcg/solvers/krylov.hpp"
#include "serial_space.hpp"

namespace hpfcg::solvers {

SolveResult gmres(const MatVec& a, std::span<const double> b,
                  std::span<double> x, const GmresOptions& opts) {
  return krylov::gmres(detail::SerialSpace("gmres", b, x), a, b, x, opts);
}

SolveResult gmres(const sparse::Csr<double>& a, std::span<const double> b,
                  std::span<double> x, const GmresOptions& opts) {
  return gmres(
      [&a](std::span<const double> p, std::span<double> q) { a.matvec(p, q); },
      b, x, opts);
}

}  // namespace hpfcg::solvers
