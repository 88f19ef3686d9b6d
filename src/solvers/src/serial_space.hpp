#pragma once
// The serial vector-space policy for the Krylov bodies in krylov.hpp:
// std::vector workspaces and the span kernels of util/span_math.hpp.  It
// has no trace spans, no metrics channel and no rebalance hook.

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "hpfcg/solvers/serial.hpp"
#include "hpfcg/util/error.hpp"
#include "hpfcg/util/span_math.hpp"

namespace hpfcg::solvers::detail {

class SerialSpace {
 public:
  using Scalar = double;
  using Vec = std::vector<double>;
  using In = std::span<const double>;
  using Out = std::span<double>;
  using Op = MatVec;

  /// The space of `method`'s solve; b and x must have the same length.
  SerialSpace(const char* method, In b, In x) {
    HPFCG_REQUIRE(b.size() == x.size(),
                  std::string(method) + ": dimension mismatch");
  }

  static Vec like(In v) { return Vec(v.size()); }
  static double dot(In x, In y) { return util::dot_local(x, y); }
  static std::array<double, 2> dots(In x1, In y1, In x2, In y2) {
    return {dot(x1, y1), dot(x2, y2)};
  }
  static std::array<double, 3> dots(In x1, In y1, In x2, In y2, In x3,
                                    In y3) {
    return {dot(x1, y1), dot(x2, y2), dot(x3, y3)};
  }
  static void axpy(double a, In x, Out y) { util::axpy(a, x, y); }
  static void aypx(double a, In x, Out y) { util::aypx(a, x, y); }
  static void assign(In src, Out dst) { util::copy(src, dst); }
  static void scale(double a, Out x) { util::scale(a, x); }
  static void matvec(const Op& a, In in, Out out) { a(in, out); }
  static void precond(const Op& m, In in, Out out) { m(in, out); }

  struct NoScope {};
  static NoScope iteration(std::size_t /*k*/) { return {}; }
  static void record(std::size_t /*iterations*/, double /*rnorm*/) {}
  template <class... Live>
  static bool rebalance(const SolveOptions& /*opts*/, std::size_t /*k*/,
                        Live&... /*live*/) {
    return false;
  }
};

}  // namespace hpfcg::solvers::detail
