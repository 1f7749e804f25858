#pragma once

// B-spline particle shape factors of order 1-3 (paper Sec. IV: high-order
// shapes are essential for modeling high-density plasmas while keeping the
// finite-grid instability acceptable).
//
// compute_shape<ORDER>(w, x) fills the ORDER+1 weights of the spline centered
// on position x (in grid-index units; the caller has already removed the
// component staggering) and returns the index of the first grid point the
// weights apply to.

#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "src/amr/config.hpp"

namespace mrpic::particles {

template <int ORDER, typename T = Real>
struct Shape {
  static constexpr int support = ORDER + 1;

  // Fills w[0..ORDER]; returns first index.
  static int compute(T* w, T x) {
    if constexpr (ORDER == 1) {
      const int i = static_cast<int>(std::floor(x));
      const T d = x - static_cast<T>(i);
      w[0] = 1 - d;
      w[1] = d;
      return i;
    } else if constexpr (ORDER == 2) {
      // Centered on the nearest grid point.
      const int i = static_cast<int>(std::floor(x + T(0.5)));
      const T d = x - static_cast<T>(i);
      w[0] = T(0.5) * (T(0.5) - d) * (T(0.5) - d);
      w[1] = T(0.75) - d * d;
      w[2] = T(0.5) * (T(0.5) + d) * (T(0.5) + d);
      return i - 1;
    } else {
      static_assert(ORDER == 3, "supported shape orders: 1, 2, 3");
      const int i = static_cast<int>(std::floor(x));
      const T d = x - static_cast<T>(i);
      const T d2 = d * d;
      const T d3 = d2 * d;
      w[0] = (1 - 3 * d + 3 * d2 - d3) / 6; // (1-d)^3/6
      w[1] = (4 - 6 * d2 + 3 * d3) / 6;
      w[2] = (1 + 3 * d + 3 * d2 - 3 * d3) / 6;
      w[3] = d3 / 6;
      return i - 1;
    }
  }
};

// One dimension's shape at both Yee staggerings: index s = 0 holds the
// weights and first index for a node-centred component, s = 1 for one
// shifted by half a cell. Kernels pick w[s] and first[s] with the
// component's staggering as a compile-time constant.
template <int ORDER>
struct StaggeredShape {
  Real w[2][ORDER + 1];
  int first[2];

  void compute(Real xi) {
    first[0] = Shape<ORDER>::compute(w[0], xi);
    first[1] = Shape<ORDER>::compute(w[1], xi - Real(0.5));
  }
};

// Throws std::invalid_argument unless `order` is a supported shape order.
inline void require_shape_order(int order) {
  if (order < 1 || order > 3) {
    throw std::invalid_argument("shape order " + std::to_string(order) +
                                " is not supported (1, 2 or 3)");
  }
}

// Calls f(std::integral_constant<int, ORDER>{}) for the run-time `order`;
// an unsupported order throws std::invalid_argument.
template <typename F>
void with_shape_order(int order, F&& f) {
  require_shape_order(order);
  if (order == 1) {
    f(std::integral_constant<int, 1>{});
  } else if (order == 2) {
    f(std::integral_constant<int, 2>{});
  } else {
    f(std::integral_constant<int, 3>{});
  }
}

// Number of FLOPs of one 1D shape evaluation (for the perf accounting).
template <int ORDER>
constexpr int shape_flops() {
  if constexpr (ORDER == 1) { return 2; }
  else if constexpr (ORDER == 2) { return 9; }
  else { return 16; }
}

} // namespace mrpic::particles
