#ifndef MUSENET_TESTS_GRAD_CHECK_H_
#define MUSENET_TESTS_GRAD_CHECK_H_

#include <functional>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"

namespace musenet::autograd {

/// Outcome of a numerical gradient check.
struct GradCheckResult {
  bool passed = true;
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
  std::string detail;  ///< Filled with the first offending coordinate.
};

/// Verifies analytic gradients of `fn` against central finite differences.
///
/// `fn` must map the given inputs to a scalar Variable and must be a pure
/// function of the inputs (re-invoked with perturbed values). All inputs are
/// treated as differentiable. Tolerances are generous because the library is
/// float32 while the finite difference is computed on float32 values too.
GradCheckResult CheckGradients(
    const std::function<Variable(const std::vector<Variable>&)>& fn,
    std::vector<tensor::Tensor> inputs, double epsilon = 1e-2,
    double rel_tolerance = 5e-2, double abs_tolerance = 1e-3);

}  // namespace musenet::autograd

#endif  // MUSENET_TESTS_GRAD_CHECK_H_
