#include "grad_check.h"

#include <cmath>
#include <sstream>

#include "util/check.h"

namespace musenet::autograd {

GradCheckResult CheckGradients(
    const std::function<Variable(const std::vector<Variable>&)>& fn,
    std::vector<tensor::Tensor> inputs, double epsilon, double rel_tolerance,
    double abs_tolerance) {
  GradCheckResult result;

  // Analytic pass.
  std::vector<Variable> vars;
  vars.reserve(inputs.size());
  for (const auto& t : inputs) vars.emplace_back(t, /*requires_grad=*/true);
  Variable out = fn(vars);
  MUSE_CHECK_EQ(out.value().num_elements(), 1)
      << "CheckGradients requires a scalar function";
  Backward(out);

  auto eval = [&fn](const std::vector<tensor::Tensor>& points) {
    std::vector<Variable> args;
    args.reserve(points.size());
    for (const auto& t : points) args.emplace_back(t, false);
    return static_cast<double>(fn(args).value().scalar());
  };

  for (size_t vi = 0; vi < inputs.size(); ++vi) {
    const tensor::Tensor analytic = vars[vi].has_grad()
                                        ? vars[vi].grad()
                                        : tensor::Tensor::Zeros(
                                              inputs[vi].shape());
    for (int64_t i = 0; i < inputs[vi].num_elements(); ++i) {
      const float original = inputs[vi].flat(i);
      inputs[vi].flat(i) = original + static_cast<float>(epsilon);
      const double up = eval(inputs);
      inputs[vi].flat(i) = original - static_cast<float>(epsilon);
      const double down = eval(inputs);
      inputs[vi].flat(i) = original;

      const double numeric = (up - down) / (2.0 * epsilon);
      const double exact = analytic.flat(i);
      const double abs_err = std::fabs(numeric - exact);
      const double denom = std::max({std::fabs(numeric), std::fabs(exact),
                                     1e-8});
      const double rel_err = abs_err / denom;
      result.max_abs_error = std::max(result.max_abs_error, abs_err);
      result.max_rel_error = std::max(result.max_rel_error, rel_err);
      if (abs_err > abs_tolerance && rel_err > rel_tolerance &&
          result.passed) {
        result.passed = false;
        std::ostringstream msg;
        msg << "input " << vi << " element " << i << ": analytic " << exact
            << " vs numeric " << numeric;
        result.detail = msg.str();
      }
    }
  }
  return result;
}

}  // namespace musenet::autograd
