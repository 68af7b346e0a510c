// Invariant-violation tests: MUSE_CHECK guards must abort on programmer
// errors (death tests), and IEEE edge semantics must hold where documented.

#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "data/interception.h"
#include "tensor/tensor_ops.h"

namespace musenet {
namespace {

namespace ts = musenet::tensor;
namespace ag = musenet::autograd;

using InvariantsDeathTest = ::testing::Test;

TEST(InvariantsDeathTest, ShapeRejectsNonPositiveDims) {
  EXPECT_DEATH(ts::Shape({2, 0, 3}), "MUSE_CHECK");
  EXPECT_DEATH(ts::Shape({-1}), "MUSE_CHECK");
}

TEST(InvariantsDeathTest, TensorDataSizeMustMatchShape) {
  EXPECT_DEATH(ts::Tensor(ts::Shape({3}), {1.0f, 2.0f}), "MUSE_CHECK");
}

TEST(InvariantsDeathTest, ReshapeMustPreserveElementCount) {
  ts::Tensor t = ts::Tensor::Arange(6);
  EXPECT_DEATH(t.Reshape(ts::Shape({4})), "MUSE_CHECK");
}

TEST(InvariantsDeathTest, SliceBoundsChecked) {
  ts::Tensor t = ts::Tensor::Arange(6);
  EXPECT_DEATH(ts::Slice(t, 0, 4, 5), "MUSE_CHECK");
  EXPECT_DEATH(ts::Slice(t, 1, 0, 1), "MUSE_CHECK");  // Axis out of range.
}

TEST(InvariantsDeathTest, MatMulInnerDimsMustAgree) {
  ts::Tensor a = ts::Tensor::Ones(ts::Shape({2, 3}));
  ts::Tensor b = ts::Tensor::Ones(ts::Shape({4, 5}));
  EXPECT_DEATH(ts::MatMul(a, b), "MUSE_CHECK");
}

TEST(InvariantsDeathTest, IncompatibleBroadcastRejected) {
  ts::Tensor a = ts::Tensor::Ones(ts::Shape({2, 3}));
  ts::Tensor b = ts::Tensor::Ones(ts::Shape({2, 4}));
  EXPECT_DEATH(ts::Add(a, b), "MUSE_CHECK");
}

TEST(InvariantsDeathTest, BackwardRequiresScalarOutput) {
  ag::Variable v(ts::Tensor::Arange(3), /*requires_grad=*/true);
  ag::Variable doubled = ag::MulScalar(v, 2.0f);
  EXPECT_DEATH(ag::Backward(doubled), "scalar");
}

TEST(InvariantsDeathTest, GradBeforeBackwardRejected) {
  ag::Variable v(ts::Tensor::Arange(3), /*requires_grad=*/true);
  EXPECT_DEATH(v.grad(), "Backward");
}

TEST(InvariantsDeathTest, InterceptionRequiresEnoughHistory) {
  sim::FlowSeries flows(sim::GridSpec{1, 1}, 24, 0, 24 * 8);
  data::PeriodicitySpec spec;  // Needs L_t·f·7 history.
  EXPECT_DEATH(data::InterceptSample(flows, spec, 10), "MUSE_CHECK");
}

// --- Documented IEEE edge semantics (non-fatal) ----------------------------------

TEST(IeeeEdgeTest, DivByZeroFollowsIeee) {
  ts::Tensor a = ts::Tensor::FromVector({1.0f, -1.0f, 0.0f});
  ts::Tensor b = ts::Tensor::Zeros(ts::Shape({3}));
  ts::Tensor q = ts::Div(a, b);
  EXPECT_TRUE(std::isinf(q.flat(0)));
  EXPECT_TRUE(std::isinf(q.flat(1)));
  EXPECT_LT(q.flat(1), 0.0f);
  EXPECT_TRUE(std::isnan(q.flat(2)));
}

}  // namespace
}  // namespace musenet
