#include "autograd/ops.h"

#include <algorithm>
#include <utility>

#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace musenet::autograd {

namespace ts = musenet::tensor;

namespace {

/// Creates the output node for an op. `backward` is dropped when no input
/// requires gradients, which prunes constant sub-graphs from the tape.
/// Every op funnels through here, which is what lets NoGradGuard intercept
/// graph construction globally and the planner trust `kind`/`attrs` on every
/// non-leaf node.
Variable MakeOp(const char* name, OpKind kind, ts::Tensor value,
                std::vector<Variable> inputs,
                std::function<void(Node&)> backward, OpAttrs attrs = {}) {
  MUSE_CHECK(!NoGradGuard::ForbidActive())
      << "autograd op '" << name
      << "' constructed inside a forbid-mode NoGradGuard (the inference "
         "engine must never build graph nodes)";
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->op_name = name;
  node->kind = kind;
  node->attrs = attrs;
  if (NoGradGuard::Active()) {
    // Value-only node: inputs are not retained and no backward is recorded,
    // so the graph above this point is free to die as soon as the caller
    // drops its handles.
    return Variable(std::move(node));
  }
  bool needs_grad = false;
  node->inputs.reserve(inputs.size());
  for (const Variable& v : inputs) {
    MUSE_CHECK(v.defined()) << "undefined input to op " << name;
    needs_grad = needs_grad || v.node()->requires_grad;
    node->inputs.push_back(v.node());
  }
  node->requires_grad = needs_grad;
  if (needs_grad) node->backward = std::move(backward);
  return Variable(std::move(node));
}

/// Accumulates `g` into `target` after summing over broadcast axes. When no
/// reduction is needed the tensor is forwarded as-is (the rvalue overload
/// then moves it straight into a first-contribution accumulator).
void AccumulateBroadcast(Node& target, const ts::Tensor& g) {
  if (!target.requires_grad) return;
  if (g.shape() == target.value.shape()) {
    AccumulateGrad(target, g);
  } else {
    AccumulateGrad(target, ts::ReduceToShape(g, target.value.shape()));
  }
}

void AccumulateBroadcast(Node& target, ts::Tensor&& g) {
  if (!target.requires_grad) return;
  if (g.shape() == target.value.shape()) {
    AccumulateGrad(target, std::move(g));
  } else {
    AccumulateGrad(target, ts::ReduceToShape(g, target.value.shape()));
  }
}

void AccumulateIfNeeded(Node& target, ts::Tensor&& g) {
  if (!target.requires_grad) return;
  AccumulateGrad(target, std::move(g));
}

}  // namespace

Variable Constant(tensor::Tensor value) {
  return Variable(std::move(value), /*requires_grad=*/false);
}

Variable Add(const Variable& a, const Variable& b) {
  return MakeOp("add", OpKind::kAdd, ts::Add(a.value(), b.value()), {a, b},
                [](Node& n) {
    AccumulateBroadcast(*n.inputs[0], n.grad);
    // Last use of this interior node's gradient: steal the buffer. (If both
    // inputs alias, the accumulator was initialized above and the rvalue
    // path adds in place without moving.)
    AccumulateBroadcast(*n.inputs[1], std::move(n.grad));
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  return MakeOp("sub", OpKind::kSub, ts::Sub(a.value(), b.value()), {a, b},
                [](Node& n) {
    ts::Tensor gb = ts::Neg(n.grad);
    AccumulateBroadcast(*n.inputs[0], std::move(n.grad));
    AccumulateBroadcast(*n.inputs[1], std::move(gb));
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  return MakeOp("mul", OpKind::kMul, ts::Mul(a.value(), b.value()), {a, b},
                [](Node& n) {
    AccumulateBroadcast(*n.inputs[0], ts::Mul(n.grad, n.inputs[1]->value));
    AccumulateBroadcast(*n.inputs[1], ts::Mul(n.grad, n.inputs[0]->value));
  });
}

Variable Div(const Variable& a, const Variable& b) {
  return MakeOp("div", OpKind::kDiv, ts::Div(a.value(), b.value()), {a, b},
                [](Node& n) {
    const ts::Tensor& bv = n.inputs[1]->value;
    AccumulateBroadcast(*n.inputs[0], ts::Div(n.grad, bv));
    // d/db (a/b) = -a / b².
    ts::Tensor gb = ts::Neg(
        ts::Div(ts::Mul(n.grad, n.inputs[0]->value), ts::Square(bv)));
    AccumulateBroadcast(*n.inputs[1], std::move(gb));
  });
}

Variable AddScalar(const Variable& a, float s) {
  return MakeOp(
      "add_scalar", OpKind::kAddScalar, ts::AddScalar(a.value(), s), {a},
      [](Node& n) { AccumulateIfNeeded(*n.inputs[0], std::move(n.grad)); },
      {.f0 = s});
}

Variable MulScalar(const Variable& a, float s) {
  return MakeOp(
      "mul_scalar", OpKind::kMulScalar, ts::MulScalar(a.value(), s), {a},
      [s](Node& n) {
        AccumulateIfNeeded(*n.inputs[0], ts::MulScalar(n.grad, s));
      },
      {.f0 = s});
}

Variable Exp(const Variable& a) {
  // d exp(x) = exp(x) = the node's own value (valid until ReleaseGraph).
  return MakeOp("exp", OpKind::kExp, ts::Exp(a.value()), {a}, [](Node& n) {
    AccumulateIfNeeded(*n.inputs[0], ts::Mul(n.grad, n.value));
  });
}

Variable Sqrt(const Variable& a) {
  return MakeOp("sqrt", OpKind::kSqrt, ts::Sqrt(a.value()), {a},
                [](Node& n) {
    // d sqrt(x) = 0.5 / sqrt(x); sqrt(x) is the node's own value.
    AccumulateIfNeeded(*n.inputs[0],
                       ts::Div(ts::MulScalar(n.grad, 0.5f), n.value));
  });
}

Variable Tanh(const Variable& a) {
  return MakeOp("tanh", OpKind::kTanh, ts::Tanh(a.value()), {a},
                [](Node& n) {
    // Fused g·(1 − tanh²), one pass instead of the Ones/Square/Sub/Mul
    // chain (bit-identical — see fused_ops.cc).
    AccumulateIfNeeded(*n.inputs[0], ts::ActBackwardFromOutput(
                                         n.grad, n.value, ts::ActKind::kTanh));
  });
}

Variable LeakyRelu(const Variable& a, float alpha) {
  return MakeOp(
      "leaky_relu", OpKind::kLeakyRelu, ts::LeakyRelu(a.value(), alpha), {a},
      [alpha](Node& n) {
        AccumulateIfNeeded(*n.inputs[0],
                           ts::ActBackwardFromOutput(
                               n.grad, n.value, ts::ActKind::kLeakyRelu,
                               alpha));
      },
      {.f0 = alpha});
}

Variable Sigmoid(const Variable& a) {
  return MakeOp("sigmoid", OpKind::kSigmoid, ts::Sigmoid(a.value()), {a},
                [](Node& n) {
    // Fused g·out·(1 − out), one pass (bit-identical to the unfused chain).
    AccumulateIfNeeded(
        *n.inputs[0],
        ts::ActBackwardFromOutput(n.grad, n.value, ts::ActKind::kSigmoid));
  });
}

Variable Square(const Variable& a) {
  return MakeOp("square", OpKind::kSquare, ts::Square(a.value()), {a},
                [](Node& n) {
    AccumulateIfNeeded(*n.inputs[0],
                       ts::SquareBackward(n.grad, n.inputs[0]->value));
  });
}

Variable Clamp(const Variable& a, float lo, float hi) {
  return MakeOp(
      "clamp", OpKind::kClamp, ts::Clamp(a.value(), lo, hi), {a},
      [lo, hi](Node& n) {
        const ts::Tensor& in = n.inputs[0]->value;
        ts::Tensor g = ts::Tensor::Uninitialized(in.shape());
        const float* pin = in.data();
        const float* pg = n.grad.data();
        float* po = g.mutable_data();
        const int64_t count = in.num_elements();
        for (int64_t i = 0; i < count; ++i) {
          po[i] = (pin[i] >= lo && pin[i] <= hi) ? pg[i] : 0.0f;
        }
        AccumulateIfNeeded(*n.inputs[0], std::move(g));
      },
      {.f0 = lo, .f1 = hi});
}

Variable BiasActivation(const Variable& x, const Variable& bias,
                        ts::ActKind act, float alpha) {
  return MakeOp(
      "bias_act", OpKind::kBiasAct,
      ts::BiasAct(x.value(), bias.value(), act, alpha), {x, bias},
      [act, alpha](Node& n) {
        // Pre-activation gradient from the output alone, then the
        // usual broadcast-aware Add backward for the bias.
        ts::Tensor g_pre =
            ts::ActBackwardFromOutput(n.grad, n.value, act, alpha);
        AccumulateBroadcast(*n.inputs[1], g_pre);
        AccumulateIfNeeded(*n.inputs[0], std::move(g_pre));
      },
      {.f0 = alpha, .i0 = static_cast<int64_t>(act)});
}

Variable FusedMulAdd(const Variable& a, const Variable& b,
                     const Variable& c) {
  return MakeOp("mul_add", OpKind::kMulAddFused,
                ts::MulAdd(a.value(), b.value(), c.value()),
                {a, b, c}, [](Node& n) {
                  // Products first, then steal the gradient buffer for `a`;
                  // accumulation order (a, b, c) is preserved for aliasing.
                  ts::Tensor gb = ts::Mul(n.grad, n.inputs[2]->value);
                  ts::Tensor gc = ts::Mul(n.grad, n.inputs[1]->value);
                  AccumulateIfNeeded(*n.inputs[0], std::move(n.grad));
                  AccumulateIfNeeded(*n.inputs[1], std::move(gb));
                  AccumulateIfNeeded(*n.inputs[2], std::move(gc));
                });
}

Variable SumAll(const Variable& a) {
  return MakeOp("sum_all", OpKind::kSumAll, ts::SumAll(a.value()), {a},
                [](Node& n) {
    const ts::Shape& in_shape = n.inputs[0]->value.shape();
    AccumulateIfNeeded(
        *n.inputs[0],
        ts::Tensor::Full(in_shape, n.grad.scalar()));
  });
}

Variable MeanAll(const Variable& a) {
  const float inv = 1.0f / static_cast<float>(a.value().num_elements());
  return MulScalar(SumAll(a), inv);
}

Variable Sum(const Variable& a, int axis, bool keepdims) {
  ts::Tensor out = ts::Sum(a.value(), axis, keepdims);
  return MakeOp(
      "sum_axis", OpKind::kSumAxis, std::move(out), {a},
      [axis](Node& n) {
        const ts::Shape& in_shape = n.inputs[0]->value.shape();
        // Re-insert the reduced axis as size 1 (no-op when keepdims was
        // true), then broadcast back to the input shape.
        std::vector<int64_t> keep_dims = in_shape.dims();
        keep_dims[axis] = 1;
        ts::Tensor g = n.grad.Reshape(ts::Shape(std::move(keep_dims)));
        AccumulateIfNeeded(*n.inputs[0], ts::BroadcastTo(g, in_shape));
      },
      {.i0 = axis, .i1 = keepdims ? 1 : 0});
}

Variable Mean(const Variable& a, int axis, bool keepdims) {
  const float inv = 1.0f / static_cast<float>(a.value().dim(axis));
  return MulScalar(Sum(a, axis, keepdims), inv);
}

Variable MatMul(const Variable& a, const Variable& b) {
  return MakeOp("matmul", OpKind::kMatMul, ts::MatMul(a.value(), b.value()),
                {a, b}, [](Node& n) {
                  const ts::Tensor& av = n.inputs[0]->value;
                  const ts::Tensor& bv = n.inputs[1]->value;
                  if (n.inputs[0]->requires_grad) {
                    AccumulateGrad(*n.inputs[0],
                                   ts::MatMulTransB(n.grad, bv));
                  }
                  if (n.inputs[1]->requires_grad) {
                    AccumulateGrad(*n.inputs[1],
                                   ts::MatMulTransA(av, n.grad));
                  }
                });
}

Variable MatMulBatched(const Variable& a, const Variable& b) {
  return MakeOp(
      "matmul_batched", OpKind::kMatMulBatched,
      ts::MatMulBatched(a.value(), b.value()), {a, b},
      [](Node& n) {
        const ts::Tensor& av = n.inputs[0]->value;
        const ts::Tensor& bv = n.inputs[1]->value;
        if (n.inputs[0]->requires_grad) {
          AccumulateGrad(*n.inputs[0], ts::MatMulBatchedTransB(n.grad, bv));
        }
        if (n.inputs[1]->requires_grad) {
          AccumulateGrad(*n.inputs[1], ts::MatMulBatchedTransA(av, n.grad));
        }
      });
}

Variable TransposeLast2(const Variable& a) {
  return MakeOp("transpose_last2", OpKind::kTransposeLast2,
                ts::TransposeLast2(a.value()), {a},
                [](Node& n) {
                  AccumulateIfNeeded(*n.inputs[0],
                                     ts::TransposeLast2(n.grad));
                });
}

Variable SoftmaxLastAxis(const Variable& a) {
  return MakeOp("softmax", OpKind::kSoftmax, ts::SoftmaxLastAxis(a.value()),
                {a}, [](Node& n) {
    // dx = y ⊙ (g − Σ_j g_j y_j) per row of the last axis; y = n.value.
    const ts::Tensor& out = n.value;
    ts::Tensor gy = ts::Mul(n.grad, out);
    ts::Tensor row_sum = ts::Sum(gy, out.rank() - 1, /*keepdims=*/true);
    AccumulateIfNeeded(*n.inputs[0], ts::Mul(out, ts::Sub(n.grad, row_sum)));
  });
}

Variable Conv2d(const Variable& input, const Variable& weight,
                const tensor::Conv2dSpec& spec, tensor::Conv2dWorkspace* ws) {
  // `ws` is layer-owned scratch (see nn::Conv2d); the layer outlives every
  // graph built from it, so the backward closure may capture the pointer.
  return MakeOp(
      "conv2d", OpKind::kConv2d,
      ts::Conv2dForward(input.value(), weight.value(), spec, ws),
      {input, weight}, [spec, ws](Node& n) {
        const ts::Tensor& in = n.inputs[0]->value;
        const ts::Tensor& w = n.inputs[1]->value;
        if (n.inputs[0]->requires_grad) {
          AccumulateGrad(*n.inputs[0], ts::Conv2dBackwardInput(
                                           n.grad, w, in.shape(), spec, ws));
        }
        if (n.inputs[1]->requires_grad) {
          AccumulateGrad(*n.inputs[1], ts::Conv2dBackwardWeight(
                                           n.grad, in, w.shape(), spec, ws));
        }
      },
      {.i0 = spec.stride, .i1 = spec.pad});
}

Variable Reshape(const Variable& a, tensor::Shape new_shape) {
  ts::Tensor out = a.value().Reshape(new_shape);
  return MakeOp("reshape", OpKind::kReshape, std::move(out), {a},
                [](Node& n) {
                  AccumulateIfNeeded(*n.inputs[0],
                                     n.grad.Reshape(n.inputs[0]->value.shape()));
                });
}

Variable Flatten2d(const Variable& a) {
  MUSE_CHECK_GE(a.value().rank(), 1);
  const int64_t batch = a.value().dim(0);
  const int64_t rest = a.value().num_elements() / batch;
  return Reshape(a, ts::Shape({batch, rest}));
}

Variable Concat(const std::vector<Variable>& parts, int axis) {
  MUSE_CHECK(!parts.empty());
  std::vector<ts::Tensor> values;
  values.reserve(parts.size());
  for (const Variable& p : parts) values.push_back(p.value());
  ts::Tensor out = ts::Concat(values, axis);
  return MakeOp(
      "concat", OpKind::kConcat, std::move(out), parts,
      [axis](Node& n) {
        int64_t offset = 0;
        for (auto& input : n.inputs) {
          const int64_t len = input->value.dim(axis);
          if (input->requires_grad) {
            AccumulateGrad(*input, ts::Slice(n.grad, axis, offset, len));
          }
          offset += len;
        }
      },
      {.i0 = axis});
}

Variable Slice(const Variable& a, int axis, int64_t start, int64_t len) {
  ts::Tensor out = ts::Slice(a.value(), axis, start, len);
  return MakeOp(
      "slice", OpKind::kSlice, std::move(out), {a},
      [axis, start, len](Node& n) {
        const ts::Shape& in_shape = n.inputs[0]->value.shape();
        if (!n.inputs[0]->requires_grad) return;
        // Scatter the slice gradient back into a zero tensor of the input
        // shape.
        ts::Tensor g(in_shape);
        int64_t outer = 1;
        for (int i = 0; i < axis; ++i) outer *= in_shape.dim(i);
        int64_t inner = 1;
        for (int i = axis + 1; i < in_shape.rank(); ++i) {
          inner *= in_shape.dim(i);
        }
        const int64_t mid = in_shape.dim(axis);
        const float* pg = n.grad.data();
        float* po = g.mutable_data();
        for (int64_t o = 0; o < outer; ++o) {
          std::copy(pg + o * len * inner, pg + (o + 1) * len * inner,
                    po + (o * mid + start) * inner);
        }
        AccumulateGrad(*n.inputs[0], g);
      },
      {.i0 = axis, .i1 = start, .i2 = len});
}

}  // namespace musenet::autograd
