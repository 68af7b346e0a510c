#include "infer/plan.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "tensor/conv2d.h"
#include "tensor/gemm.h"
#include "util/check.h"

namespace musenet::infer {

namespace ag = musenet::autograd;
namespace ts = musenet::tensor;

namespace {

/// Iterative post-order DFS over node inputs — the same traversal Backward
/// uses, so the step order matches the forward evaluation order exactly.
std::vector<ag::Node*> TopologicalOrder(ag::Node* root) {
  std::vector<ag::Node*> order;
  std::unordered_set<ag::Node*> visited;
  struct Frame {
    ag::Node* node;
    size_t next_input;
  };
  std::vector<Frame> stack;
  if (visited.insert(root).second) stack.push_back({root, 0});
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_input < top.node->inputs.size()) {
      ag::Node* child = top.node->inputs[top.next_input++].get();
      if (child != nullptr && visited.insert(child).second) {
        stack.push_back({child, 0});
      }
    } else {
      order.push_back(top.node);
      stack.pop_back();
    }
  }
  return order;
}

/// Right-aligned broadcast strides of `in` against `out` (0 where the input
/// axis is absent or has extent 1), indexed by output axis.
void BroadcastStridesInto(const ts::Shape& in, const ts::Shape& out,
                          int64_t* strides) {
  const int offset = out.rank() - in.rank();
  int64_t running = 1;
  for (int axis = out.rank() - 1; axis >= 0; --axis) {
    if (axis < offset || in.dim(axis - offset) == 1) {
      strides[axis] = 0;
    } else {
      strides[axis] = running;
      running *= in.dim(axis - offset);
    }
  }
}

/// BiasAct layout (mirrors fused_ops.cc): bias broadcasts with at most one
/// non-unit axis; decompose x's index space so the bias element for flat
/// index i is bias[(i / inner) % channels].
void BiasLayoutInto(const ts::Shape& x, const ts::Shape& bias,
                    int64_t* channels, int64_t* inner) {
  const int offset = x.rank() - bias.rank();
  *channels = 1;
  *inner = 1;
  int non_unit_axis = -1;
  for (int axis = 0; axis < bias.rank(); ++axis) {
    if (bias.dim(axis) != 1) non_unit_axis = axis;
  }
  if (non_unit_axis < 0) return;
  *channels = bias.dim(non_unit_axis);
  for (int axis = offset + non_unit_axis + 1; axis < x.rank(); ++axis) {
    *inner *= x.dim(axis);
  }
}

/// True when `t` matches `ref` in shape and bytes — the planner's test for
/// "this leaf is the batch tensor the caller passed in".
bool TensorMatches(const ts::Tensor& t, const ts::Tensor& ref) {
  if (!(t.shape() == ref.shape())) return false;
  return std::memcmp(t.data(), ref.data(),
                     sizeof(float) * static_cast<size_t>(
                                         t.num_elements())) == 0;
}

/// outer × mid × inner decomposition of `shape` around `axis`.
void AxisDecompose(const ts::Shape& shape, int axis, int64_t* outer,
                   int64_t* mid, int64_t* inner) {
  *outer = 1;
  for (int i = 0; i < axis; ++i) *outer *= shape.dim(i);
  *mid = shape.dim(axis);
  *inner = 1;
  for (int i = axis + 1; i < shape.rank(); ++i) *inner *= shape.dim(i);
}

constexpr int64_t kArenaAlignElems = 16;  ///< 64-byte lines.

int64_t AlignUp(int64_t elems) {
  return (elems + kArenaAlignElems - 1) / kArenaAlignElems * kArenaAlignElems;
}

/// Fills the broadcast-binary geometry shared by kAdd/kSub/kMul/kDiv.
Status BinaryGeom(const ts::Shape& a, const ts::Shape& b, const ts::Shape& out,
                  StepGeom* geom) {
  geom->n = out.num_elements();
  if (a == b) {
    geom->same_shape = true;
    return Status::OK();
  }
  if (a.num_elements() == 1) {
    geom->a_scalar = true;
    return Status::OK();
  }
  if (b.num_elements() == 1) {
    geom->b_scalar = true;
    return Status::OK();
  }
  if (out.rank() > 8) {
    return Status::InvalidArgument("broadcast rank > 8 not plannable");
  }
  geom->rank = out.rank();
  for (int i = 0; i < out.rank(); ++i) geom->dims[i] = out.dim(i);
  BroadcastStridesInto(a, out, geom->sa);
  BroadcastStridesInto(b, out, geom->sb);
  return Status::OK();
}

}  // namespace

Result<Plan> BuildPlan(const ag::Variable& root, const data::Batch& batch) {
  MUSE_CHECK(root.defined()) << "BuildPlan on empty Variable";
  Plan plan;
  plan.batch_size = batch.batch_size();
  plan.out_shape = root.value().shape();

  const std::vector<ag::Node*> order = TopologicalOrder(root.node().get());

  // Keep the producing shared_ptr for weight leaves reachable by raw pointer.
  std::unordered_map<ag::Node*, std::shared_ptr<ag::Node>> owners;
  for (ag::Node* node : order) {
    for (const auto& in : node->inputs) owners[in.get()] = in;
  }
  owners[root.node().get()] = root.node();

  std::unordered_map<ag::Node*, int32_t> buf_of;

  auto add_buffer = [&](PlanBuffer buffer) {
    plan.buffers.push_back(std::move(buffer));
    return static_cast<int32_t>(plan.buffers.size() - 1);
  };

  const ts::Tensor* inputs[3] = {&batch.closeness, &batch.period,
                                 &batch.trend};

  for (ag::Node* node : order) {
    const ts::Shape& shape = node->value.shape();
    PlanBuffer buffer;
    buffer.dims = shape.dims();
    buffer.elems = node->value.num_elements();

    if (node->kind == ag::OpKind::kLeaf) {
      if (node->requires_grad) {
        buffer.loc = BufLoc::kWeight;
        auto it = owners.find(node);
        MUSE_CHECK(it != owners.end());
        buffer.weight = it->second;
      } else {
        int bound = -1;
        for (int i = 0; i < 3; ++i) {
          if (TensorMatches(node->value, *inputs[i])) {
            bound = i;
            break;
          }
        }
        if (bound >= 0) {
          buffer.loc = BufLoc::kInput;
          buffer.input_index = bound;
        } else {
          // Baked constant: eval-mode BN statistics, shaped zeros, etc. The
          // copy makes the plan self-contained (the traced graph can die).
          buffer.loc = BufLoc::kConstant;
          const float* src = node->value.data();
          buffer.constant.assign(src, src + buffer.elems);
        }
      }
      buf_of[node] = add_buffer(std::move(buffer));
      continue;
    }

    if (node->kind == ag::OpKind::kReshape) {
      MUSE_CHECK_EQ(node->inputs.size(), 1u);
      buffer.loc = BufLoc::kAlias;
      buffer.alias_of = buf_of.at(node->inputs[0].get());
      const int32_t idx = add_buffer(std::move(buffer));
      buf_of[node] = idx;
      continue;
    }

    // Compile one step. Geometry first so unsupported configurations fail
    // before any buffer is committed.
    Step step;
    step.kind = node->kind;
    step.attrs = node->attrs;
    step.op_name = node->op_name;
    for (const auto& in : node->inputs) {
      step.in.push_back(buf_of.at(in.get()));
    }
    StepGeom& geom = step.geom;
    int64_t scratch_elems = 0;

    const auto in_shape = [&](size_t i) -> const ts::Shape& {
      return node->inputs[i]->value.shape();
    };

    switch (node->kind) {
      case ag::OpKind::kAdd:
      case ag::OpKind::kSub:
      case ag::OpKind::kMul:
      case ag::OpKind::kDiv: {
        const Status st = BinaryGeom(in_shape(0), in_shape(1), shape, &geom);
        if (!st.ok()) return st;
        break;
      }
      case ag::OpKind::kAddScalar:
      case ag::OpKind::kMulScalar:
      case ag::OpKind::kExp:
      case ag::OpKind::kSqrt:
      case ag::OpKind::kTanh:
      case ag::OpKind::kLeakyRelu:
      case ag::OpKind::kSigmoid:
      case ag::OpKind::kSquare:
      case ag::OpKind::kClamp:
      case ag::OpKind::kMulAddFused:
        geom.n = node->value.num_elements();
        break;
      case ag::OpKind::kBiasAct:
        geom.n = node->value.num_elements();
        BiasLayoutInto(in_shape(0), in_shape(1), &geom.channels,
                       &geom.bias_inner);
        break;
      case ag::OpKind::kSumAxis:
        AxisDecompose(in_shape(0), static_cast<int>(node->attrs.i0),
                      &geom.outer, &geom.mid, &geom.inner);
        break;
      case ag::OpKind::kMatMul: {
        geom.m = in_shape(0).dim(0);
        geom.k = in_shape(0).dim(1);
        geom.cols = in_shape(1).dim(1);
        geom.pack_elems = ts::GemmPackScratchElems(geom.m, geom.cols, geom.k);
        scratch_elems = geom.pack_elems;
        plan.flops += 2 * geom.m * geom.cols * geom.k;
        break;
      }
      case ag::OpKind::kMatMulBatched: {
        geom.batch = in_shape(0).dim(0);
        geom.m = in_shape(0).dim(1);
        geom.k = in_shape(0).dim(2);
        geom.cols = in_shape(1).dim(2);
        geom.pack_elems = ts::GemmPackScratchElems(geom.m, geom.cols, geom.k);
        scratch_elems = geom.batch * geom.pack_elems;
        plan.flops += 2 * geom.batch * geom.m * geom.cols * geom.k;
        break;
      }
      case ag::OpKind::kTransposeLast2:
        geom.batch = in_shape(0).dim(0);
        geom.m = in_shape(0).dim(1);
        geom.cols = in_shape(0).dim(2);
        break;
      case ag::OpKind::kSoftmax:
        geom.mid = shape.dim(shape.rank() - 1);
        geom.outer = node->value.num_elements() / geom.mid;
        break;
      case ag::OpKind::kConv2d: {
        const ts::Shape& in = in_shape(0);
        const ts::Shape& w = in_shape(1);
        geom.batch = in.dim(0);
        geom.cin = in.dim(1);
        geom.h = in.dim(2);
        geom.w = in.dim(3);
        geom.cout = w.dim(0);
        geom.kh = w.dim(2);
        geom.kw = w.dim(3);
        geom.oh = shape.dim(2);
        geom.ow = shape.dim(3);
        const int64_t kdim = geom.cin * geom.kh * geom.kw;
        const int64_t osp = geom.oh * geom.ow;
        geom.col_elems = kdim * osp;
        geom.pack_elems = ts::GemmPackScratchElems(geom.cout, osp, kdim);
        scratch_elems = geom.batch * (geom.col_elems + geom.pack_elems);
        plan.flops += 2 * geom.batch * geom.cout * kdim * osp;
        break;
      }
      case ag::OpKind::kConcat: {
        const int axis = static_cast<int>(node->attrs.i0);
        int64_t dummy_mid = 0;
        AxisDecompose(in_shape(0), axis, &geom.outer, &dummy_mid,
                      &geom.inner);
        geom.mid = shape.dim(axis);
        for (size_t i = 0; i < node->inputs.size(); ++i) {
          geom.aux.push_back(in_shape(i).dim(axis));
        }
        break;
      }
      case ag::OpKind::kSlice:
        AxisDecompose(in_shape(0), static_cast<int>(node->attrs.i0),
                      &geom.outer, &geom.mid, &geom.inner);
        break;
      default:
        return Status::InvalidArgument(
            std::string("op not plannable: ") + node->op_name);
    }

    buffer.loc = BufLoc::kArena;
    const int32_t out_idx = add_buffer(std::move(buffer));
    buf_of[node] = out_idx;
    step.out = out_idx;

    if (scratch_elems > 0) {
      PlanBuffer scratch;
      scratch.loc = BufLoc::kArena;
      scratch.elems = scratch_elems;
      step.scratch = add_buffer(std::move(scratch));
    }

    plan.steps.push_back(std::move(step));
  }

  plan.root = buf_of.at(root.node().get());
  LayoutArena(&plan);
  return plan;
}

void LayoutArena(Plan* plan) {
  // Per-arena-buffer lifetime recomputed from the step list: [birth_step,
  // last_step] inclusive; the root's last_step is pinned past the end so no
  // step recycles its storage. Buffers no live step touches (folded away by
  // SpecializePlan) get offset 0 and contribute nothing to the arena.
  const size_t nbuf = plan->buffers.size();
  std::vector<int64_t> birth(nbuf, -1);
  std::vector<int64_t> last_use(nbuf, -1);

  auto resolve_base = [&](int32_t idx) {
    while (plan->buffers[idx].loc == BufLoc::kAlias) {
      idx = plan->buffers[idx].alias_of;
    }
    return idx;
  };

  auto touch = [&](int32_t idx, int64_t step_index, bool is_birth) {
    const int32_t base = resolve_base(idx);
    if (plan->buffers[base].loc != BufLoc::kArena) return;
    if (is_birth && birth[base] < 0) birth[base] = step_index;
    last_use[base] = std::max(last_use[base], step_index);
  };

  for (size_t s = 0; s < plan->steps.size(); ++s) {
    const Step& step = plan->steps[s];
    const int64_t si = static_cast<int64_t>(s);
    touch(step.out, si, /*is_birth=*/true);
    if (step.scratch >= 0) touch(step.scratch, si, /*is_birth=*/true);
    for (const int32_t in_idx : step.in) touch(in_idx, si, false);
  }
  if (plan->root >= 0) {
    const int32_t base = resolve_base(plan->root);
    if (plan->buffers[base].loc == BufLoc::kArena) {
      last_use[base] = static_cast<int64_t>(plan->steps.size());
    }
  }

  // Greedy first-fit layout over exact lifetimes: place buffers in index
  // (≈ birth) order at the lowest 64-byte-aligned offset whose previous
  // occupants' lifetimes are all disjoint from this one.
  struct Placed {
    int64_t offset;
    int64_t end;  ///< offset + aligned size.
    int64_t birth;
    int64_t death;
  };
  std::vector<Placed> placed;
  plan->arena_elems = 0;
  for (size_t i = 0; i < nbuf; ++i) {
    PlanBuffer& buffer = plan->buffers[i];
    if (buffer.loc != BufLoc::kArena) continue;
    if (birth[i] < 0) {
      buffer.arena_offset = 0;  // Dead: never read or written.
      continue;
    }
    const int64_t size = AlignUp(std::max<int64_t>(buffer.elems, 1));
    const int64_t b = birth[i];
    const int64_t d = last_use[i];
    int64_t offset = 0;
    for (bool moved = true; moved;) {
      moved = false;
      for (const Placed& p : placed) {
        const bool overlaps_life = b <= p.death && p.birth <= d;
        const bool overlaps_space = offset < p.end && p.offset < offset + size;
        if (overlaps_life && overlaps_space) {
          offset = p.end;  // Skip past this occupant and rescan.
          moved = true;
        }
      }
    }
    buffer.arena_offset = offset;
    placed.push_back({offset, offset + size, b, d});
    plan->arena_elems = std::max(plan->arena_elems, offset + size);
  }
}

}  // namespace musenet::infer
