// Regression coverage for the pooled-storage / fused training path:
// (a) the StoragePool recycles buffers (steady-state training performs
// almost no fresh allocations) and honours its disable escape hatch;
// (b) the fused kernels (AddInPlace, BiasAct, MulAdd, fused Adam) are
// bit-exact against their unfused compositions;
// (c) end-to-end training produces byte-identical checkpoints with the pool
// on or off, and at 1 or 4 threads.

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "data/dataset.h"
#include "eval/forecaster.h"
#include "muse/model.h"
#include "obs/metrics.h"
#include "optim/adam.h"
#include "sim/flow_series.h"
#include "tensor/storage_pool.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace musenet {
namespace {

namespace ag = musenet::autograd;
namespace ts = musenet::tensor;
using musenet::util::ScopedActivePool;
using musenet::util::ThreadPool;

bool BytesEqual(const ts::Tensor& a, const ts::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.num_elements()) * sizeof(float)) ==
             0;
}

ts::Tensor Random(const ts::Shape& shape, uint64_t seed, float lo = -1.0f,
                  float hi = 1.0f) {
  Rng rng(seed);
  return ts::Tensor::RandomUniform(shape, rng, lo, hi);
}

// --- StoragePool unit behaviour ---------------------------------------------

TEST(StoragePoolTest, ReleaseThenAcquireReusesBuffer) {
  ts::StoragePool& pool = ts::StoragePool::Instance();
  if (!pool.enabled()) GTEST_SKIP() << "MUSENET_DISABLE_POOL is set";
  pool.Trim();
  pool.ResetStats();

  std::vector<float> buf = pool.Acquire(1000, /*zero=*/true);
  const float* raw = buf.data();
  pool.Release(std::move(buf));
  // Same size class (ceil log2) — must come back from the free list.
  std::vector<float> again = pool.Acquire(900, /*zero=*/false);
  EXPECT_EQ(again.data(), raw);
  const obs::MetricsSnapshot snap = obs::Registry::Instance().Snapshot();
  EXPECT_EQ(snap.counters.at("tensor.pool.fresh_allocs"), 1);
  EXPECT_EQ(snap.counters.at("tensor.pool.reuses"), 1);
  pool.Release(std::move(again));
}

TEST(StoragePoolTest, AcquireZeroFillsRecycledBuffer) {
  ts::StoragePool& pool = ts::StoragePool::Instance();
  std::vector<float> buf = pool.Acquire(64, /*zero=*/false);
  for (float& v : buf) v = 42.0f;
  pool.Release(std::move(buf));
  std::vector<float> zeroed = pool.Acquire(64, /*zero=*/true);
  for (float v : zeroed) EXPECT_EQ(v, 0.0f);
  pool.Release(std::move(zeroed));
}

TEST(StoragePoolTest, ScopedDisableIsHeapPassThrough) {
  ts::StoragePool& pool = ts::StoragePool::Instance();
  if (!pool.enabled()) GTEST_SKIP() << "MUSENET_DISABLE_POOL is set";
  pool.Trim();
  {
    ts::ScopedPoolDisable guard;
    EXPECT_FALSE(pool.enabled());
    std::vector<float> buf = pool.Acquire(4096, /*zero=*/false);
    pool.Release(std::move(buf));
    // Released while disabled — freed, not parked.
    EXPECT_DOUBLE_EQ(obs::Registry::Instance().Snapshot().gauges.at(
                         "tensor.pool.bytes_pooled"),
                     0.0);
  }
  EXPECT_TRUE(pool.enabled());
}

TEST(StoragePoolTest, SteadyStateTrainingStopsAllocating) {
  ts::StoragePool& pool = ts::StoragePool::Instance();
  if (!pool.enabled()) GTEST_SKIP() << "MUSENET_DISABLE_POOL is set";

  muse::MuseNetConfig config;
  config.grid_h = 4;
  config.grid_w = 4;
  config.repr_dim = 4;
  config.dist_dim = 8;
  config.resplus_blocks = 1;
  muse::MuseNet model(config, 3);
  optim::Adam optimizer(model.Parameters(), 1e-3);

  data::Batch batch;
  batch.closeness = Random(
      ts::Shape({4, config.periodicity.ClosenessChannels(), 4, 4}), 11);
  batch.period =
      Random(ts::Shape({4, config.periodicity.PeriodChannels(), 4, 4}), 12);
  batch.trend =
      Random(ts::Shape({4, config.periodicity.TrendChannels(), 4, 4}), 13);
  batch.target = Random(ts::Shape({4, 2, 4, 4}), 14);

  auto step = [&] {
    auto result = model.Forward(batch, /*stochastic=*/true);
    ag::Variable loss = model.ComputeLoss(result, batch, nullptr);
    model.ZeroGrad();
    ag::Backward(loss);
    optimizer.Step();
    ag::ReleaseGraph(loss);
  };

  for (int i = 0; i < 3; ++i) step();  // Warm the free lists.
  pool.ResetStats();
  for (int i = 0; i < 3; ++i) step();
  const obs::MetricsSnapshot snap = obs::Registry::Instance().Snapshot();
  EXPECT_GT(snap.counters.at("tensor.pool.reuses"), 100);
  // Steady state: every buffer the step needs was parked by a prior step.
  EXPECT_LE(snap.counters.at("tensor.pool.fresh_allocs"), 5);
}

// --- Fused kernels: bit-exact against unfused compositions ------------------

TEST(FusedOpsTest, AddInPlaceMatchesAdd) {
  const ts::Shape shape({7, 33});
  ts::Tensor a = Random(shape, 21);
  ts::Tensor b = Random(shape, 22);
  ts::Tensor expected = ts::Add(a, b);
  ts::Tensor in_place = a;  // Value semantics: private copy.
  ts::AddInPlace(in_place, b);
  EXPECT_TRUE(BytesEqual(in_place, expected));
}

TEST(FusedOpsTest, MulAddMatchesMulThenAdd) {
  // MulAdd(a, b, c) = a + b·c (the reparameterization mu + sigma·eps).
  const ts::Shape shape({5, 17, 3});
  ts::Tensor a = Random(shape, 31);
  ts::Tensor b = Random(shape, 32);
  ts::Tensor c = Random(shape, 33);
  EXPECT_TRUE(BytesEqual(ts::MulAdd(a, b, c), ts::Add(a, ts::Mul(b, c))));
}

TEST(FusedOpsTest, BiasActMatchesUnfusedChain) {
  const ts::Shape shape({6, 5, 4, 4});
  ts::Tensor x = Random(shape, 41);
  ts::Tensor bias = Random(ts::Shape({1, 5, 1, 1}), 42);
  ts::Tensor pre = ts::Add(x, bias);

  EXPECT_TRUE(BytesEqual(ts::BiasAct(x, bias, ts::ActKind::kIdentity), pre));
  EXPECT_TRUE(BytesEqual(ts::BiasAct(x, bias, ts::ActKind::kLeakyRelu),
                         ts::LeakyRelu(pre)));
  EXPECT_TRUE(BytesEqual(ts::BiasAct(x, bias, ts::ActKind::kTanh),
                         ts::Tanh(pre)));
}

TEST(FusedOpsTest, BiasActivationGradientsMatchUnfusedGraph) {
  const ts::Shape shape({3, 4, 2, 2});
  ts::Tensor xv = Random(shape, 51);
  ts::Tensor bv = Random(ts::Shape({1, 4, 1, 1}), 52, -0.5f, 0.5f);

  ag::Variable x1(xv, /*requires_grad=*/true);
  ag::Variable b1(bv, /*requires_grad=*/true);
  ag::Variable fused = ag::BiasActivation(x1, b1, ts::ActKind::kTanh);
  ag::Backward(ag::SumAll(ag::Mul(fused, fused)));

  ag::Variable x2(xv, /*requires_grad=*/true);
  ag::Variable b2(bv, /*requires_grad=*/true);
  ag::Variable unfused = ag::Tanh(ag::Add(x2, b2));
  ag::Backward(ag::SumAll(ag::Mul(unfused, unfused)));

  EXPECT_TRUE(BytesEqual(fused.value(), unfused.value()));
  ASSERT_TRUE(x1.has_grad() && x2.has_grad());
  EXPECT_TRUE(x1.grad().AllClose(x2.grad(), 1e-6f, 1e-6f));
  ASSERT_TRUE(b1.has_grad() && b2.has_grad());
  EXPECT_TRUE(b1.grad().AllClose(b2.grad(), 1e-6f, 1e-6f));
}

TEST(FusedOpsTest, AdamStepIdenticalAcrossThreadCounts) {
  // Big enough to cross the parallel threshold so 4 threads really split it.
  const ts::Shape shape({64, 1024});
  ts::Tensor init = Random(shape, 61);
  ts::Tensor grad = Random(shape, 62, -0.1f, 0.1f);

  auto run = [&](int threads) {
    ThreadPool pool(threads);
    ScopedActivePool scope(&pool);
    ag::Variable param(init, /*requires_grad=*/true);
    optim::Adam adam({param}, 1e-3);
    for (int s = 0; s < 3; ++s) {
      param.ZeroGrad();
      ag::AccumulateGrad(*param.node(), ts::Tensor(grad));
      adam.Step();
    }
    return param.value();
  };

  ts::Tensor one = run(1);
  ts::Tensor four = run(4);
  EXPECT_TRUE(BytesEqual(one, four));
  EXPECT_FALSE(BytesEqual(one, init));  // The step actually moved.
}

// --- End-to-end checkpoint byte-identity ------------------------------------

data::TrafficDataset TinyDataset() {
  const int f = 24;
  sim::FlowSeries flows(sim::GridSpec{3, 4}, f, 0, 10 * f);
  Rng noise(5);
  for (int64_t t = 0; t < flows.num_intervals(); ++t) {
    const double base =
        5.0 + 4.0 * std::sin(2.0 * M_PI * flows.IntervalOfDay(t) / f);
    for (int flow = 0; flow < 2; ++flow) {
      for (int64_t h = 0; h < 3; ++h) {
        for (int64_t w = 0; w < 4; ++w) {
          flows.at(t, flow, h, w) =
              static_cast<float>(std::max(0.0, base + noise.Normal(0, 0.5)));
        }
      }
    }
  }
  data::DatasetOptions options;
  options.spec = data::PeriodicitySpec{.len_closeness = 2, .len_period = 2,
                                       .len_trend = 1};
  options.test_days = 2;
  return data::TrafficDataset(std::move(flows), options);
}

std::map<std::string, ts::Tensor> TrainTinyModel() {
  data::TrafficDataset ds = TinyDataset();
  muse::MuseNetConfig config;
  config.grid_h = 3;
  config.grid_w = 4;
  config.periodicity = data::PeriodicitySpec{.len_closeness = 2,
                                             .len_period = 2, .len_trend = 1};
  config.repr_dim = 4;
  config.dist_dim = 8;
  config.resplus_blocks = 1;
  muse::MuseNet model(config, 2);
  eval::TrainConfig tc;
  tc.epochs = 2;
  tc.learning_rate = 1e-3;
  model.Train(ds, tc);
  return model.StateDict();
}

void ExpectStateDictsIdentical(const std::map<std::string, ts::Tensor>& a,
                               const std::map<std::string, ts::Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [name, tensor] : a) {
    auto it = b.find(name);
    ASSERT_NE(it, b.end()) << name;
    EXPECT_TRUE(BytesEqual(tensor, it->second)) << name << " differs";
  }
}

TEST(CheckpointIdentityTest, PooledMatchesUnpooled) {
  if (!ts::StoragePool::Instance().enabled()) {
    GTEST_SKIP() << "MUSENET_DISABLE_POOL is set — nothing to compare";
  }
  auto pooled = TrainTinyModel();
  std::map<std::string, ts::Tensor> unpooled;
  {
    ts::ScopedPoolDisable guard;
    unpooled = TrainTinyModel();
  }
  ExpectStateDictsIdentical(pooled, unpooled);
}

TEST(CheckpointIdentityTest, OneThreadMatchesFourThreads) {
  std::map<std::string, ts::Tensor> one, four;
  {
    ThreadPool pool(1);
    ScopedActivePool scope(&pool);
    one = TrainTinyModel();
  }
  {
    ThreadPool pool(4);
    ScopedActivePool scope(&pool);
    four = TrainTinyModel();
  }
  ExpectStateDictsIdentical(one, four);
}

}  // namespace
}  // namespace musenet
