// Fault-tolerance building blocks: CRC32, atomic file I/O, the fault
// injector, container-v2 corruption detection, packed-word records,
// optimizer state round trips and LoadStateDict diagnostics. The end-to-end
// checkpoint/resume behavior of the training loop lives in
// train_resume_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "nn/conv.h"
#include "optim/adam.h"
#include "optim/optimizer.h"
#include "sim/flow_series.h"
#include "sim/serialize.h"
#include "tensor/serialize.h"
#include "tensor/tensor_ops.h"
#include "util/crc32.h"
#include "util/fault_injector.h"
#include "util/io.h"
#include "util/rng.h"

namespace musenet {
namespace {

namespace ag = musenet::autograd;
namespace ts = musenet::tensor;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  auto contents = util::ReadFileToString(path);
  EXPECT_TRUE(contents.ok()) << contents.status().ToString();
  return std::move(contents).value_or(std::string());
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// RAII: make sure a test leaves the process-wide injector disarmed.
struct InjectorGuard {
  InjectorGuard() { util::FaultInjector::Instance().Reset(); }
  ~InjectorGuard() { util::FaultInjector::Instance().Reset(); }
};

// --- CRC32 -----------------------------------------------------------------------------

TEST(Crc32Test, MatchesKnownVector) {
  // The classic CRC-32/IEEE check value.
  const char* data = "123456789";
  EXPECT_EQ(util::Crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(util::Crc32("", 0), 0u); }

TEST(Crc32Test, SeedChainsAcrossSplits) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = util::Crc32(data.data(), data.size());
  for (size_t split : {size_t{1}, size_t{7}, data.size() - 1}) {
    const uint32_t first = util::Crc32(data.data(), split);
    const uint32_t chained =
        util::Crc32(data.data() + split, data.size() - split, first);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(1024, 'x');
  const uint32_t clean = util::Crc32(data.data(), data.size());
  data[513] ^= 0x20;
  EXPECT_NE(util::Crc32(data.data(), data.size()), clean);
}

// --- Atomic file I/O -------------------------------------------------------------------

TEST(AtomicIoTest, WriteReadRoundTrip) {
  const std::string path = TempPath("atomic_roundtrip.bin");
  std::string payload = "hello\0world";
  payload.push_back('\xff');
  ASSERT_TRUE(util::AtomicWriteFile(path, payload).ok());
  EXPECT_EQ(Slurp(path), payload);
}

TEST(AtomicIoTest, OverwriteReplacesContents) {
  const std::string path = TempPath("atomic_overwrite.bin");
  ASSERT_TRUE(util::AtomicWriteFile(path, "old contents").ok());
  ASSERT_TRUE(util::AtomicWriteFile(path, "new").ok());
  EXPECT_EQ(Slurp(path), "new");
}

TEST(AtomicIoTest, ReadMissingFileIsIoError) {
  auto result = util::ReadFileToString(TempPath("does_not_exist.bin"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(AtomicIoTest, InjectedTruncationLeavesPrefix) {
  InjectorGuard guard;
  const std::string path = TempPath("atomic_truncated.bin");
  const std::string payload(100, 'a');
  util::FaultInjector::Instance().ArmWriteFault(
      util::FaultInjector::WriteFault::kTruncate);
  ASSERT_TRUE(util::AtomicWriteFile(path, payload).ok());
  const std::string on_disk = Slurp(path);
  EXPECT_LT(on_disk.size(), payload.size());
  EXPECT_EQ(on_disk, payload.substr(0, on_disk.size()));
  EXPECT_EQ(util::FaultInjector::Instance().stats().write_faults, 1);
}

TEST(AtomicIoTest, InjectedBitFlipCorruptsOneByte) {
  InjectorGuard guard;
  const std::string path = TempPath("atomic_bitflip.bin");
  const std::string payload(64, 'b');
  util::FaultInjector::Instance().ArmWriteFault(
      util::FaultInjector::WriteFault::kBitFlip);
  ASSERT_TRUE(util::AtomicWriteFile(path, payload).ok());
  const std::string on_disk = Slurp(path);
  ASSERT_EQ(on_disk.size(), payload.size());
  int diffs = 0;
  for (size_t i = 0; i < payload.size(); ++i) diffs += on_disk[i] != payload[i];
  EXPECT_EQ(diffs, 1);
}

TEST(AtomicIoTest, InjectedCrashLeavesOldFileIntact) {
  InjectorGuard guard;
  const std::string path = TempPath("atomic_crash.bin");
  ASSERT_TRUE(util::AtomicWriteFile(path, "previous checkpoint").ok());
  util::FaultInjector::Instance().ArmWriteFault(
      util::FaultInjector::WriteFault::kCrashBeforeRename);
  const Status status = util::AtomicWriteFile(path, "torn new checkpoint");
  EXPECT_FALSE(status.ok());
  // The destination still holds the complete previous contents.
  EXPECT_EQ(Slurp(path), "previous checkpoint");
}

TEST(AtomicIoTest, InjectedAllocFailureIsDescriptiveIoError) {
  InjectorGuard guard;
  const std::string path = TempPath("atomic_alloc.bin");
  ASSERT_TRUE(util::AtomicWriteFile(path, "payload").ok());
  util::FaultInjector::Instance().ArmAllocFailure();
  auto result = util::ReadFileToString(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("allocation"), std::string::npos)
      << result.status().ToString();
  // One-shot: the next read succeeds.
  EXPECT_TRUE(util::ReadFileToString(path).ok());
}

// --- Fault injector --------------------------------------------------------------------

TEST(FaultInjectorTest, NanGradientFiresExactlyOnceAtArmedStep) {
  InjectorGuard guard;
  auto& injector = util::FaultInjector::Instance();
  injector.ArmNanGradient(3);
  EXPECT_FALSE(injector.TakeNanGradient(2));
  EXPECT_TRUE(injector.TakeNanGradient(3));
  EXPECT_FALSE(injector.TakeNanGradient(3));
  EXPECT_FALSE(injector.TakeNanGradient(4));
  EXPECT_EQ(injector.stats().nan_grads, 1);
}

TEST(FaultInjectorTest, WriteFaultCountsDownToArmedCall) {
  InjectorGuard guard;
  auto& injector = util::FaultInjector::Instance();
  injector.ArmWriteFault(util::FaultInjector::WriteFault::kBitFlip,
                         /*at_write=*/2);
  EXPECT_EQ(injector.TakeWriteFault(),
            util::FaultInjector::WriteFault::kNone);
  EXPECT_EQ(injector.TakeWriteFault(),
            util::FaultInjector::WriteFault::kBitFlip);
  EXPECT_EQ(injector.TakeWriteFault(),
            util::FaultInjector::WriteFault::kNone);
}

TEST(FaultInjectorTest, ResetDisarmsEverything) {
  InjectorGuard guard;
  auto& injector = util::FaultInjector::Instance();
  injector.ArmNanGradient(0);
  injector.ArmAllocFailure();
  injector.Reset();
  EXPECT_FALSE(injector.armed());
  EXPECT_FALSE(injector.TakeNanGradient(0));
  EXPECT_FALSE(injector.TakeAllocFailure());
}

TEST(FaultInjectorTest, ParseWriteFaultNames) {
  EXPECT_EQ(util::ParseWriteFault("truncate"),
            util::FaultInjector::WriteFault::kTruncate);
  EXPECT_EQ(util::ParseWriteFault("bitflip"),
            util::FaultInjector::WriteFault::kBitFlip);
  EXPECT_EQ(util::ParseWriteFault("crash"),
            util::FaultInjector::WriteFault::kCrashBeforeRename);
  EXPECT_EQ(util::ParseWriteFault("nonsense"),
            util::FaultInjector::WriteFault::kNone);
}

// --- Container v2: integrity checks ----------------------------------------------------

std::map<std::string, ts::Tensor> SampleTensors() {
  std::map<std::string, ts::Tensor> tensors;
  Rng rng(11);
  tensors.emplace("weights", ts::Tensor::RandomNormal(ts::Shape({4, 3}), rng));
  tensors.emplace("bias", ts::Tensor::RandomNormal(ts::Shape({3}), rng));
  return tensors;
}

TEST(ContainerV2Test, SaveLoadRoundTrip) {
  const std::string path = TempPath("container_roundtrip.muse");
  const auto tensors = SampleTensors();
  ASSERT_TRUE(ts::SaveTensors(path, tensors).ok());
  auto loaded = ts::LoadTensors(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), tensors.size());
  for (const auto& [name, tensor] : tensors) {
    ASSERT_TRUE(loaded->count(name)) << name;
    EXPECT_EQ(0, std::memcmp(loaded->at(name).data(), tensor.data(),
                             sizeof(float) * tensor.num_elements()));
  }
}

TEST(ContainerV2Test, WrongMagicIsDescriptiveError) {
  const std::string path = TempPath("container_magic.muse");
  ASSERT_TRUE(ts::SaveTensors(path, SampleTensors()).ok());
  std::string bytes = Slurp(path);
  bytes[0] = 'X';
  WriteRaw(path, bytes);
  auto loaded = ts::LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos)
      << loaded.status().ToString();
}

TEST(ContainerV2Test, FutureVersionIsDescriptiveError) {
  const std::string path = TempPath("container_future.muse");
  ASSERT_TRUE(ts::SaveTensors(path, SampleTensors()).ok());
  std::string bytes = Slurp(path);
  const uint32_t future = 99;
  std::memcpy(bytes.data() + 8, &future, sizeof(future));
  WriteRaw(path, bytes);
  auto loaded = ts::LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unsupported container version"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(ContainerV2Test, TruncationMidTensorIsDescriptiveError) {
  const std::string path = TempPath("container_truncated.muse");
  ASSERT_TRUE(ts::SaveTensors(path, SampleTensors()).ok());
  std::string bytes = Slurp(path);
  // Chop the file at every prefix length and require a non-OK descriptive
  // status each time — loading must never crash or succeed on a prefix.
  for (size_t len : {bytes.size() - 1, bytes.size() - sizeof(float),
                     bytes.size() / 2, size_t{21}, size_t{9}, size_t{3}}) {
    WriteRaw(path, bytes.substr(0, len));
    auto loaded = ts::LoadTensors(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
    EXPECT_FALSE(loaded.status().message().empty());
  }
}

TEST(ContainerV2Test, FlippedPayloadByteFailsPayloadCrc) {
  const std::string path = TempPath("container_bitrot.muse");
  ASSERT_TRUE(ts::SaveTensors(path, SampleTensors()).ok());
  std::string bytes = Slurp(path);
  bytes[bytes.size() - 2] ^= 0x40;  // Inside the last tensor's payload.
  WriteRaw(path, bytes);
  auto loaded = ts::LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("payload CRC mismatch"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(ContainerV2Test, FlippedNameByteFailsMetadataCrc) {
  const std::string path = TempPath("container_headerrot.muse");
  std::map<std::string, ts::Tensor> tensors;
  tensors.emplace("zzz_name", ts::PackWords({1, 2, 3}));
  ASSERT_TRUE(ts::SaveTensors(path, tensors).ok());
  std::string bytes = Slurp(path);
  const size_t name_pos = bytes.find("zzz_name");
  ASSERT_NE(name_pos, std::string::npos);
  bytes[name_pos] ^= 0x01;
  WriteRaw(path, bytes);
  auto loaded = ts::LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("metadata CRC mismatch"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(ContainerV2Test, LegacyV1FileStillLoads) {
  // Hand-written v1 container (no CRC fields): magic, version=1, count=1,
  // then name_len/name/rank/dims/payload.
  std::string bytes = "MUSETNSR";
  auto append_pod = [&bytes](const auto& value) {
    const char* p = reinterpret_cast<const char*>(&value);
    bytes.append(p, p + sizeof(value));
  };
  append_pod(uint32_t{1});  // version
  append_pod(uint64_t{1});  // count
  const std::string name = "legacy";
  append_pod(static_cast<uint64_t>(name.size()));
  bytes += name;
  append_pod(uint32_t{1});  // rank
  append_pod(int64_t{3});   // dims[0]
  for (float v : {1.5f, -2.0f, 0.25f}) append_pod(v);

  const std::string path = TempPath("container_legacy_v1.muse");
  WriteRaw(path, bytes);
  auto loaded = ts::LoadTensors(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->count("legacy"));
  const ts::Tensor& tensor = loaded->at("legacy");
  EXPECT_EQ(tensor.shape(), ts::Shape({3}));
  EXPECT_FLOAT_EQ(tensor.flat(0), 1.5f);
  EXPECT_FLOAT_EQ(tensor.flat(2), 0.25f);
}

TEST(ContainerV2Test, CrashDuringSaveKeepsPreviousCheckpoint) {
  InjectorGuard guard;
  const std::string path = TempPath("container_crash.muse");
  auto tensors = SampleTensors();
  ASSERT_TRUE(ts::SaveTensors(path, tensors).ok());
  util::FaultInjector::Instance().ArmWriteFault(
      util::FaultInjector::WriteFault::kCrashBeforeRename);
  std::map<std::string, ts::Tensor> other;
  other.emplace("other", ts::PackWords({7}));
  EXPECT_FALSE(ts::SaveTensors(path, other).ok());
  // The old container is still complete and valid.
  auto loaded = ts::LoadTensors(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->count("weights"));
}

// --- Packed words ----------------------------------------------------------------------

TEST(PackedWordsTest, RoundTripsArbitraryBitPatterns) {
  // Includes patterns that read as NaN/Inf when viewed as f32 — packing must
  // be pure bit transport.
  const std::vector<uint32_t> words = {0u, 1u, 0x7FC00000u /*qNaN*/,
                                       0x7F800000u /*+Inf*/, 0xFFFFFFFFu,
                                       0xDEADBEEFu};
  auto unpacked = ts::UnpackWords(ts::PackWords(words));
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(*unpacked, words);
}

TEST(PackedWordsTest, RoundTrips64BitPatternsThroughFile) {
  const std::vector<uint64_t> words = {0ull, ~0ull, 0x7FF8000000000000ull,
                                       0x0123456789ABCDEFull};
  const std::string path = TempPath("packed_words64.muse");
  std::map<std::string, ts::Tensor> tensors;
  tensors.emplace("words", ts::PackWords64(words));
  ASSERT_TRUE(ts::SaveTensors(path, tensors).ok());
  auto loaded = ts::LoadTensors(path);
  ASSERT_TRUE(loaded.ok());
  auto unpacked = ts::UnpackWords64(loaded->at("words"));
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(*unpacked, words);
}

TEST(PackedWordsTest, RejectsWrongRank) {
  EXPECT_FALSE(ts::UnpackWords(ts::Tensor::Zeros(ts::Shape({2, 2}))).ok());
}

// --- CountNonFinite --------------------------------------------------------------------

TEST(CountNonFiniteTest, CleanTensorReportsZero) {
  Rng rng(3);
  const auto report =
      ts::CountNonFinite(ts::Tensor::RandomNormal(ts::Shape({1000}), rng));
  EXPECT_EQ(report.count, 0);
  EXPECT_EQ(report.first_index, -1);
}

TEST(CountNonFiniteTest, FindsCountAndFirstIndex) {
  ts::Tensor t = ts::Tensor::Zeros(ts::Shape({100000}));
  t.mutable_data()[41] = std::numeric_limits<float>::quiet_NaN();
  t.mutable_data()[70000] = -std::numeric_limits<float>::infinity();
  const auto report = ts::CountNonFinite(t);
  EXPECT_EQ(report.count, 2);
  EXPECT_EQ(report.first_index, 41);
}

// --- RNG state -------------------------------------------------------------------------

TEST(RngStateTest, SaveLoadResumesStreamExactly) {
  Rng rng(42);
  for (int i = 0; i < 7; ++i) rng.Normal(0.0, 1.0);  // Leave a cached draw.
  const std::vector<uint64_t> snapshot = rng.SaveState();
  std::vector<double> expected;
  for (int i = 0; i < 16; ++i) expected.push_back(rng.Normal(0.0, 1.0));

  Rng restored(1);  // Different seed; state comes from the snapshot.
  ASSERT_TRUE(restored.LoadState(snapshot));
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(restored.Normal(0.0, 1.0), expected[static_cast<size_t>(i)]);
  }
}

TEST(RngStateTest, LoadRejectsWrongLength) {
  Rng rng(1);
  EXPECT_FALSE(rng.LoadState({1, 2, 3}));
}

// --- Optimizer state round trips -------------------------------------------------------

/// Runs `steps` quadratic-loss steps on a fresh two-parameter problem.
template <typename Opt>
void RunSteps(Opt& opt, std::vector<ag::Variable>& params, int steps) {
  for (int i = 0; i < steps; ++i) {
    ag::Variable loss = ag::SumAll(ag::Square(params[0]));
    for (size_t j = 1; j < params.size(); ++j) {
      loss = ag::Add(loss, ag::SumAll(ag::Square(params[j])));
    }
    opt.ZeroGrad();
    ag::Backward(loss);
    opt.Step();
  }
}

std::vector<ag::Variable> MakeParams() {
  Rng rng(5);
  return {
      ag::Variable(ts::Tensor::RandomNormal(ts::Shape({8, 3}), rng), true),
      ag::Variable(ts::Tensor::RandomNormal(ts::Shape({17}), rng), true)};
}

template <typename MakeOpt>
void ExpectOptimizerResumeBitExact(MakeOpt make_opt) {
  // Continuous run: N steps.
  auto params_a = MakeParams();
  auto opt_a = make_opt(params_a);
  RunSteps(*opt_a, params_a, 6);

  // Interrupted run: k steps, serialize through a file, fresh optimizer,
  // N-k steps.
  auto params_b = MakeParams();
  auto opt_b = make_opt(params_b);
  RunSteps(*opt_b, params_b, 4);
  const std::string path = TempPath(std::string("optim_state_") +
                                    std::string(opt_b->kind()) + ".muse");
  ASSERT_TRUE(ts::SaveTensors(path, opt_b->StateTensors()).ok());
  auto opt_c = make_opt(params_b);  // Same (already-stepped) parameters.
  auto loaded = ts::LoadTensors(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(opt_c->LoadStateTensors(*loaded).ok());
  RunSteps(*opt_c, params_b, 2);

  for (size_t i = 0; i < params_a.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(params_a[i].value().data(),
                             params_b[i].value().data(),
                             sizeof(float) *
                                 params_a[i].value().num_elements()))
        << "param " << i << " diverged after resume";
  }
}

TEST(OptimizerStateTest, AdamResumeIsBitExact) {
  ExpectOptimizerResumeBitExact([](std::vector<ag::Variable>& params) {
    return std::make_unique<optim::Adam>(params, 0.05);
  });
}

TEST(OptimizerStateTest, AdamRejectsMissingAndMisshapenRecords) {
  auto params = MakeParams();
  optim::Adam adam(params, 0.05);
  auto state = adam.StateTensors();
  ASSERT_TRUE(state.count("step"));

  auto missing = state;
  missing.erase("m/0000");
  EXPECT_FALSE(adam.LoadStateTensors(missing).ok());

  auto misshapen = state;
  misshapen.at("v/0001") = ts::Tensor::Zeros(ts::Shape({2}));
  EXPECT_FALSE(adam.LoadStateTensors(misshapen).ok());

  auto no_step = state;
  no_step.erase("step");
  EXPECT_FALSE(adam.LoadStateTensors(no_step).ok());

  // The intact state still loads after the rejected attempts.
  EXPECT_TRUE(adam.LoadStateTensors(state).ok());
}

TEST(OptimizerStateTest, CheckGradsFiniteNamesOffendingParameter) {
  auto params = MakeParams();
  ag::Variable loss = ag::Add(ag::SumAll(ag::Square(params[0])),
                              ag::SumAll(ag::Square(params[1])));
  ag::Backward(loss);
  EXPECT_TRUE(optim::CheckGradsFinite(params).ok());
  params[1].node()->grad.mutable_data()[3] =
      std::numeric_limits<float>::infinity();
  const Status status = optim::CheckGradsFinite(params);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("parameter 1"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("flat index 3"), std::string::npos)
      << status.ToString();
}

// --- LoadStateDict diagnostics ---------------------------------------------------------

TEST(StateDictDiagnosticsTest, ReportsMissingExtraAndMismatched) {
  Rng rng(2);
  nn::Conv2d conv(3, 4, rng, nn::Conv2d::Options{});
  const auto good = conv.StateDict();
  ASSERT_FALSE(good.empty());

  auto bad = good;
  const std::string dropped = bad.begin()->first;
  bad.erase(bad.begin());
  bad.emplace("bogus_extra", ts::PackWords({1}));
  auto mismatch_it = bad.begin();
  ++mismatch_it;  // Skip "bogus_extra" (map order) if it landed first.
  while (mismatch_it != bad.end() && mismatch_it->first == "bogus_extra") {
    ++mismatch_it;
  }
  ASSERT_NE(mismatch_it, bad.end());
  const std::string reshaped = mismatch_it->first;
  mismatch_it->second = ts::Tensor::Zeros(ts::Shape({1, 1, 1}));

  const Status status = conv.LoadStateDict(bad);
  ASSERT_FALSE(status.ok());
  const std::string& msg = status.message();
  EXPECT_NE(msg.find("missing"), std::string::npos) << msg;
  EXPECT_NE(msg.find(dropped), std::string::npos) << msg;
  EXPECT_NE(msg.find("extra"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bogus_extra"), std::string::npos) << msg;
  EXPECT_NE(msg.find("shape mismatch"), std::string::npos) << msg;
  EXPECT_NE(msg.find(reshaped), std::string::npos) << msg;

  // The failed load left the model untouched: the good dict still matches
  // the model's current state exactly.
  const auto after = conv.StateDict();
  for (const auto& [name, tensor] : good) {
    ASSERT_TRUE(after.count(name));
    EXPECT_EQ(0, std::memcmp(after.at(name).data(), tensor.data(),
                             sizeof(float) * tensor.num_elements()))
        << name;
  }
}

// --- Dataset cache integrity -----------------------------------------------------------

sim::FlowSeries TinyFlows() {
  sim::FlowSeries flows(sim::GridSpec{2, 3}, 24, 1, 48);
  for (int64_t t = 0; t < flows.num_intervals(); ++t) {
    for (int flow = 0; flow < 2; ++flow) {
      for (int64_t h = 0; h < 2; ++h) {
        for (int64_t w = 0; w < 3; ++w) {
          flows.at(t, flow, h, w) = static_cast<float>(t + flow + h + w);
        }
      }
    }
  }
  return flows;
}

TEST(FlowCacheTest, CorruptedCacheIsDescriptiveErrorNotGarbageData) {
  const std::string path = TempPath("flow_cache.bin");
  ASSERT_TRUE(sim::SaveFlowSeries(path, TinyFlows()).ok());
  ASSERT_TRUE(sim::LoadFlowSeries(path).ok());

  std::string bytes = Slurp(path);
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x08;
  WriteRaw(path, flipped);
  auto corrupt = sim::LoadFlowSeries(path);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_FALSE(corrupt.status().message().empty());

  WriteRaw(path, bytes.substr(0, bytes.size() * 2 / 3));
  auto truncated = sim::LoadFlowSeries(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("truncated"),
            std::string::npos)
      << truncated.status().ToString();
}

}  // namespace
}  // namespace musenet
