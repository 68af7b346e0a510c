// Tests for the incremental experiment pipeline: content-key stability,
// minimal invalidation (one edited field reruns only downstream stages),
// early cutoff, corrupt-cache tolerance, parallel determinism, cooperative
// cancellation with resume, and flow-file provenance checking.

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "eval/forecaster.h"
#include "muse/config.h"
#include "muse/model.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_cache.h"
#include "sim/flow_series.h"
#include "sim/serialize.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/rng.h"

namespace musenet {
namespace {

namespace fs = std::filesystem;
using pipeline::Pipeline;
using pipeline::StageCache;
using pipeline::StageContext;
using pipeline::StageOutcome;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/pipeline_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --- Fingerprint / hash stability ----------------------------------------

TEST(FingerprintTest, DeterministicAndFieldSensitive) {
  util::Fingerprint a;
  a.Add("epochs", 8).Add("lr", 1e-3).Add("model", "MUSE-Net");
  util::Fingerprint b;
  b.Add("epochs", 8).Add("lr", 1e-3).Add("model", "MUSE-Net");
  EXPECT_EQ(a.Digest(), b.Digest());
  EXPECT_EQ(a.Hex(), b.Hex());
  EXPECT_EQ(a.Hex().size(), 16u);

  util::Fingerprint c;
  c.Add("epochs", 9).Add("lr", 1e-3).Add("model", "MUSE-Net");
  EXPECT_NE(a.Digest(), c.Digest());

  // %.17g keeps every bit of a double: distinct values never canonicalize
  // to the same line.
  util::Fingerprint d1, d2;
  d1.Add("lr", 0.1);
  d2.Add("lr", 0.1 + 1e-18);  // Below half an ULP: same double after rounding.
  EXPECT_EQ(d1.canonical(), d2.canonical());
}

TEST(FingerprintTest, ChainedHashEqualsConcatenation) {
  const std::string x = "hello ", y = "world";
  EXPECT_EQ(util::Fnv1a64(y, util::Fnv1a64(x)), util::Fnv1a64(x + y));
}

// --- Pipeline scheduling + cache ------------------------------------------

/// Builds the 3-stage chain a → b → c. `b_constant` makes b's payload
/// independent of its config (for the early-cutoff test). Run counters
/// observe which stage bodies actually executed.
struct Chain {
  Pipeline graph{};
  int a = -1, b = -1, c = -1;
  std::atomic<int>* runs = nullptr;  // [3]
};

void BuildChain(Chain* chain, int a_cfg, int b_cfg, bool b_constant = false) {
  std::atomic<int>* runs = chain->runs;
  util::Fingerprint fa;
  fa.Add("x", a_cfg);
  chain->a = chain->graph.AddStage(
      "a", std::move(fa), {}, [runs, a_cfg](const StageContext&) {
        runs[0].fetch_add(1);
        return Result<std::string>("A" + std::to_string(a_cfg));
      });
  util::Fingerprint fb;
  fb.Add("y", b_cfg);
  chain->b = chain->graph.AddStage(
      "b", std::move(fb), {chain->a},
      [runs, b_cfg, b_constant](const StageContext& ctx) {
        runs[1].fetch_add(1);
        std::string out = *ctx.dep_payloads[0] + "|B";
        if (!b_constant) out += std::to_string(b_cfg);
        return Result<std::string>(out);
      });
  chain->c = chain->graph.AddStage(
      "c", util::Fingerprint(), {chain->b},
      [runs](const StageContext& ctx) {
        runs[2].fetch_add(1);
        return Result<std::string>(*ctx.dep_payloads[0] + "|C");
      });
}

TEST(PipelineTest, WarmRerunHitsEveryStage) {
  const std::string cache = FreshDir("warm");
  std::atomic<int> runs[3] = {0, 0, 0};
  Pipeline::RunOptions options;
  options.cache_dir = cache;
  options.verbose = false;

  Chain cold{.runs = runs};
  BuildChain(&cold, 1, 1);
  auto r1 = cold.graph.Run(options);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->misses, 3);
  EXPECT_EQ(r1->hits, 0);
  EXPECT_EQ(cold.graph.payload(cold.c), "A1|B1|C");

  Chain warm{.runs = runs};
  BuildChain(&warm, 1, 1);
  auto r2 = warm.graph.Run(options);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->hits, 3);
  EXPECT_EQ(r2->misses, 0);
  // Stage bodies did not rerun; payloads are byte-identical.
  EXPECT_EQ(runs[0].load(), 1);
  EXPECT_EQ(runs[2].load(), 1);
  EXPECT_EQ(warm.graph.payload(warm.c), "A1|B1|C");
  // Content keys are stable across runs.
  EXPECT_EQ(cold.graph.outcome(cold.c).key, warm.graph.outcome(warm.c).key);
}

TEST(PipelineTest, SingleFieldEditRerunsOnlyDownstream) {
  const std::string cache = FreshDir("invalidate");
  std::atomic<int> runs[3] = {0, 0, 0};
  Pipeline::RunOptions options;
  options.cache_dir = cache;
  options.verbose = false;

  Chain first{.runs = runs};
  BuildChain(&first, 1, 1);
  ASSERT_TRUE(first.graph.Run(options).ok());

  // Edit b's config: a must hit, b and c must rerun.
  Chain edited{.runs = runs};
  BuildChain(&edited, 1, 2);
  auto r = edited.graph.Run(options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(edited.graph.outcome(edited.a).state, StageOutcome::State::kHit);
  EXPECT_EQ(edited.graph.outcome(edited.b).state, StageOutcome::State::kMiss);
  EXPECT_EQ(edited.graph.outcome(edited.c).state, StageOutcome::State::kMiss);
  EXPECT_EQ(runs[0].load(), 1);
  EXPECT_EQ(runs[1].load(), 2);
  // The miss reason names the edited field and both values.
  EXPECT_NE(edited.graph.outcome(edited.b).reason.find("config changed: y "),
            std::string::npos)
      << edited.graph.outcome(edited.b).reason;
  // c was invalidated through its dependency hash.
  EXPECT_NE(edited.graph.outcome(edited.c).reason.find("upstream"),
            std::string::npos)
      << edited.graph.outcome(edited.c).reason;
}

TEST(PipelineTest, EarlyCutoffStopsInvalidationWhenOutputUnchanged) {
  const std::string cache = FreshDir("cutoff");
  std::atomic<int> runs[3] = {0, 0, 0};
  Pipeline::RunOptions options;
  options.cache_dir = cache;
  options.verbose = false;

  Chain first{.runs = runs};
  BuildChain(&first, 1, 1, /*b_constant=*/true);
  ASSERT_TRUE(first.graph.Run(options).ok());

  // b's config changes but its payload is byte-identical, so c's key is
  // unchanged and c hits (early cutoff).
  Chain edited{.runs = runs};
  BuildChain(&edited, 1, 2, /*b_constant=*/true);
  auto r = edited.graph.Run(options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(edited.graph.outcome(edited.b).state, StageOutcome::State::kMiss);
  EXPECT_EQ(edited.graph.outcome(edited.c).state, StageOutcome::State::kHit);
  EXPECT_EQ(runs[2].load(), 1);
}

TEST(PipelineTest, CorruptOrTruncatedEntriesAreMissesNotErrors) {
  const std::string cache = FreshDir("corrupt");
  std::atomic<int> runs[3] = {0, 0, 0};
  Pipeline::RunOptions options;
  options.cache_dir = cache;
  options.verbose = false;

  Chain first{.runs = runs};
  BuildChain(&first, 1, 1);
  ASSERT_TRUE(first.graph.Run(options).ok());

  const std::string b_entry = cache + "/" + StageCache::Sanitize("b") + "-" +
                              util::HashHex(first.graph.outcome(first.b).key) +
                              ".stage";
  ASSERT_TRUE(fs::exists(b_entry));

  // Truncate the entry mid-payload: must be a miss with a corruption reason,
  // then get recomputed and recommitted.
  {
    auto bytes = util::ReadFileToString(b_entry);
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(
        util::AtomicWriteFile(b_entry, bytes->substr(0, bytes->size() - 2))
            .ok());
  }
  Chain after_truncate{.runs = runs};
  BuildChain(&after_truncate, 1, 1);
  auto r = after_truncate.graph.Run(options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(after_truncate.graph.outcome(after_truncate.b).state,
            StageOutcome::State::kMiss);
  EXPECT_NE(after_truncate.graph.outcome(after_truncate.b).reason.find(
                "corrupt"),
            std::string::npos)
      << after_truncate.graph.outcome(after_truncate.b).reason;

  // Flip one payload byte: CRC catches it.
  {
    auto bytes = util::ReadFileToString(b_entry);
    ASSERT_TRUE(bytes.ok());
    std::string flipped = *bytes;
    flipped[flipped.size() - 1] = static_cast<char>(
        static_cast<unsigned char>(flipped[flipped.size() - 1]) ^ 0xff);
    ASSERT_TRUE(util::AtomicWriteFile(b_entry, flipped).ok());
  }
  Chain after_flip{.runs = runs};
  BuildChain(&after_flip, 1, 1);
  auto r2 = after_flip.graph.Run(options);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(after_flip.graph.outcome(after_flip.b).state,
            StageOutcome::State::kMiss);
  EXPECT_EQ(after_flip.graph.payload(after_flip.c), "A1|B1|C");
}

TEST(PipelineTest, ParallelJobsProduceIdenticalKeysAndPayloads) {
  // Four independent stages + a join. jobs=4 must give byte-identical
  // payloads and the same content keys as jobs=1.
  auto build = [](Pipeline* graph) {
    std::vector<int> leaves;
    for (int i = 0; i < 4; ++i) {
      util::Fingerprint f;
      f.Add("i", i);
      leaves.push_back(graph->AddStage(
          "leaf" + std::to_string(i), std::move(f), {},
          [i](const StageContext&) {
            std::string out;
            Rng rng(static_cast<uint64_t>(i) + 1);
            for (int k = 0; k < 16; ++k) {
              out += std::to_string(rng.UniformInt(1000)) + ",";
            }
            return Result<std::string>(out);
          }));
    }
    return graph->AddStage("join", util::Fingerprint(), leaves,
                           [](const StageContext& ctx) {
                             std::string out;
                             for (const std::string* dep : ctx.dep_payloads) {
                               out += *dep + ";";
                             }
                             return Result<std::string>(out);
                           });
  };

  Pipeline seq, par;
  const int join_seq = build(&seq);
  const int join_par = build(&par);
  Pipeline::RunOptions options;  // No cache: every stage executes.
  options.verbose = false;
  options.jobs = 1;
  ASSERT_TRUE(seq.Run(options).ok());
  options.jobs = 4;
  ASSERT_TRUE(par.Run(options).ok());
  EXPECT_EQ(seq.payload(join_seq), par.payload(join_par));
  EXPECT_EQ(seq.outcome(join_seq).key, par.outcome(join_par).key);
  EXPECT_EQ(seq.outcome(join_seq).output_hash,
            par.outcome(join_par).output_hash);
}

TEST(PipelineTest, ParallelStagesComposeWithDataParallelTraining) {
  // Two train stages, each itself requesting train_workers=2, run under
  // --jobs 2. The stage pool advertises its fan-out (ScopedFanoutClaim),
  // so the inner requests are budgeted against the global pool instead of
  // multiplying threads. Because the shard count — not the granted worker
  // count — fixes the numerics, the jobs x workers run must produce
  // byte-identical weights to the sequential one.
  auto make_dataset = [] {
    const int f = 24;
    sim::FlowSeries flows(sim::GridSpec{3, 4}, f, 0, 14 * f);
    Rng noise(9);
    for (int64_t t = 0; t < flows.num_intervals(); ++t) {
      const double base =
          5.0 + 4.0 * std::sin(2.0 * M_PI * flows.IntervalOfDay(t) / f);
      for (int flow = 0; flow < 2; ++flow) {
        for (int64_t h = 0; h < 3; ++h) {
          for (int64_t w = 0; w < 4; ++w) {
            flows.at(t, flow, h, w) = static_cast<float>(
                std::max(0.0, base + noise.Normal(0, 0.5)));
          }
        }
      }
    }
    data::DatasetOptions options;
    options.spec = data::PeriodicitySpec{.len_closeness = 2, .len_period = 2,
                                         .len_trend = 1};
    options.test_days = 3;
    return data::TrafficDataset(std::move(flows), options);
  };

  auto build = [&](Pipeline* graph) {
    std::vector<int> stage_ids;
    for (int i = 0; i < 2; ++i) {
      util::Fingerprint f;
      f.Add("train_stage", i);
      stage_ids.push_back(graph->AddStage(
          "train" + std::to_string(i), std::move(f), {},
          [&make_dataset, i](const StageContext&) {
            data::TrafficDataset ds = make_dataset();
            muse::MuseNetConfig config;
            config.grid_h = 3;
            config.grid_w = 4;
            config.periodicity = data::PeriodicitySpec{
                .len_closeness = 2, .len_period = 2, .len_trend = 1};
            config.repr_dim = 4;
            config.dist_dim = 8;
            config.resplus_blocks = 1;
            muse::MuseNet model(config, static_cast<uint64_t>(2 + i));
            eval::TrainConfig tc;
            tc.epochs = 1;
            tc.batch_size = 8;
            tc.learning_rate = 1e-3;
            tc.train_shards = 2;   // Fixed: the numerics knob.
            tc.train_workers = 2;  // Capped under --jobs by the fan-out claim.
            const Status trained = model.TrainWithReport(ds, tc, nullptr);
            if (!trained.ok()) return Result<std::string>(trained);
            // Raw weight bytes as the payload: equality is bit-exactness.
            std::string payload;
            for (const auto& [name, tensor] : model.StateDict()) {
              payload.append(name);
              payload.append(
                  reinterpret_cast<const char*>(tensor.data()),
                  sizeof(float) * static_cast<size_t>(tensor.num_elements()));
            }
            return Result<std::string>(std::move(payload));
          }));
    }
    return stage_ids;
  };

  Pipeline seq, par;
  const std::vector<int> seq_ids = build(&seq);
  const std::vector<int> par_ids = build(&par);
  Pipeline::RunOptions options;  // No cache: every stage executes.
  options.verbose = false;
  options.jobs = 1;
  ASSERT_TRUE(seq.Run(options).ok());
  options.jobs = 2;
  ASSERT_TRUE(par.Run(options).ok());
  for (size_t i = 0; i < seq_ids.size(); ++i) {
    EXPECT_EQ(seq.payload(seq_ids[i]), par.payload(par_ids[i]))
        << "stage " << i
        << ": jobs x train_workers changed training results";
  }
}

TEST(PipelineTest, CancellationLeavesResumableCache) {
  const std::string cache = FreshDir("cancel");
  std::atomic<bool> cancel{false};
  std::atomic<int> a_runs{0};

  auto build = [&](Pipeline* graph, bool trip_cancel) {
    util::Fingerprint fa;
    fa.Add("x", 1);
    const int a = graph->AddStage(
        "a", std::move(fa), {}, [&a_runs](const StageContext&) {
          a_runs.fetch_add(1);
          return Result<std::string>("A");
        });
    return graph->AddStage(
        "b", util::Fingerprint(), {a},
        [&cancel, trip_cancel](const StageContext& ctx) {
          // Simulates SIGINT arriving while b runs: the handler flips the
          // token mid-stage and the body polls it like the training loop
          // does at step boundaries, parking progress in the scratch
          // directory.
          if (trip_cancel) cancel.store(true);
          if (ctx.cancel && ctx.cancel->load()) {
            fs::create_directories(ctx.scratch_dir);
            std::ofstream(ctx.scratch_dir + "/progress") << "epoch=3";
            return Result<std::string>(
                Status::Cancelled("b cancelled at epoch 3"));
          }
          std::string resumed = "fresh";
          if (fs::exists(ctx.scratch_dir + "/progress")) resumed = "resumed";
          return Result<std::string>(*ctx.dep_payloads[0] + "|B(" + resumed +
                                     ")");
        });
  };

  Pipeline::RunOptions options;
  options.cache_dir = cache;
  options.verbose = false;
  options.cancel = &cancel;

  Pipeline interrupted;
  const int b1 = build(&interrupted, /*trip_cancel=*/true);
  auto run1 = interrupted.Run(options);
  ASSERT_FALSE(run1.ok());
  EXPECT_EQ(run1.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(interrupted.outcome(b1).state, StageOutcome::State::kCancelled);
  // a committed before the cancellation; b kept its scratch state.
  EXPECT_EQ(interrupted.outcome(interrupted.FindStage("a")).state,
            StageOutcome::State::kMiss);

  // Rerun with the token cleared: a hits, b resumes from its scratch dir
  // (same content key → same scratch), then the scratch is dropped.
  cancel.store(false);
  Pipeline resumed;
  const int b2 = build(&resumed, /*trip_cancel=*/false);
  auto run2 = resumed.Run(options);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();
  EXPECT_EQ(resumed.outcome(resumed.FindStage("a")).state,
            StageOutcome::State::kHit);
  EXPECT_EQ(a_runs.load(), 1);
  EXPECT_EQ(resumed.payload(b2), "A|B(resumed)");
  // Committed stages drop their scratch directories.
  StageCache cache_view(cache);
  EXPECT_FALSE(
      fs::exists(cache_view.ScratchDir("b", resumed.outcome(b2).key)));
}

TEST(PipelineTest, FailedStageSkipsDownstreamAndSurfacesError) {
  Pipeline graph;
  const int a = graph.AddStage("a", util::Fingerprint(), {},
                               [](const StageContext&) {
                                 return Result<std::string>(
                                     Status::Internal("stage a exploded"));
                               });
  const int b = graph.AddStage("b", util::Fingerprint(), {a},
                               [](const StageContext& ctx) {
                                 return Result<std::string>(
                                     *ctx.dep_payloads[0]);
                               });
  Pipeline::RunOptions options;
  options.verbose = false;
  auto run = graph.Run(options);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().ToString().find("stage a exploded"),
            std::string::npos);
  EXPECT_EQ(graph.outcome(a).state, StageOutcome::State::kFailed);
  EXPECT_EQ(graph.outcome(b).state, StageOutcome::State::kSkipped);
}

TEST(PipelineTest, DisabledCacheAlwaysRecomputes) {
  std::atomic<int> runs[3] = {0, 0, 0};
  Pipeline::RunOptions options;  // cache_dir empty.
  options.verbose = false;
  for (int i = 0; i < 2; ++i) {
    Chain chain{.runs = runs};
    BuildChain(&chain, 1, 1);
    auto r = chain.graph.Run(options);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->misses, 3);
    EXPECT_NE(chain.graph.outcome(chain.a).reason.find("cache disabled"),
              std::string::npos);
  }
  EXPECT_EQ(runs[0].load(), 2);
}

// --- StageCache unit behaviour --------------------------------------------

TEST(StageCacheTest, ManifestDiffExplainsInvalidation) {
  const std::string old_desc =
      "stage=t\ncode_salt=v1\ncfg:epochs=8\ndep:sim=aaaa\n";
  EXPECT_EQ(StageCache::DiffReason(
                old_desc, "stage=t\ncode_salt=v1\ncfg:epochs=3\ndep:sim=aaaa\n"),
            "config changed: epochs '8' -> '3'");
  EXPECT_EQ(StageCache::DiffReason(
                old_desc, "stage=t\ncode_salt=v1\ncfg:epochs=8\ndep:sim=bbbb\n"),
            "upstream 'sim' output changed");
  EXPECT_EQ(StageCache::DiffReason(
                old_desc, "stage=t\ncode_salt=v2\ncfg:epochs=8\ndep:sim=aaaa\n"),
            "code version changed ('v1' -> 'v2')");
}

TEST(StageCacheTest, SanitizeKeepsNamesFilesystemSafe) {
  EXPECT_EQ(StageCache::Sanitize("train/NYC-Taxi/h0/MUSE-Net"),
            "train_NYC-Taxi_h0_MUSE-Net");
  EXPECT_EQ(StageCache::Sanitize("eval v2.1"), "eval_v2.1");
}

// Fills 4 KiB of stack with 0xA5, so the frame of the next call at the same
// depth starts out on that pattern instead of on zeroes.
[[gnu::noinline]] void DirtyStack() {
  volatile unsigned char junk[4096];
  for (size_t i = 0; i < sizeof(junk); ++i) junk[i] = 0xA5;
}

TEST(StageCacheTest, EntryHeaderPaddingIsZero) {
  const std::string dir = FreshDir("padding");
  StageCache cache(dir);
  const uint64_t key = 0x5eed;
  DirtyStack();
  ASSERT_TRUE(cache.Store("s", key, "stage=s\n", "payload").ok());
  auto bytes = util::ReadFileToString(dir + "/" + StageCache::Sanitize("s") +
                                      "-" + util::HashHex(key) + ".stage");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  // The header's fields (magic, key, payload_size, payload_crc) fill bytes
  // 0-27; bytes 28-31 are padding and must not carry stack contents.
  ASSERT_GE(bytes->size(), 32u);
  for (size_t i = 28; i < 32; ++i) {
    EXPECT_EQ(static_cast<unsigned char>((*bytes)[i]), 0) << "byte " << i;
  }
}

// --- Flow provenance ------------------------------------------------------

sim::FlowSeries SmallFlows() {
  sim::FlowSeries flows(sim::GridSpec{2, 3}, 24, 4, 50);
  Rng rng(5);
  for (int64_t t = 0; t < 50; ++t) {
    for (int f = 0; f < 2; ++f) {
      for (int64_t h = 0; h < 2; ++h) {
        for (int64_t w = 0; w < 3; ++w) {
          flows.at(t, f, h, w) = static_cast<float>(rng.UniformInt(30));
        }
      }
    }
  }
  return flows;
}

TEST(FlowProvenanceTest, StampRoundTripsAndChecks) {
  const std::string path = ::testing::TempDir() + "/flows_provenance.bin";
  const uint64_t stamp = 0x1234abcd5678ef00ULL;
  ASSERT_TRUE(sim::SaveFlowSeries(path, SmallFlows(), stamp).ok());

  auto read = sim::ReadFlowSeriesProvenance(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, stamp);

  EXPECT_TRUE(sim::LoadFlowSeriesChecked(path, stamp).ok());
  // 0 disables the check.
  EXPECT_TRUE(sim::LoadFlowSeriesChecked(path, 0).ok());

  auto mismatch = sim::LoadFlowSeriesChecked(path, stamp + 1);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition);
  // The error names both hashes so the user can see what is stale.
  EXPECT_NE(mismatch.status().ToString().find(util::HashHex(stamp)),
            std::string::npos)
      << mismatch.status().ToString();
  EXPECT_NE(mismatch.status().ToString().find(util::HashHex(stamp + 1)),
            std::string::npos);
}

TEST(FlowProvenanceTest, LegacyUnstampedFileFailsCheckedLoad) {
  const std::string path = ::testing::TempDir() + "/flows_unstamped.bin";
  ASSERT_TRUE(sim::SaveFlowSeries(path, SmallFlows(), /*provenance_hash=*/0)
                  .ok());
  auto read = sim::ReadFlowSeriesProvenance(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 0u);
  // Unchecked load still works (backward compatible)...
  EXPECT_TRUE(sim::LoadFlowSeries(path).ok());
  // ...but a checked load must refuse the unstamped file.
  auto checked = sim::LoadFlowSeriesChecked(path, 42);
  ASSERT_FALSE(checked.ok());
  EXPECT_NE(checked.status().ToString().find("no provenance stamp"),
            std::string::npos)
      << checked.status().ToString();
}

TEST(FlowProvenanceTest, InMemoryRoundTrip) {
  auto bytes = sim::SerializeFlowSeries(SmallFlows(), 77);
  ASSERT_TRUE(bytes.ok());
  auto parsed = sim::ParseFlowSeries("test-payload", *bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_intervals(), 50);
  EXPECT_EQ(parsed->storage(), SmallFlows().storage());
}

}  // namespace
}  // namespace musenet
