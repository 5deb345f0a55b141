// Tests for the unified deployment API (bswp::Deployment / bswp::Session):
// up-front option validation, equivalence with the legacy hand-wired
// pipeline, thread-pooled batched inference, persistence.
#include "api/bswp.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/rng.h"
#include "runtime/serialize.h"

namespace bswp {
namespace {

data::SyntheticCifarOptions data_opts() {
  data::SyntheticCifarOptions o;
  o.train_size = 48;
  o.image_size = 12;
  return o;
}

/// Small conv net with BN stats seeded (no training: these tests exercise
/// the pipeline plumbing, not accuracy).
struct Env {
  nn::Graph graph;
  data::SyntheticCifar data{data_opts(), true};
  Tensor sample{std::vector<int>{1, 3, 12, 12}};

  Env() {
    int x = graph.input(3, 12, 12);
    x = graph.conv2d(x, 16, 3, 1, 1);
    x = graph.batchnorm(x);
    x = graph.relu(x);
    x = graph.maxpool(x, 2, 2);
    x = graph.conv2d(x, 24, 3, 1, 1);
    x = graph.relu(x);
    x = graph.global_avgpool(x);
    graph.linear(x, 4);
    Rng rng(3);
    graph.init_weights(rng);
    data::Batch b = data.batch(0, 16);
    graph.forward(b.images, true);
    data.sample(0, sample.data());
  }

  pool::CodecOptions pool_opts() const {
    pool::CodecOptions co;
    co.pool_size = 16;
    co.kmeans_iters = 5;
    return co;
  }

  quant::CalibrateOptions cal_opts() const {
    quant::CalibrateOptions qo;
    qo.num_samples = 16;
    return qo;
  }
};

Env& env() {
  static Env e;
  return e;
}

// --- validation -------------------------------------------------------------

TEST(Deployment, CompileWithoutCalibrationRejected) {
  Env& e = env();
  Deployment dep = Deployment::from(e.graph);
  EXPECT_THROW(dep.compile(), std::invalid_argument);
}

TEST(Deployment, ForcedVariantWithoutPoolRejected) {
  Env& e = env();
  Deployment dep = Deployment::from(e.graph)
                       .force_variant(kernels::BitSerialVariant::kCachedPrecompute)
                       .calibrate(e.data, e.cal_opts());
  EXPECT_THROW(dep.compile(), std::invalid_argument);
}

TEST(Deployment, LutMayBeWiderThanWeights) {
  // LUT entries store group dot products, so B_l > B_w is the paper's
  // exact-LUT configuration (Table 5's "16" column) — it must compile.
  Env& e = env();
  Session session = Deployment::from(e.graph)
                        .with_pool(env().pool_opts())
                        .weight_bits(8)
                        .lut_bits(16)
                        .calibrate(e.data, e.cal_opts())
                        .compile();
  EXPECT_EQ(session.network().lut.bitwidth, 16);
  EXPECT_NO_THROW(session.run(e.sample));
}

TEST(Deployment, SetterRangesValidatedImmediately) {
  Env& e = env();
  Deployment dep = Deployment::from(e.graph);
  EXPECT_THROW(dep.act_bits(0), std::invalid_argument);
  EXPECT_THROW(dep.act_bits(9), std::invalid_argument);
  EXPECT_THROW(dep.weight_bits(1), std::invalid_argument);
  EXPECT_THROW(dep.lut_bits(17), std::invalid_argument);
  EXPECT_THROW(dep.seed_batchnorm(0), std::invalid_argument);
  pool::CodecOptions bad;
  bad.pool_size = 0;
  EXPECT_THROW(dep.with_pool(bad), std::invalid_argument);
}

TEST(Deployment, FinetuneWithoutPoolRejected) {
  Env& e = env();
  Deployment dep = Deployment::from(e.graph);
  pool::FinetuneOptions fo;
  EXPECT_THROW(dep.finetune(e.data, e.data, fo), std::invalid_argument);
}

// --- pipeline equivalence ---------------------------------------------------

TEST(Deployment, CompileMatchesLegacyPipeline) {
  Env& e = env();
  // Facade build.
  Session session = Deployment::from(e.graph)
                        .with_pool(e.pool_opts())
                        .calibrate(e.data, e.cal_opts())
                        .compile();
  // Hand-wired legacy build (same steps in the same order), adopted through
  // the Session escape hatch.
  nn::Graph copy = e.graph;
  pool::PooledNetwork pooled = pool::build_weight_pool(copy, e.pool_opts());
  pool::reconstruct_weights(copy, pooled);
  quant::CalibrationResult cal = quant::calibrate(copy, e.data, e.cal_opts());
  Session legacy(runtime::compile(copy, &pooled, cal, {}));

  QTensor a = session.run(e.sample);
  QTensor b = legacy.run(e.sample);
  EXPECT_EQ(a.data, b.data);
  EXPECT_EQ(session.footprint().flash_bytes, legacy.footprint().flash_bytes);
}

TEST(Deployment, ActBitsSyncCalibrationAndPlans) {
  Env& e = env();
  Deployment dep =
      Deployment::from(e.graph).with_pool(e.pool_opts()).calibrate(e.data, e.cal_opts());
  Session s4 = dep.act_bits(4).compile();
  EXPECT_EQ(s4.act_bits(), 4);
  for (const runtime::LayerPlan& p : s4.network().plans) {
    if (p.kind == runtime::PlanKind::kConvBitSerial) {
      EXPECT_EQ(p.rq.out.bits, 4);
    }
  }
  // The same builder recompiles at another precision.
  Session s8 = dep.act_bits(8).compile();
  EXPECT_EQ(s8.act_bits(), 8);
}

TEST(Deployment, ProvidedPoolIsUsedAsIs) {
  Env& e = env();
  nn::Graph copy = e.graph;
  pool::PooledNetwork pooled = pool::build_weight_pool(copy, e.pool_opts());
  Session session =
      Deployment::from(e.graph).with_pool(pooled).calibrate(e.data, e.cal_opts()).compile();
  EXPECT_TRUE(session.network().has_lut);
  EXPECT_EQ(session.network().lut.pool_size, 16);
}

// --- session inference ------------------------------------------------------

Session pooled_session() {
  Env& e = env();
  return Deployment::from(e.graph)
      .with_pool(e.pool_opts())
      .calibrate(e.data, e.cal_opts())
      .compile();
}

TEST(Session, RunBatchBitIdenticalToSequential) {
  Env& e = env();
  Session session = pooled_session();
  std::vector<Tensor> images;
  for (int i = 0; i < 9; ++i) {
    Tensor x({1, 3, 12, 12});
    e.data.sample(i % e.data.size(), x.data());
    images.push_back(std::move(x));
  }
  const std::vector<QTensor> batched = session.run_batch(images, /*n_threads=*/4);
  ASSERT_EQ(batched.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    const QTensor seq = session.run(images[i]);
    EXPECT_EQ(batched[i].data, seq.data) << "image " << i;
    EXPECT_EQ(batched[i].scale, seq.scale);
  }
}

TEST(Session, RunBatchThreadCountInvariance) {
  Env& e = env();
  Session session = pooled_session();
  std::vector<Tensor> images(5, e.sample);
  const auto one = session.run_batch(images, 1);
  const auto many = session.run_batch(images, 8);  // more threads than images
  for (std::size_t i = 0; i < images.size(); ++i) EXPECT_EQ(one[i].data, many[i].data);
  EXPECT_TRUE(session.run_batch(std::vector<Tensor>{}, 4).empty());
  EXPECT_THROW(session.run_batch(images, 0), std::invalid_argument);
}

TEST(Session, RejectsMismatchedInputShape) {
  Session session = pooled_session();
  EXPECT_THROW(session.run(Tensor({4, 12, 12}, 0.1f)), std::invalid_argument);   // channels
  EXPECT_THROW(session.run(Tensor({3, 16, 12}, 0.1f)), std::invalid_argument);   // height
  EXPECT_THROW(session.run(Tensor({3, 12, 16}, 0.1f)), std::invalid_argument);   // width
  EXPECT_THROW(session.run(Tensor({2, 3, 12, 12}, 0.1f)), std::invalid_argument);  // batch
  EXPECT_NO_THROW(session.run(Tensor({3, 12, 12}, 0.1f)));
  // A batch with one bad image propagates the error out of run_batch.
  std::vector<Tensor> images(3, Tensor({3, 12, 12}, 0.1f));
  images[1] = Tensor({5, 12, 12}, 0.1f);
  EXPECT_THROW(session.run_batch(images, 2), std::invalid_argument);
}

TEST(Session, EvaluateAndLatencyWork) {
  Env& e = env();
  Session session = pooled_session();
  const float acc = session.evaluate(e.data, 16);
  EXPECT_GE(acc, 0.0f);
  EXPECT_LE(acc, 100.0f);
  const runtime::LatencyReport r = session.estimate_latency(sim::mc_large());
  EXPECT_GT(r.cycles, 0.0);
  EXPECT_EQ(session.input_chw(), (std::vector<int>{3, 12, 12}));
}

TEST(Session, SaveLoadAndFirmwareExport) {
  Env& e = env();
  Session session = pooled_session();
  const std::string bin = "/tmp/bswp_api_session.bswp";
  const std::string hdr = "/tmp/bswp_api_session.h";
  session.save(bin);
  Session loaded = Session::load(bin);
  EXPECT_EQ(loaded.run(e.sample).data, session.run(e.sample).data);
  const std::size_t flash = session.export_firmware(hdr, "apinet");
  EXPECT_EQ(flash, session.footprint().flash_bytes);
  std::remove(bin.c_str());
  std::remove(hdr.c_str());
}

}  // namespace
}  // namespace bswp
