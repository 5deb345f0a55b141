// Batched execution tests: batch-N bit-identity against N sequential runs
// across the whole model zoo (act_bits {2, 4, 8}, both host lanes, batch
// sizes on both sides of the SIMD bit-serial core split, odd ones
// included), CostCounter batch-invariance (a batched run tallies exactly
// N x the per-image counts, so MCU latency estimates never depend on
// serving batch size), the zero-heap-allocation guarantee of the warm
// batched path, the XNOR backend over a batch, and Session::run_batch's
// chunked parallel-for.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "api/bswp.h"
#include "binary/binary_backend.h"
// Replaces global operator new for this test binary so the batched path's
// steady-state zero-allocation claim is asserted, not assumed.
#include "core/counting_allocator.h"
#include "core/rng.h"
#include "models/zoo.h"
#include "runtime/executor.h"

namespace bswp::runtime {
namespace {

// --- environment (golden-harness style, mirrors test_simd_kernels) -----------

struct ZooCase {
  nn::Graph graph;
  std::unique_ptr<data::Dataset> cal;
  std::vector<Tensor> images;
};

ZooCase make_case(const models::NamedModel& m, uint64_t seed, int n_images) {
  ZooCase c;
  models::ModelOptions mo;
  mo.image_size = 16;
  mo.width = 0.25f;
  mo.num_classes = 10;
  if (m.on_cifar) {
    data::SyntheticCifarOptions o;
    o.train_size = 48;
    o.image_size = 16;
    c.cal = std::make_unique<data::SyntheticCifar>(o, true);
    mo.in_channels = 3;
  } else {
    data::SyntheticQuickdrawOptions o;
    o.train_size = 48;
    o.image_size = 16;
    o.num_classes = 10;
    c.cal = std::make_unique<data::SyntheticQuickdraw>(o, true);
    mo.in_channels = 1;
  }
  c.graph = m.build(mo);
  Rng rng(seed);
  c.graph.init_weights(rng);
  data::Batch b = c.cal->batch(0, 16);
  c.graph.forward(b.images, true);
  for (int i = 0; i < n_images; ++i) {
    Tensor x({1, mo.in_channels, 16, 16});
    c.cal->sample(i % 48, x.data());
    c.images.push_back(std::move(x));
  }
  return c;
}

bswp::Deployment make_deployment(ZooCase& c) {
  pool::CodecOptions co;
  co.pool_size = 16;
  co.kmeans_iters = 5;
  co.max_cluster_vectors = 3000;
  quant::CalibrateOptions qo;
  qo.num_samples = 24;
  return bswp::Deployment::from(c.graph).with_pool(co).calibrate(*c.cal, qo);
}

// --- batch-N bit-identity across the zoo -------------------------------------

TEST(BatchedExecutor, ZooBatchBitIdenticalToSequentialAcrossLanesAndBits) {
  // For every paper network, three act_bits and both host lanes: one
  // run_batch_view over N images must produce byte-identical logits to N
  // run_view calls on a separate executor, at batch sizes 1 (the SIMD
  // bit-serial per-image core), 2 (the smallest batch on its batched core),
  // 3 (odd partial batch) and 8 (the planned max). act_bits 2 is the low
  // end of the bitwidth trade, the one bench/e2e's serve_overload serves.
  constexpr int kMaxBatch = 8;
  uint64_t seed = 4321;
  for (const models::NamedModel& m : models::paper_models()) {
    ZooCase c = make_case(m, seed++, kMaxBatch);
    bswp::Deployment dep = make_deployment(c);
    for (int bits : {2, 4, 8}) {
      for (HostLaneSelect lanes : {HostLaneSelect::kScalar, HostLaneSelect::kSimd}) {
        bswp::Session s = dep.act_bits(bits).host_lanes(lanes).compile();
        Executor seq(s.network());
        std::vector<QTensor> ref;
        for (const Tensor& x : c.images) ref.push_back(seq.run(x));

        Executor batched(s.network(), kMaxBatch);
        for (int n : {1, 2, 3, kMaxBatch}) {
          batched.run_batch_view(std::span<const Tensor>(c.images.data(),
                                                         static_cast<std::size_t>(n)));
          for (int i = 0; i < n; ++i) {
            const kernels::QView v = batched.logits_view(i);
            const QTensor got = v.to_qtensor();
            EXPECT_EQ(got.data, ref[static_cast<std::size_t>(i)].data)
                << m.name << " bits=" << bits << " lanes=" << static_cast<int>(lanes)
                << " batch=" << n << " image=" << i;
            EXPECT_EQ(got.scale, ref[static_cast<std::size_t>(i)].scale);
          }
        }
      }
    }
  }
}

TEST(BatchedExecutor, CounterTalliesExactlyBatchTimesPerImage) {
  // The batched cores amortize real work but must NOT amortize the modeled
  // MCU tallies: a batch-N run tallies exactly N x the per-image counts for
  // every event, so Session::estimate_latency stays batch-invariant. (Counts
  // are closed-form in geometry and pool indices, never in activation
  // values, so one image's counter is every image's counter.)
  ZooCase c = make_case(models::paper_models()[0], 77, 3);
  bswp::Deployment dep = make_deployment(c);
  for (HostLaneSelect lanes : {HostLaneSelect::kScalar, HostLaneSelect::kSimd}) {
    bswp::Session s = dep.act_bits(4).host_lanes(lanes).compile();
    Executor seq(s.network());
    sim::CostCounter one;
    seq.run_view(c.images[0], &one);

    Executor batched(s.network(), 3);
    sim::CostCounter three;
    batched.run_batch_view(std::span<const Tensor>(c.images.data(), 3), &three);
    for (int e = 0; e < sim::kNumEvents; ++e) {
      const auto ev = static_cast<sim::Event>(e);
      EXPECT_EQ(three.count(ev), 3 * one.count(ev))
          << "lanes=" << static_cast<int>(lanes) << " event " << sim::event_name(ev);
    }
  }
}

TEST(BatchedExecutor, SteadyStateBatchRunIsAllocationFree) {
  ZooCase c = make_case(models::paper_models()[0], 55, 4);
  bswp::Deployment dep = make_deployment(c);
  bswp::Session s = dep.act_bits(8).host_lanes(HostLaneSelect::kCostModel).compile();
  Executor exec(s.network(), 4);
  const std::span<const Tensor> batch(c.images.data(), 4);
  exec.run_batch_view(batch);  // warm-up (construction already allocated everything)
  const std::uint64_t before = bswp::alloc_count();
  for (int i = 0; i < 10; ++i) exec.run_batch_view(batch);
  const std::uint64_t after = bswp::alloc_count();
  EXPECT_EQ(after, before) << "Executor::run_batch_view allocated on the heap in steady state";
}

TEST(BatchedExecutor, LogitsViewOnlyCoversTheLastRun) {
  // A smaller run after a larger one leaves the larger run's logits in the
  // arena; logits_view must refuse them instead of returning stale data.
  ZooCase c = make_case(models::paper_models()[0], 88, 8);
  bswp::Deployment dep = make_deployment(c);
  bswp::Session s = dep.compile();
  Executor exec(s.network(), 8);
  exec.run_batch_view(std::span<const Tensor>(c.images.data(), 8));
  EXPECT_NO_THROW(exec.logits_view(7));
  exec.run_batch_view(std::span<const Tensor>(c.images.data(), 3));
  EXPECT_NO_THROW(exec.logits_view(2));
  EXPECT_THROW(exec.logits_view(5), std::invalid_argument);
  exec.run_view(c.images[0]);  // a run of one image
  EXPECT_EQ(exec.logits_view(0).to_qtensor().data, Executor(s.network()).run(c.images[0]).data);
  EXPECT_THROW(exec.logits_view(1), std::invalid_argument);
  EXPECT_THROW(exec.logits_view(-1), std::invalid_argument);
  EXPECT_THROW(Executor(s.network(), 8).logits_view(0), std::invalid_argument);  // no run yet
}

TEST(BatchedExecutor, RejectsOversizedBatch) {
  ZooCase c = make_case(models::paper_models()[0], 66, 3);
  bswp::Deployment dep = make_deployment(c);
  bswp::Session s = dep.compile();
  Executor exec(s.network(), 2);
  EXPECT_EQ(exec.max_batch(), 2);
  EXPECT_THROW(exec.run_batch_view(std::span<const Tensor>(c.images.data(), 3)),
               std::exception);
}

// --- XNOR backend over a batch ----------------------------------------------

/// Hand-built two-plan network (quantized input -> binarized conv), the
/// test_registry idiom: the zoo compile path never emits kConvBinary, so the
/// XNOR backend's batch loop is exercised directly.
CompiledNetwork binary_net(const Tensor& w, const nn::ConvSpec& spec) {
  CompiledNetwork net;
  LayerPlan input;
  input.kind = PlanKind::kInput;
  input.name = "input";
  input.out_chw = {spec.in_ch, 6, 6};
  input.out.scale = 1.0f / 127.0f;
  input.out.bits = 8;
  input.out.is_signed = true;
  net.plans.push_back(input);

  kernels::Requant rq;
  rq.scale.assign(static_cast<std::size_t>(spec.out_ch), 1.0f);
  rq.bias.assign(static_cast<std::size_t>(spec.out_ch), 0.0f);
  rq.out.scale = 1.0f;
  rq.out.bits = 8;
  rq.out.is_signed = true;
  rq.out.zero_point = 0;
  rq.fuse_relu = false;

  LayerPlan conv = binary::make_binary_conv_plan(w, spec, rq);
  conv.name = "xnor";
  conv.inputs = {0};
  conv.out_chw = {spec.out_ch, 6, 6};
  net.plans.push_back(conv);
  return net;
}

TEST(BatchedExecutor, XnorBatchBitIdenticalAndCounterInvariant) {
  nn::ConvSpec spec;
  spec.in_ch = 4;
  spec.out_ch = 2;
  spec.kh = spec.kw = 3;
  spec.stride = 1;
  spec.pad = 1;
  spec.groups = 1;
  Tensor w({2, 4, 3, 3});
  Rng rng(11);
  rng.fill_normal(w, 1.0f);
  CompiledNetwork net = binary_net(w, spec);

  std::vector<Tensor> images;
  for (int b = 0; b < 3; ++b) {
    Tensor x({1, 4, 6, 6});
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = ((i + static_cast<std::size_t>(b)) % 3 == 0) ? 0.5f : -0.25f;
    }
    images.push_back(std::move(x));
  }

  Executor seq(net);
  sim::CostCounter one;
  std::vector<QTensor> ref;
  for (const Tensor& x : images) ref.push_back(seq.run(x));
  seq.run_view(images[0], &one);

  Executor batched(net, 3);
  sim::CostCounter three;
  batched.run_batch_view(std::span<const Tensor>(images.data(), 3), &three);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(batched.logits_view(i).to_qtensor().data, ref[static_cast<std::size_t>(i)].data)
        << "image " << i;
  }
  for (int e = 0; e < sim::kNumEvents; ++e) {
    const auto ev = static_cast<sim::Event>(e);
    EXPECT_EQ(three.count(ev), 3 * one.count(ev)) << "event " << sim::event_name(ev);
  }
}

// --- Session::run_batch chunked parallel-for ----------------------------------

TEST(BatchedRunBatch, RaggedChunksBitIdenticalToPerImageRuns) {
  // run_batch runs 8-image chunks through one run_batch_view each; with 17
  // images the last chunk is a ragged single image. Every thread count must
  // agree bit-for-bit with per-image execution.
  ZooCase c = make_case(models::paper_models()[0], 33, 17);
  bswp::Deployment dep = make_deployment(c);
  bswp::Session s = dep.compile();

  Executor seq(s.network());
  std::vector<QTensor> ref;
  for (const Tensor& x : c.images) ref.push_back(seq.run(x));
  for (int threads : {1, 2, 3, 4}) {
    const bswp::BatchResult r = s.run_batch_stats(c.images, threads);
    ASSERT_EQ(r.logits.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(r.logits[i].data, ref[i].data) << "threads=" << threads << " image=" << i;
    }
    EXPECT_EQ(r.stats.images, c.images.size());
    EXPECT_EQ(r.stats.workers, threads);
    EXPECT_EQ(r.stats.latency.count, c.images.size());
    EXPECT_GT(r.stats.latency.mean_us, 0.0);
  }
}

TEST(BatchedRunBatch, FailedChunkStopsTheCallAndTheNextCallIsHealthy) {
  // A failing image fails its whole chunk; the first error is rethrown once
  // every thread has stopped, and the next call serves normally.
  ZooCase c = make_case(models::paper_models()[0], 44, 9);
  bswp::Deployment dep = make_deployment(c);
  bswp::Session s = dep.compile();

  std::vector<Tensor> images = c.images;
  const Tensor good = images[4];
  images[4] = Tensor({5, 16, 16}, 0.1f);  // wrong channel count
  EXPECT_THROW(s.run_batch_stats(images, 3), std::invalid_argument);
  EXPECT_THROW(s.run_batch_stats(images, 1), std::invalid_argument);

  images[4] = good;
  const bswp::BatchResult ok = s.run_batch_stats(images, 3);
  ASSERT_EQ(ok.logits.size(), images.size());
  EXPECT_EQ(ok.stats.images, images.size());
  EXPECT_EQ(ok.logits[4].data, Executor(s.network()).run(images[4]).data);
}

}  // namespace
}  // namespace bswp::runtime
