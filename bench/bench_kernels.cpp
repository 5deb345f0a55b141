// Host-kernel benchmark: wall-clock of the scalar reference kernels versus
// the SIMD family (src/kernels/simd/) on the same inputs, then end-to-end
// through Session::run-style execution and the InferenceServer on the
// Table 7 model families.
//
// Three sections:
//   1. kernel micro-benchmarks — the int8 conv/linear cores, the bit-serial
//      LUT accumulate and the XNOR popcount core, scalar vs SIMD on
//      identical buffers (outputs are asserted byte-identical);
//   2. end-to-end — each network compiled three ways, forced
//      HostLaneSelect::kScalar, forced kSimd and the default kAuto lane rule,
//      timed through a warm arena Executor (the engine under Session::run).
//      `e2e_<net>_auto_over_best` is the kAuto time over the faster forced
//      lane: the rule's evidence, re-runnable. Outside smoke mode the nets
//      include MobileNet-v2 and a weight-oriented ResNet-s, the two cases
//      where the rule keeps layers scalar;
//   3. serving — the InferenceServer fed the same request stream with the
//      forced-scalar and the kAuto builds.
//
// Emits BENCH_kernels.json (bench::JsonWriter) for scripts/bench_compare.sh:
// `*_us` and `*_over_best` keys are lower-is-better, `*_speedup` / `*_ips`
// higher-is-better.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include "common.h"
#include "core/arena.h"
#include "binary/binarized.h"
#include "kernels/baseline_conv.h"
#include "kernels/bitserial_conv.h"
#include "kernels/simd/simd_dispatch.h"
#include "kernels/simd/simd_kernels.h"
#include "runtime/executor.h"
#include "runtime/server/inference_server.h"

namespace bswp::bench {
namespace {

using Clock = std::chrono::steady_clock;
using kernels::QView;

/// Microseconds per call of `fn` over `iters` timed calls (plus 2 warm-ups).
double time_us(int iters, const std::function<void()>& fn) {
  fn();
  fn();
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < iters; ++i) fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count() / iters;
}

void add_pair(JsonWriter& jw, const std::string& base, double scalar_us, double simd_us) {
  jw.add(base + "_scalar_us", scalar_us);
  jw.add(base + "_simd_us", simd_us);
  jw.add(base + "_speedup", scalar_us / simd_us);
  std::printf("%-28s scalar %10.1f us   simd %10.1f us   %5.2fx\n", base.c_str(), scalar_us,
              simd_us, scalar_us / simd_us);
}

/// Random pooled conv layer at bench geometry (16x16 input, 3x3 kernel) —
/// the recurring hot-path shape of the Table 7 ResNet bodies.
struct LayerFixture {
  nn::ConvSpec spec;
  kernels::PackedIndices indices;
  pool::DotLut lut;
  QTensor input;
  QTensor qweights;
  kernels::Requant rq;

  LayerFixture(int channels, int filters, int act_bits) {
    Rng rng(1);
    spec = nn::ConvSpec{channels, filters, 3, 3, 1, 1, 1};
    pool::WeightPool wp;
    wp.group_size = 8;
    wp.vectors = Tensor({64, 8});
    rng.fill_normal(wp.vectors, 0.3f);
    lut = pool::build_lut(wp, pool::LutOptions{});
    pool::PooledLayer pl;
    pl.out_ch = filters;
    pl.channel_groups = channels / 8;
    pl.kh = pl.kw = 3;
    pl.indices.resize(static_cast<std::size_t>(filters) * pl.channel_groups * 9);
    for (auto& idx : pl.indices) idx = static_cast<uint16_t>(rng.uniform_int(64));
    indices = kernels::PackedIndices::pack(pl);
    input = QTensor({1, channels, 16, 16}, act_bits, false);
    input.scale = 0.05f;
    for (auto& v : input.data) v = static_cast<int16_t>(rng.uniform_int(1u << act_bits));
    qweights = QTensor(spec.weight_shape(), 8, true);
    qweights.scale = 0.01f;
    for (auto& v : qweights.data)
      v = static_cast<int16_t>(-127 + static_cast<int>(rng.uniform_int(255)));
    rq = kernels::Requant::uniform(filters, 1e-4f, {}, 0.01f, 8, false, true);
  }
};

void check_identical(const QTensor& a, const QTensor& b, const char* what) {
  if (a.data != b.data) {
    std::fprintf(stderr, "FATAL: %s scalar/simd outputs differ\n", what);
    std::exit(1);
  }
}

void micro_benchmarks(JsonWriter& jw) {
  print_header("1. kernel micro-benchmarks (scalar vs SIMD, identical buffers)");
  const int iters = smoke_scaled(30, 3);

  // int8 conv core at the ResNet body widths.
  for (int c : {32, 64, 128}) {
    LayerFixture f(c, c, 8);
    const int oh = f.spec.out_h(16), ow = f.spec.out_w(16);
    QTensor out_s({1, c, oh, ow}, 8, false), out_v = out_s;
    QView in = QView::of(f.input), vs = QView::of(out_s), vv = QView::of(out_v);
    ScratchArena scratch(kernels::simd::simd_conv_scratch_bytes(f.spec));
    const double scalar_us = time_us(
        iters, [&] { kernels::baseline_conv2d(in, f.qweights, f.spec, f.rq, vs, nullptr); });
    const double simd_us = time_us(iters, [&] {
      scratch.reset();
      kernels::simd::simd_conv2d(in, f.qweights, f.spec, f.rq, vv, scratch, nullptr);
    });
    check_identical(out_s, out_v, "conv");
    add_pair(jw, "conv_c" + std::to_string(c), scalar_us, simd_us);
  }

  // int8 fully-connected core.
  {
    Rng rng(2);
    const int fin = 256, fout = 128;
    QTensor input({1, fin}, 8, false);
    for (auto& v : input.data) v = static_cast<int16_t>(rng.uniform_int(256));
    QTensor w({fout, fin}, 8, true);
    for (auto& v : w.data) v = static_cast<int16_t>(-127 + static_cast<int>(rng.uniform_int(255)));
    kernels::Requant rq = kernels::Requant::uniform(fout, 1e-4f, {}, 0.01f, 8, false, true);
    QTensor out_s({1, fout}, 8, false), out_v = out_s;
    QView in = QView::of(input), vs = QView::of(out_s), vv = QView::of(out_v);
    ScratchArena scratch(kernels::simd::simd_linear_scratch_bytes(fin));
    const int lin_iters = smoke_scaled(300, 20);
    const double scalar_us =
        time_us(lin_iters, [&] { kernels::baseline_linear(in, w, rq, vs, nullptr); });
    const double simd_us = time_us(lin_iters, [&] {
      scratch.reset();
      kernels::simd::simd_linear(in, w, rq, vv, scratch, nullptr);
    });
    check_identical(out_s, out_v, "linear");
    add_pair(jw, "linear_f" + std::to_string(fin), scalar_us, simd_us);
  }

  // Bit-serial LUT accumulate (widened: 8 output channels per gather step).
  for (int act_bits : {8, 4}) {
    LayerFixture f(64, 64, act_bits);
    const int oh = f.spec.out_h(16), ow = f.spec.out_w(16);
    QTensor out_s({1, 64, oh, ow}, 8, false), out_v = out_s;
    QView in = QView::of(f.input), vs = QView::of(out_s), vv = QView::of(out_v);
    ScratchArena ss(
        kernels::bitserial_host_batch_scratch_bytes(64, f.lut.pool_size, f.lut.group_size, 1));
    ScratchArena sv(
        kernels::simd::simd_bitserial_scratch_bytes(64, f.lut.pool_size, f.lut.group_size));
    const auto variant = kernels::BitSerialVariant::kCached;
    const double scalar_us = time_us(iters, [&] {
      ss.reset();
      kernels::bitserial_conv2d_batch(in, in.size(), 1, f.indices, f.lut, f.spec, f.rq, variant,
                                      vs, vs.size(), ss, nullptr);
    });
    const double simd_us = time_us(iters, [&] {
      sv.reset();
      kernels::simd::simd_bitserial_conv2d(in, f.indices, f.lut, f.spec, f.rq, variant, vv, sv,
                                           nullptr);
    });
    check_identical(out_s, out_v, "bitserial");
    add_pair(jw, "bitserial_c64_b" + std::to_string(act_bits), scalar_us, simd_us);
  }

  // XNOR popcount core, 32-bit vs 64-bit words, on identical packed buffers.
  {
    Rng rng(3);
    const nn::ConvSpec spec{64, 64, 3, 3, 1, 1, 1};
    const int h = 16, w = 16;
    const int words = (spec.in_ch + 31) / 32;
    std::vector<uint32_t> in_bits(static_cast<std::size_t>(h) * w * words);
    std::vector<uint32_t> w_bits(static_cast<std::size_t>(spec.out_ch) * spec.kh * spec.kw *
                                 words);
    for (auto& v : in_bits) v = rng.uniform_int(0xffffffffu);
    for (auto& v : w_bits) v = rng.uniform_int(0xffffffffu);
    // Mask tail lanes the packers would leave clear (in_ch % 32 == 0 here,
    // but keep the bench honest if the geometry changes).
    const int tail = spec.in_ch % 32;
    if (tail != 0) {
      const uint32_t mask = (1u << tail) - 1;
      for (std::size_t i = words - 1; i < in_bits.size(); i += words) in_bits[i] &= mask;
      for (std::size_t i = words - 1; i < w_bits.size(); i += words) w_bits[i] &= mask;
    }
    const int oh = spec.out_h(h), ow = spec.out_w(w);
    std::vector<int32_t> counts_s(static_cast<std::size_t>(spec.out_ch) * oh * ow);
    std::vector<int32_t> counts_v(counts_s.size());
    const int xnor_iters = smoke_scaled(50, 5);
    const double scalar_us = time_us(xnor_iters, [&] {
      binary::xnor_conv2d_counts(in_bits.data(), spec.in_ch, h, w, w_bits.data(), spec,
                                 counts_s.data(), nullptr);
    });
    const double simd_us = time_us(xnor_iters, [&] {
      kernels::simd::simd_xnor_conv2d_counts(in_bits.data(), spec.in_ch, h, w, w_bits.data(),
                                             spec, counts_v.data(), nullptr);
    });
    if (counts_s != counts_v) {
      std::fprintf(stderr, "FATAL: xnor scalar/simd counts differ\n");
      std::exit(1);
    }
    add_pair(jw, "xnor_c64", scalar_us, simd_us);
  }
}

struct NetUnderTest {
  std::string key;
  Session scalar;  // HostLaneSelect::kScalar
  Session simd;    // HostLaneSelect::kSimd
  Session rule;    // HostLaneSelect::kAuto, the default
  std::vector<Tensor> images;
};

NetUnderTest build_net(const std::string& key, nn::Graph (*build)(const models::ModelOptions&),
                       bool on_cifar, pool::LutOrder order = pool::LutOrder::kInputOriented) {
  BenchDataset d = on_cifar ? cifar_like() : quickdraw_like();
  d.model_opts.width = 0.5f;
  nn::Graph graph = build(d.model_opts);
  Rng rng(7);
  graph.init_weights(rng);

  pool::CodecOptions co;
  co.pool_size = 64;
  co.kmeans_iters = smoke_scaled(5, 2);
  co.max_cluster_vectors = smoke_scaled(4000, 1000);
  quant::CalibrateOptions qo;
  qo.num_samples = smoke_scaled(32, 8);
  Deployment dep = Deployment::from(graph)
                       .with_pool(co)
                       .seed_batchnorm(16)
                       .calibrate(*d.train, qo)
                       .lut_order(order);

  Session scalar = dep.host_lanes(runtime::HostLaneSelect::kScalar).compile();
  Session simd = dep.host_lanes(runtime::HostLaneSelect::kSimd).compile();
  Session rule = dep.host_lanes(runtime::HostLaneSelect::kAuto).compile();

  std::vector<Tensor> images;
  const int n = smoke_scaled(24, 6);
  for (int i = 0; i < n; ++i) {
    Tensor x({1, d.model_opts.in_channels, d.model_opts.image_size, d.model_opts.image_size});
    d.train->sample(i % d.train->size(), x.data());
    images.push_back(std::move(x));
  }
  return {key, std::move(scalar), std::move(simd), std::move(rule), std::move(images)};
}

void end_to_end(JsonWriter& jw, std::vector<NetUnderTest>& nets) {
  print_header("2. end-to-end: Session execution, forced scalar / forced SIMD / kAuto lanes");
  for (NetUnderTest& n : nets) {
    // Bit-identity across lanes is the contract the tests pin; assert it
    // here too so the bench can never report a speedup of a wrong answer.
    const QTensor want = n.scalar.run(n.images[0]);
    check_identical(want, n.simd.run(n.images[0]), n.key.c_str());
    check_identical(want, n.rule.run(n.images[0]), n.key.c_str());

    // Interleaved rounds, min per build: the ratios compare builds timed
    // under the same host load.
    runtime::Executor ex_s(n.scalar.network()), ex_v(n.simd.network()),
        ex_a(n.rule.network());
    const auto walk = [&](runtime::Executor& ex) {
      const Clock::time_point t0 = Clock::now();
      for (const Tensor& x : n.images) ex.run_view(x);
      return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    };
    double scalar_us = 1e300, simd_us = 1e300, auto_us = 1e300;
    for (int round = 0; round < smoke_scaled(6, 3); ++round) {
      scalar_us = std::min(scalar_us, walk(ex_s));
      simd_us = std::min(simd_us, walk(ex_v));
      auto_us = std::min(auto_us, walk(ex_a));
    }
    const auto imgs = static_cast<double>(n.images.size());
    scalar_us /= imgs;
    simd_us /= imgs;
    auto_us /= imgs;
    int simd_lanes = 0;
    for (const runtime::LayerPlan& p : n.rule.network().plans) {
      if (p.lane == runtime::HostLane::kSimd) ++simd_lanes;
    }
    const std::string base = "e2e_" + n.key;
    const double over_best = auto_us / std::min(scalar_us, simd_us);
    jw.add(base + "_scalar_us", scalar_us);
    jw.add(base + "_simd_us", simd_us);
    jw.add(base + "_auto_us", auto_us);
    jw.add(base + "_speedup", scalar_us / auto_us);
    jw.add(base + "_auto_over_best", over_best);
    jw.add(base + "_simd_lanes", simd_lanes);
    std::printf("%-28s scalar %10.1f us   simd %10.1f us   auto %10.1f us   %5.2fx of best\n",
                base.c_str(), scalar_us, simd_us, auto_us, over_best);
    std::printf("%-28s %d layer(s) on the simd lane under kAuto\n", "", simd_lanes);
  }
}

double serve(Session& session, std::span<const Tensor> images, int n) {
  runtime::ServerOptions so;
  so.workers = 2;
  so.batching.max_batch = 4;
  Server server(so);
  server.add("net", session);
  for (int i = 0; i < 2 * so.workers * so.batching.max_batch; ++i) {
    server.submit("net", images[0]);  // warm every worker's executor
  }
  server.drain();
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < n; ++i) {
    server.submit("net", images[static_cast<std::size_t>(i) % images.size()]);
  }
  server.drain();
  return n / std::chrono::duration<double>(Clock::now() - t0).count();
}

void serving(JsonWriter& jw, NetUnderTest& n) {
  print_header("3. serving: InferenceServer throughput, forced scalar vs kAuto lanes");
  const int reqs = smoke_scaled(96, 16);
  const double scalar_ips = serve(n.scalar, n.images, reqs);
  const double auto_ips = serve(n.rule, n.images, reqs);
  jw.add("server_scalar_ips", scalar_ips);
  jw.add("server_auto_ips", auto_ips);
  std::printf("%-28s scalar %8.0f img/s   auto %8.0f img/s   %5.2fx\n",
              ("server_" + n.key).c_str(), scalar_ips, auto_ips, auto_ips / scalar_ips);
}

int run_bench() {
  JsonWriter jw;
  jw.add("smoke_mode", smoke_mode());
  jw.add("simd_compiled", kernels::simd::compiled());
  jw.add("simd_isa", std::string(kernels::simd::isa_name()));
  std::printf("bench_kernels: simd %s (isa: %s)\n",
              kernels::simd::compiled() ? "compiled" : "compiled OUT",
              kernels::simd::isa_name());

  if (kernels::simd::compiled()) {
    micro_benchmarks(jw);
  } else {
    std::printf("SIMD backends compiled out (BSWP_SIMD=OFF): micro section skipped\n");
  }

  std::vector<NetUnderTest> nets;
  nets.push_back(build_net("tinyconv", models::build_tinyconv, false));
  nets.push_back(build_net("resnet_s", models::build_resnet_s, true));
  if (!smoke_mode()) {
    nets.push_back(build_net("resnet_10", models::build_resnet10, true));
    // The two cases the lane rule keeps (partly) scalar: MobileNet-v2's
    // depthwise convs and every bit-serial layer over a weight-oriented LUT.
    nets.push_back(build_net("mobilenet_v2", models::build_mobilenet_v2, false));
    nets.push_back(build_net("resnet_s_wo", models::build_resnet_s, true,
                             pool::LutOrder::kWeightOriented));
  }
  end_to_end(jw, nets);
  serving(jw, nets[1]);

  jw.write("BENCH_kernels.json");
  return 0;
}

}  // namespace
}  // namespace bswp::bench

int main() { return bswp::bench::run_bench(); }
