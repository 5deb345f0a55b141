// Session-serving tests: the token LM zoo entry (graph shape, 16-bit head,
// embedding/decode helpers, rollout dataset), greedy-decode determinism
// pinned against a golden token fixture and across runs / worker counts /
// scalar-vs-SIMD lanes / warm-vs-cold serving modes, session lifecycle
// (open/close/TTL expiry/max_sessions), concurrent session isolation,
// mid-generation close and shutdown semantics, per-token deadline
// miss-and-retry, session-affinity accounting, and the bswp::SessionServer
// facade stats rollup. The determinism tests are the serving contract of
// docs/sessions.md; this suite also runs under the TSan CI job.
//
// Golden fixture: tests/golden/tokens.txt. Regenerate after an intentional
// numerics change with  BSWP_UPDATE_GOLDEN=1 ./tests/test_sessions
#include "runtime/sessions/session_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/bswp.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "models/zoo.h"
#include "quant/calibrate.h"
#include "runtime/clock.h"
#include "runtime/pipeline.h"
#include "runtime/server/inference_server.h"

namespace bswp::runtime {
namespace {

using namespace std::chrono_literals;

// --- environment -------------------------------------------------------------

models::TokenLmOptions tiny_lm(int vocab = 32) {
  models::TokenLmOptions o;
  o.vocab = vocab;
  o.embed_dim = 8;
  o.state_dim = 16;
  o.hidden_dim = 16;
  return o;
}

/// Compile a token LM deterministically: fixed-seed weights plus a
/// fixed-seed rollout calibration (the LM's own greedy trajectories are the
/// calibration distribution — see models::TokenLmRollout).
bswp::Session compile_lm(const models::TokenLmOptions& lm, std::uint64_t seed,
                         HostLaneSelect lanes = HostLaneSelect::kAuto) {
  nn::Graph g = models::build_token_lm(lm);
  Rng rng(seed);
  g.init_weights(rng);
  models::TokenLmRollout cal_ds(g, lm, /*sequences=*/4, /*steps=*/8, seed + 1);
  quant::CalibrateOptions co;
  co.num_samples = cal_ds.size();
  co.batch_size = 8;
  quant::CalibrationResult cal = quant::calibrate(g, cal_ds, co);
  CompileOptions opts;
  opts.host_lanes = lanes;
  return bswp::Session(compile(g, nullptr, cal, opts));
}

/// One shared compiled LM for the tests that only need *a* deterministic
/// model (compiling per test would just slow the suite down).
struct LmFixture {
  models::TokenLmOptions lm;
  bswp::Session session;
  LmFixture() : lm(tiny_lm()), session(compile_lm(tiny_lm(), 7)) {}
};

LmFixture& lm_fixture() {
  static LmFixture f;
  return f;
}

/// Serve one generation on a fresh SessionServer and return its tokens.
std::vector<int> generate_tokens(const bswp::Session& session, const models::TokenLmOptions& lm,
                                 int workers, const std::vector<int>& prompt, int max_tokens,
                                 bool warm = true) {
  ServerOptions so;
  so.workers = workers;
  SessionManagerOptions mo;
  mo.warm_state = warm;
  bswp::SessionServer srv(so, mo);
  srv.add("lm", session, lm);
  const SessionId id = srv.open("lm");
  GenerationResult r = srv.generate(id, prompt, max_tokens);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.tokens.size(), static_cast<std::size_t>(max_tokens));
  return r.tokens;
}

/// ModelConfig whose batching window makes every decode step linger
/// `delay` in the queue (max_batch > 1 so a lone step is never "ready"
/// early) — the knob behind the deadline and mid-generation tests.
ModelConfig slow_config(std::chrono::microseconds delay) {
  ModelConfig c;
  c.batching.max_batch = 8;
  c.batching.max_delay = delay;
  return c;
}

// --- token LM zoo entry ------------------------------------------------------

TEST(TokenLm, StepOutputPacksLogitsAndStateAt16Bit) {
  LmFixture& f = lm_fixture();
  const Tensor x = models::token_lm_input(f.lm, /*token=*/3, /*state=*/nullptr);
  ASSERT_EQ(x.size(), static_cast<std::size_t>(f.lm.embed_dim + f.lm.state_dim));

  const QTensor out = f.session.run(x);
  // One output tensor: vocab logits followed by the next recurrent state.
  EXPECT_EQ(out.size(), static_cast<std::size_t>(f.lm.vocab + f.lm.state_dim));
  // The unfused lm_head lands on the 16-bit signed classifier rule — the
  // precision contract the argmax and the state splice both rely on.
  EXPECT_EQ(out.bits, 16);
  EXPECT_TRUE(out.is_signed);

  // Same input, same integers.
  const QTensor again = f.session.run(x);
  EXPECT_EQ(out.data, again.data);
}

TEST(TokenLm, EmbeddingIsDeterministicBoundedAndPerToken) {
  const models::TokenLmOptions lm = tiny_lm();
  const std::vector<float> e3 = models::token_embedding(lm, 3);
  ASSERT_EQ(e3.size(), static_cast<std::size_t>(lm.embed_dim));
  EXPECT_EQ(e3, models::token_embedding(lm, 3));
  EXPECT_NE(e3, models::token_embedding(lm, 4));
  for (float v : e3) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(TokenLm, InputLayoutZeroStateAndClipping) {
  const models::TokenLmOptions lm = tiny_lm();
  const std::vector<float> emb = models::token_embedding(lm, 5);

  // No state (fresh session): the state slice is zero.
  const Tensor fresh = models::token_lm_input(lm, 5, nullptr);
  for (int i = 0; i < lm.embed_dim; ++i) {
    EXPECT_EQ(fresh.data()[i], emb[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < lm.state_dim; ++i) {
    EXPECT_EQ(fresh.data()[lm.embed_dim + i], 0.0f);
  }

  // Out-of-range state entries clamp to ±state_clip before entering the
  // graph (the signed int8 input quant would otherwise saturate silently).
  std::vector<float> wild(static_cast<std::size_t>(lm.state_dim), 100.0f);
  wild[0] = -100.0f;
  const Tensor clipped = models::token_lm_input(lm, 5, &wild);
  EXPECT_EQ(clipped.data()[lm.embed_dim + 0], -lm.state_clip);
  for (int i = 1; i < lm.state_dim; ++i) {
    EXPECT_EQ(clipped.data()[lm.embed_dim + i], lm.state_clip);
  }
}

TEST(TokenLm, DecodeIsArgmaxOverLogitsPlusClippedStateSplice) {
  LmFixture& f = lm_fixture();
  const QTensor out = f.session.run(models::token_lm_input(f.lm, 1, nullptr));

  std::vector<float> next;
  const int token = models::token_lm_decode(f.lm, out, &next);
  ASSERT_GE(token, 0);
  ASSERT_LT(token, f.lm.vocab);

  // Greedy pick over the raw int16 logits, lowest index on ties.
  for (int i = 0; i < f.lm.vocab; ++i) {
    EXPECT_LE(out.data[static_cast<std::size_t>(i)], out.data[static_cast<std::size_t>(token)]);
    if (out.data[static_cast<std::size_t>(i)] == out.data[static_cast<std::size_t>(token)]) {
      EXPECT_GE(i, token);
    }
  }
  // State slice: dequantized tail, clipped into the input range.
  ASSERT_EQ(next.size(), static_cast<std::size_t>(f.lm.state_dim));
  for (int h = 0; h < f.lm.state_dim; ++h) {
    EXPECT_LE(std::abs(next[static_cast<std::size_t>(h)]), f.lm.state_clip);
  }
}

TEST(TokenLm, RolloutDatasetIsDeterministicAndWellFormed) {
  const models::TokenLmOptions lm = tiny_lm();
  nn::Graph g = models::build_token_lm(lm);
  Rng rng(21);
  g.init_weights(rng);

  models::TokenLmRollout a(g, lm, /*sequences=*/3, /*steps=*/5, /*seed=*/9);
  models::TokenLmRollout b(g, lm, 3, 5, 9);
  ASSERT_EQ(a.size(), 15);
  EXPECT_EQ(a.channels(), lm.embed_dim + lm.state_dim);
  EXPECT_EQ(a.num_classes(), lm.vocab);
  EXPECT_EQ(a.height() * a.width(), 1);

  std::vector<float> xa(static_cast<std::size_t>(a.channels()));
  std::vector<float> xb(xa.size());
  for (int i = 0; i < a.size(); ++i) {
    const int la = a.sample(i, xa.data());
    const int lb = b.sample(i, xb.data());
    EXPECT_EQ(la, lb);
    EXPECT_EQ(xa, xb);
    EXPECT_GE(la, 0);
    EXPECT_LT(la, lm.vocab);
  }
}

// --- golden token fixture ----------------------------------------------------

using GoldenMap = std::map<std::string, std::vector<int>>;

std::string golden_path() { return std::string(BSWP_SOURCE_DIR) + "/tests/golden/tokens.txt"; }

/// The pinned decode trajectories: two LM geometries, served end-to-end
/// through the SessionServer on a 2-worker server.
GoldenMap compute_current() {
  GoldenMap out;
  out["lm_v32_seed7_p123"] =
      generate_tokens(lm_fixture().session, lm_fixture().lm, /*workers=*/2, {1, 2, 3}, 32);

  models::TokenLmOptions small = tiny_lm(/*vocab=*/24);
  small.state_dim = 8;
  small.hidden_dim = 12;
  const bswp::Session s = compile_lm(small, 13);
  out["lm_v24_seed13_p05"] = generate_tokens(s, small, /*workers=*/2, {0, 5}, 24);
  return out;
}

GoldenMap load_fixture(const std::string& path) {
  GoldenMap out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string key;
    ss >> key;
    std::vector<int> vals;
    int v = 0;
    while (ss >> v) vals.push_back(v);
    out[key] = std::move(vals);
  }
  return out;
}

void save_fixture(const GoldenMap& m) {
  std::ofstream outf(golden_path());
  ASSERT_TRUE(outf.good()) << "cannot write " << golden_path();
  outf << "# Golden greedy-decode token sequences (tests/test_sessions.cpp).\n";
  outf << "# Key: lm_v<vocab>_seed<weight seed>_p<prompt tokens>; values are the\n";
  outf << "# emitted token ids, bit-identical across runs / worker counts /\n";
  outf << "# scalar-vs-SIMD lanes / warm-vs-cold serving by the determinism\n";
  outf << "# contract. Regenerate after an intentional numerics change with:\n";
  outf << "#   BSWP_UPDATE_GOLDEN=1 ./tests/test_sessions\n";
  for (const auto& [key, vals] : m) {
    outf << key;
    for (int v : vals) outf << ' ' << v;
    outf << '\n';
  }
}

TEST(Sessions, GoldenTokenFixture) {
  const GoldenMap current = compute_current();

  if (std::getenv("BSWP_UPDATE_GOLDEN") != nullptr) {
    save_fixture(current);
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  const GoldenMap golden = load_fixture(golden_path());
  ASSERT_FALSE(golden.empty()) << "missing fixture " << golden_path()
                               << " — run BSWP_UPDATE_GOLDEN=1 ./tests/test_sessions";
  ASSERT_EQ(golden.size(), current.size());
  for (const auto& [key, vals] : golden) {
    ASSERT_TRUE(current.count(key)) << "fixture key " << key << " not computed";
    EXPECT_EQ(current.at(key), vals) << "token trajectory drifted for " << key;
  }
}

// --- decode determinism ------------------------------------------------------

TEST(Sessions, BitIdenticalAcrossRunsAndWorkerCounts) {
  LmFixture& f = lm_fixture();
  const std::vector<int> prompt = {4, 9, 2};
  const std::vector<int> ref = generate_tokens(f.session, f.lm, /*workers=*/1, prompt, 24);
  ASSERT_EQ(ref.size(), 24u);
  EXPECT_EQ(generate_tokens(f.session, f.lm, 2, prompt, 24), ref);
  EXPECT_EQ(generate_tokens(f.session, f.lm, 2, prompt, 24), ref);  // repeat run
  EXPECT_EQ(generate_tokens(f.session, f.lm, 4, prompt, 24), ref);
}

TEST(Sessions, BitIdenticalAcrossScalarAndSimdLanes) {
  const models::TokenLmOptions lm = tiny_lm();
  const bswp::Session scalar = compile_lm(lm, 7, HostLaneSelect::kScalar);
  const bswp::Session simd = compile_lm(lm, 7, HostLaneSelect::kSimd);

  const std::vector<int> prompt = {1, 2, 3};
  const std::vector<int> ref = generate_tokens(scalar, lm, 2, prompt, 24);
  EXPECT_EQ(generate_tokens(simd, lm, 2, prompt, 24), ref);
  // The shared fixture compiles with kAuto lanes — same trajectory.
  EXPECT_EQ(generate_tokens(lm_fixture().session, lm_fixture().lm, 2, prompt, 24), ref);
}

TEST(Sessions, WarmAndColdServingEmitIdenticalTokens) {
  LmFixture& f = lm_fixture();
  const std::vector<int> prompt = {6, 1};
  const std::vector<int> warm = generate_tokens(f.session, f.lm, 2, prompt, 16, /*warm=*/true);
  const std::vector<int> cold = generate_tokens(f.session, f.lm, 2, prompt, 16, /*warm=*/false);
  EXPECT_EQ(warm, cold);
}

TEST(Sessions, EmptyPromptContinuesTheSequenceExactly) {
  LmFixture& f = lm_fixture();
  const std::vector<int> prompt = {3, 8};
  const std::vector<int> full = generate_tokens(f.session, f.lm, 2, prompt, 16);

  ServerOptions so;
  so.workers = 2;
  bswp::SessionServer srv(so);
  srv.add("lm", f.session, f.lm);

  // Split generation: 8 tokens, then 8 more from an empty prompt.
  const SessionId split = srv.open("lm");
  std::vector<int> tokens = srv.generate(split, prompt, 8).tokens;
  const std::vector<int> tail = srv.generate(split, {}, 8).tokens;
  tokens.insert(tokens.end(), tail.begin(), tail.end());
  EXPECT_EQ(tokens, full);

  // Prefill-only call (max_tokens = 0) followed by a continuation is the
  // same trajectory again.
  const SessionId prefill = srv.open("lm");
  EXPECT_TRUE(srv.generate(prefill, prompt, 0).tokens.empty());
  EXPECT_EQ(srv.generate(prefill, {}, 16).tokens, full);

  // A fresh session has no context for an empty prompt to continue.
  const SessionId fresh = srv.open("lm");
  EXPECT_THROW(srv.generate(fresh, {}, 4), std::invalid_argument);
}

/// Two generate() calls with non-empty prompts on one session; returns the
/// concatenated token stream. Exercises the warm continuation path where the
/// previous generation's last emitted token is still unfed.
std::vector<int> two_call_tokens(bool warm) {
  LmFixture& f = lm_fixture();
  ServerOptions so;
  so.workers = 2;
  SessionManagerOptions mo;
  mo.warm_state = warm;
  bswp::SessionServer srv(so, mo);
  srv.add("lm", f.session, f.lm);
  const SessionId id = srv.open("lm");
  std::vector<int> tokens = srv.generate(id, {6, 1}, 8).tokens;
  const std::vector<int> more = srv.generate(id, {4, 9}, 8).tokens;
  tokens.insert(tokens.end(), more.begin(), more.end());
  return tokens;
}

TEST(Sessions, PromptedContinuationFeedsTheUnfedTail) {
  LmFixture& f = lm_fixture();
  // A prompt split across calls walks the single-call trajectory: after the
  // prefill-only first call, history's last token is still unfed, and the
  // second call must feed it ahead of its own prompt.
  const std::vector<int> full = generate_tokens(f.session, f.lm, 2, {4, 9, 2}, 24);
  ServerOptions so;
  so.workers = 2;
  bswp::SessionServer srv(so);
  srv.add("lm", f.session, f.lm);
  const SessionId id = srv.open("lm");
  EXPECT_TRUE(srv.generate(id, {4}, 0).tokens.empty());
  EXPECT_EQ(srv.generate(id, {9, 2}, 24).tokens, full);

  // Prompted continuation after emitted tokens: warm serving must feed the
  // previous generation's last emission before the new prompt, exactly as
  // cold replay does — the cross-call half of the warm/cold contract.
  EXPECT_EQ(two_call_tokens(/*warm=*/true), two_call_tokens(/*warm=*/false));
}

TEST(Sessions, ConcurrentSessionsStayIsolatedAndDeterministic) {
  LmFixture& f = lm_fixture();
  constexpr int kSessions = 6;

  // Per-prompt references, each from a private single-session server.
  std::vector<std::vector<int>> prompts;
  std::vector<std::vector<int>> refs;
  for (int i = 0; i < kSessions; ++i) {
    prompts.push_back({i % f.lm.vocab, (3 * i + 1) % f.lm.vocab});
    refs.push_back(generate_tokens(f.session, f.lm, 2, prompts.back(), 12));
  }

  // All six interleaved on one 3-worker server: isolation means every
  // session still walks its own reference trajectory bit-for-bit.
  ServerOptions so;
  so.workers = 3;
  bswp::SessionServer srv(so);
  srv.add("lm", f.session, f.lm);
  std::vector<SessionId> ids;
  std::vector<std::future<GenerationResult>> futs;
  for (int i = 0; i < kSessions; ++i) ids.push_back(srv.open("lm"));
  for (int i = 0; i < kSessions; ++i) {
    futs.push_back(srv.generate_async(ids[static_cast<std::size_t>(i)],
                                      prompts[static_cast<std::size_t>(i)], 12));
  }
  for (int i = 0; i < kSessions; ++i) {
    GenerationResult r = futs[static_cast<std::size_t>(i)].get();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.tokens, refs[static_cast<std::size_t>(i)]) << "session " << i << " diverged";
  }
  EXPECT_EQ(srv.stats().sessions.tokens, static_cast<std::uint64_t>(kSessions) * 12u);
}

// --- streaming callback ------------------------------------------------------

TEST(Sessions, CallbackStreamsEveryTokenInOrder) {
  LmFixture& f = lm_fixture();
  bswp::SessionServer srv;
  srv.add("lm", f.session, f.lm);
  const SessionId id = srv.open("lm");

  std::vector<TokenEvent> events;
  GenerationResult r = srv.generate(id, {2, 7}, 10,
                                    [&](const TokenEvent& e) { events.push_back(e); });
  ASSERT_EQ(r.tokens.size(), 10u);
  ASSERT_EQ(events.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].index, i);
    EXPECT_EQ(events[static_cast<std::size_t>(i)].token, r.tokens[static_cast<std::size_t>(i)]);
    EXPECT_GT(events[static_cast<std::size_t>(i)].latency_us, 0.0);
  }
  EXPECT_EQ(r.token_latency.count, 10u);
  EXPECT_GT(r.tokens_per_s, 0.0);
}

// --- lifecycle ---------------------------------------------------------------

TEST(Sessions, LifecycleCountersAndLimits) {
  LmFixture& f = lm_fixture();
  SessionManagerOptions mo;
  mo.max_sessions = 2;
  bswp::SessionServer srv(ServerOptions{}, mo);
  srv.add("lm", f.session, f.lm);

  const SessionId a = srv.open("lm");
  const SessionId b = srv.open("lm");
  EXPECT_NE(a, b);
  EXPECT_EQ(srv.active_sessions(), 2u);
  EXPECT_THROW(srv.open("lm"), std::invalid_argument);  // max_sessions

  srv.close(a);
  EXPECT_EQ(srv.active_sessions(), 1u);
  const SessionId c = srv.open("lm");  // freed slot is reusable
  EXPECT_NE(c, a);

  EXPECT_THROW(srv.close(a), std::invalid_argument);            // already closed
  EXPECT_THROW(srv.session_stats(a), std::invalid_argument);    // unknown id
  EXPECT_THROW(srv.generate(a, {1}, 4), std::invalid_argument); // unknown id
  EXPECT_THROW(srv.open("nope"), std::invalid_argument);        // unknown LM

  const SessionServingStats s = srv.stats().sessions;
  EXPECT_EQ(s.opened, 3u);
  EXPECT_EQ(s.closed, 1u);
  EXPECT_EQ(s.active_sessions, 2u);
  EXPECT_EQ(s.peak_sessions, 2u);
}

TEST(Sessions, GenerateValidatesItsArguments) {
  LmFixture& f = lm_fixture();
  bswp::SessionServer srv;
  srv.add("lm", f.session, f.lm);
  const SessionId id = srv.open("lm");
  EXPECT_THROW(srv.generate(id, {1}, -1), std::invalid_argument);
  EXPECT_THROW(srv.generate(id, {f.lm.vocab}, 4), std::invalid_argument);  // token oob
  EXPECT_THROW(srv.generate(id, {-1}, 4), std::invalid_argument);
  // The failed calls left the session usable.
  EXPECT_EQ(srv.generate(id, {1}, 4).tokens.size(), 4u);
}

TEST(Sessions, RegisterLmValidation) {
  InferenceServer server{ServerOptions{}};
  server.register_model("lm", lm_fixture().session.network());
  SessionManager mgr(server);
  EXPECT_THROW(mgr.register_lm("ghost", tiny_lm()), std::invalid_argument);
  mgr.register_lm("lm", tiny_lm());
  EXPECT_THROW(mgr.register_lm("lm", tiny_lm()), std::invalid_argument);  // dup
  EXPECT_THROW(mgr.open_session("ghost"), std::invalid_argument);
}

TEST(Sessions, IdleSessionsExpireAfterTtl) {
  LmFixture& f = lm_fixture();
  // Idle age is measured on the injected clock, so the TTL threshold is
  // asserted exactly — just under stays live, just past expires, no sleeps.
  ManualClock clock;
  SessionManagerOptions mo;
  mo.session_ttl = 5ms;
  mo.clock = &clock;
  bswp::SessionServer srv(ServerOptions{}, mo);
  srv.add("lm", f.session, f.lm);
  srv.open("lm");
  srv.open("lm");
  EXPECT_EQ(srv.expire_idle(), 0);  // freshly opened: zero idle time
  clock.advance(4ms);
  EXPECT_EQ(srv.expire_idle(), 0);  // under the TTL: still live
  clock.advance(2ms);               // 6 ms idle, past the 5 ms TTL
  EXPECT_EQ(srv.expire_idle(), 2);
  EXPECT_EQ(srv.active_sessions(), 0u);
  EXPECT_EQ(srv.stats().sessions.expired, 2u);

  // ttl = 0 disables expiry entirely, no matter how long sessions idle.
  SessionManagerOptions keep_opts;
  keep_opts.clock = &clock;
  bswp::SessionServer keep(ServerOptions{}, keep_opts);
  keep.add("lm", f.session, f.lm);
  keep.open("lm");
  clock.advance(std::chrono::hours(1));
  EXPECT_EQ(keep.expire_idle(), 0);
  EXPECT_EQ(keep.active_sessions(), 1u);
}

// --- mid-generation close / shutdown -----------------------------------------

/// Start a slow generation (5 ms batching window per step) and unblock the
/// caller once the first token has streamed.
std::future<GenerationResult> start_slow_generation(bswp::SessionServer& srv, SessionId id,
                                                    int max_tokens,
                                                    std::future<void>* first_token) {
  auto gate = std::make_shared<std::promise<void>>();
  auto fired = std::make_shared<std::atomic<bool>>(false);
  *first_token = gate->get_future();
  return srv.generate_async(id, {1}, max_tokens, [gate, fired](const TokenEvent&) {
    if (!fired->exchange(true)) gate->set_value();
  });
}

TEST(Sessions, CloseMidGenerationStopsAtTokenBoundary) {
  LmFixture& f = lm_fixture();
  bswp::SessionServer srv;
  srv.add("lm", f.session, f.lm, slow_config(5ms));
  const SessionId id = srv.open("lm");

  std::future<void> first;
  std::future<GenerationResult> fut = start_slow_generation(srv, id, 100000, &first);
  ASSERT_EQ(first.wait_for(10s), std::future_status::ready);

  // A second generation on the same session is refused while one runs.
  EXPECT_THROW(srv.generate(id, {1}, 4), std::invalid_argument);

  srv.close(id);
  GenerationResult r = fut.get();  // stops at the next token boundary
  EXPECT_FALSE(r.completed);
  EXPECT_GE(r.tokens.size(), 1u);
  EXPECT_LT(r.tokens.size(), 100000u);
  EXPECT_EQ(srv.active_sessions(), 0u);  // deferred close finalized
  EXPECT_EQ(srv.stats().sessions.cancelled, 1u);
}

TEST(Sessions, CallbackThrowAfterCloseStillFinalizesTheClose) {
  LmFixture& f = lm_fixture();
  bswp::SessionServer srv;
  srv.add("lm", f.session, f.lm);
  const SessionId id = srv.open("lm");

  // close() lands mid-generation (deferred), then the callback throws: the
  // unwind path must still finalize the close, or the record and its sticky
  // affinity entry would linger as an unusable zombie.
  EXPECT_THROW(srv.generate(id, {1}, 8,
                            [&](const TokenEvent&) {
                              srv.close(id);
                              throw std::runtime_error("client bailed");
                            }),
               std::runtime_error);
  EXPECT_EQ(srv.active_sessions(), 0u);
  EXPECT_THROW(srv.close(id), std::invalid_argument);  // already gone
  EXPECT_EQ(srv.stats().sessions.closed, 1u);

  // Without a pending close, a throwing callback leaves the session usable.
  const SessionId again = srv.open("lm");
  EXPECT_THROW(
      srv.generate(again, {1}, 8,
                   [](const TokenEvent&) { throw std::runtime_error("client bailed"); }),
      std::runtime_error);
  EXPECT_EQ(srv.active_sessions(), 1u);
  EXPECT_EQ(srv.generate(again, {2}, 4).tokens.size(), 4u);
}

TEST(Sessions, ShutdownMidGenerationStopsCleanly) {
  LmFixture& f = lm_fixture();
  bswp::SessionServer srv;
  srv.add("lm", f.session, f.lm, slow_config(5ms));
  const SessionId id = srv.open("lm");

  std::future<void> first;
  std::future<GenerationResult> fut = start_slow_generation(srv, id, 100000, &first);
  ASSERT_EQ(first.wait_for(10s), std::future_status::ready);

  srv.shutdown();  // sessions stop at a token boundary, then the server drains
  GenerationResult r = fut.get();
  EXPECT_FALSE(r.completed);
  EXPECT_GE(r.tokens.size(), 1u);
  EXPECT_THROW(srv.open("lm"), std::invalid_argument);  // manager is down
  srv.shutdown();                                       // idempotent
}

// --- per-token deadlines -----------------------------------------------------

TEST(Server, DeadlineExpiredSurfacesThroughFutureAndStats) {
  LmFixture& f = lm_fixture();
  ManualClock clock;
  ServerOptions so;
  so.workers = 1;
  so.clock = &clock;
  InferenceServer server(so);
  // 30 ms batching window, batch of 8: on the manual clock a lone request
  // is dispatched only when this test advances past the window, and its
  // deadline expires only when the test advances past the deadline — the
  // assertion is exact, with no wall-clock margins.
  server.register_model("lm", f.session.network(), slow_config(30ms));

  SubmitOptions opt;
  opt.deadline = 1ms;
  std::future<QTensor> fut = server.submit("lm", models::token_lm_input(f.lm, 1, nullptr), opt);
  clock.advance(2ms);  // past the deadline, far short of the batching window
  try {
    fut.get();  // blocks until the scheduler's next purge pass observes it
    FAIL() << "expected ServerRejected(kDeadlineExpired)";
  } catch (const ServerRejected& e) {
    EXPECT_EQ(e.reason(), ServerRejected::Reason::kDeadlineExpired);
  }

  ServerStats s = server.stats();
  EXPECT_EQ(s.deadline_expired, 1u);
  EXPECT_EQ(s.admission.shed, 1u);  // deadline purges count as shed
  ASSERT_EQ(s.models.size(), 1u);
  EXPECT_EQ(s.models[0].deadline_expired, 1u);

  // The server is healthy: the same request without a deadline completes
  // once virtual time crosses the batching window.
  std::future<QTensor> ok = server.submit("lm", models::token_lm_input(f.lm, 1, nullptr));
  clock.advance(31ms);
  const QTensor out = ok.get();
  EXPECT_EQ(out.size(), static_cast<std::size_t>(f.lm.vocab + f.lm.state_dim));

  // Affinity bookkeeping API: keyed submit, then forget.
  SubmitOptions keyed;
  keyed.affinity_key = 42;
  std::future<QTensor> kf = server.submit("lm", models::token_lm_input(f.lm, 2, nullptr), keyed);
  clock.advance(31ms);
  kf.get();
  server.forget_affinity("lm", 42);
  EXPECT_THROW(server.forget_affinity("ghost", 42), std::invalid_argument);
}

TEST(Server, DeadlineExpiryDoesNotWaitForSaturatedWorkers) {
  LmFixture& f = lm_fixture();
  ServerOptions so;
  so.workers = 1;
  InferenceServer server(so);
  // "bulk": one kBulk-request batch, formed only once complete (10 s
  // window), occupies the lone worker for tens of milliseconds — orders of
  // magnitude past the probe deadline below.
  constexpr std::size_t kBulk = 8192;
  ModelConfig bulk;
  bulk.batching.max_batch = static_cast<int>(kBulk);
  bulk.batching.max_delay = 10s;
  bulk.queue.capacity = kBulk;
  server.register_model("bulk", f.session.network(), bulk);
  // "probe": never batch-ready on its own — its request can only leave the
  // queue through deadline expiry.
  server.register_model("probe", f.session.network(), slow_config(10s));

  std::vector<std::future<QTensor>> bulk_futs;
  bulk_futs.reserve(kBulk);
  for (std::size_t i = 0; i < kBulk; ++i) {
    bulk_futs.push_back(server.submit(
        "bulk", models::token_lm_input(f.lm, static_cast<int>(i) % f.lm.vocab, nullptr)));
  }
  // Once the batch is handed to the worker, no worker is free until it
  // completes.
  while (server.model_stats("bulk").dispatched < kBulk) std::this_thread::yield();

  SubmitOptions opt;
  opt.deadline = 300us;
  std::future<QTensor> probe =
      server.submit("probe", models::token_lm_input(f.lm, 1, nullptr), opt);
  try {
    probe.get();
    FAIL() << "expected ServerRejected(kDeadlineExpired)";
  } catch (const ServerRejected& e) {
    EXPECT_EQ(e.reason(), ServerRejected::Reason::kDeadlineExpired);
  }
  // The purge must not have waited for a worker to free up: the saturating
  // batch is still in flight when the probe's future fails.
  EXPECT_EQ(server.model_stats("bulk").admission.completed, 0u)
      << "probe deadline expired only after the saturating batch completed";

  server.drain();
  for (auto& fut : bulk_futs) fut.get();
  EXPECT_EQ(server.model_stats("bulk").admission.completed, kBulk);
  EXPECT_EQ(server.model_stats("probe").deadline_expired, 1u);
}

TEST(Sessions, DeadlineMissIsRetriedWithoutDroppingTokens) {
  LmFixture& f = lm_fixture();
  const std::vector<int> prompt = {1, 2};
  const std::vector<int> ref = generate_tokens(f.session, f.lm, 1, prompt, 4);

  SessionManagerOptions mo;
  mo.token_deadline = 2ms;
  bswp::SessionServer srv(ServerOptions{}, mo);
  // 20 ms batching window: every step's first submit expires at 2 ms and is
  // retried without a deadline — a miss costs latency, never a token.
  srv.add("lm", f.session, f.lm, slow_config(20ms));
  const SessionId id = srv.open("lm");
  GenerationResult r = srv.generate(id, prompt, 4);

  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.tokens, ref);  // the emitted sequence is deadline-independent
  // Every step missed exactly once: 1 prefill step (2-token prompt) plus 4
  // emission steps.
  EXPECT_EQ(r.deadline_misses, 5u);
  ServerStats s = srv.stats();
  EXPECT_EQ(s.sessions.deadline_misses, 5u);
  EXPECT_EQ(s.deadline_expired, 5u);
  EXPECT_EQ(srv.session_stats(id).deadline_misses, 5u);
}

TEST(Sessions, PerTokenDeadlineExpiresUnderSaturationWithoutDroppingTokens) {
  // Session-level mirror of Server.DeadlineExpiryDoesNotWaitForSaturatedWorkers:
  // a decode step's deadline expires while the lone worker is pinned by a
  // saturating bulk batch — the miss is observable before that batch
  // completes, and the generation still emits the full, bit-identical
  // token stream once the worker frees up.
  LmFixture& f = lm_fixture();
  const std::vector<int> prompt = {1, 2};
  const std::vector<int> ref = generate_tokens(f.session, f.lm, 1, prompt, 4);

  ServerOptions so;
  so.workers = 1;
  InferenceServer server(so);
  // Large enough that the batch outlasts the step deadline's purge even on
  // a loaded host (the Server-level mirror uses the same size).
  constexpr std::size_t kBulk = 8192;
  ModelConfig bulk;
  bulk.batching.max_batch = static_cast<int>(kBulk);
  bulk.batching.max_delay = 10s;
  bulk.queue.capacity = kBulk;
  server.register_model("bulk", f.session.network(), bulk);
  server.register_model("lm", f.session.network(), slow_config(5ms));

  SessionManagerOptions mo;
  mo.token_deadline = 300us;
  SessionManager mgr(server, mo);
  mgr.register_lm("lm", f.lm);

  std::vector<std::future<QTensor>> bulk_futs;
  bulk_futs.reserve(kBulk);
  for (std::size_t i = 0; i < kBulk; ++i) {
    bulk_futs.push_back(server.submit(
        "bulk", models::token_lm_input(f.lm, static_cast<int>(i) % f.lm.vocab, nullptr)));
  }
  // Once the batch is handed to the worker, no worker is free until it
  // completes.
  while (server.model_stats("bulk").dispatched < kBulk) std::this_thread::yield();

  const SessionId id = mgr.open_session("lm");
  std::future<GenerationResult> gen = mgr.generate_async(id, prompt, 4);
  // The first step's deadline must expire while the saturating batch is
  // still in flight: the purge runs on the scheduler, not on a worker.
  while (server.model_stats("lm").deadline_expired == 0) std::this_thread::yield();
  EXPECT_EQ(server.model_stats("bulk").admission.completed, 0u)
      << "step deadline expired only after the saturating batch completed";

  const GenerationResult r = gen.get();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.tokens, ref);  // misses cost latency, never tokens
  EXPECT_GE(r.deadline_misses, 1u);

  server.drain();
  for (auto& fut : bulk_futs) fut.get();
  EXPECT_EQ(server.model_stats("bulk").admission.completed, kBulk);
}

TEST(Sessions, ShedMidGenerationNeverLosesOrDuplicatesTokens) {
  // A 1 us per-token deadline is unmeetable under execution-aware admission:
  // the remaining-execution estimate exceeds the slack at every scheduler
  // pass, so each step's first attempt is refused (kDeadlineExpired) before
  // a worker is wasted on it. Every miss retries deadline-free, so the
  // emitted stream must match the undeadlined reference token for token —
  // no losses, no duplicates — while the ledger records one shed per miss.
  LmFixture& f = lm_fixture();
  const std::vector<int> prompt = {3, 1};
  const std::vector<int> ref = generate_tokens(f.session, f.lm, 1, prompt, 6);

  ServerOptions so;
  so.workers = 1;
  InferenceServer server(so);
  server.register_model("lm", f.session.network());
  SessionManagerOptions mo;
  mo.token_deadline = 1us;
  SessionManager mgr(server, mo);
  mgr.register_lm("lm", f.lm);

  const SessionId id = mgr.open_session("lm");
  const GenerationResult r = mgr.generate(id, prompt, 6);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.tokens, ref);
  EXPECT_GE(r.deadline_misses, 1u);

  // A future resolves before its worker books the completion; drain() waits
  // for the books to close.
  server.drain();
  const ModelStats ms = server.model_stats("lm");
  EXPECT_EQ(ms.deadline_expired, r.deadline_misses);
  EXPECT_EQ(ms.admission.shed, r.deadline_misses);
  EXPECT_EQ(ms.admission.failed, 0u);
  // Steps = misses (first attempts) + completions (retries): the ledger
  // balances exactly.
  EXPECT_EQ(ms.admission.accepted, ms.admission.completed + ms.admission.shed);
}

// --- affinity + stats rollup -------------------------------------------------

TEST(Sessions, StickyPlacementYieldsAffinityHits) {
  LmFixture& f = lm_fixture();
  ServerOptions so;
  so.workers = 1;
  bswp::SessionServer srv(so);
  srv.add("lm", f.session, f.lm);
  const SessionId id = srv.open("lm");
  srv.generate(id, {1, 2}, 16);

  ServerStats s = srv.stats();
  // Sequential keyed steps on one worker: the first dispatch has no sticky
  // entry (miss), every later one lands on it (hit).
  EXPECT_GT(s.session_affinity_hits, 0u);
  EXPECT_GT(s.session_affinity_hits + s.session_affinity_misses, 0u);
  EXPECT_GT(s.sessions.affinity_hit_rate, 0.5);
  ASSERT_EQ(s.models.size(), 1u);
  EXPECT_EQ(s.models[0].session_affinity_hits, s.session_affinity_hits);
}

TEST(Sessions, StatsRollupCountsTokensAndThroughput) {
  LmFixture& f = lm_fixture();
  bswp::SessionServer srv;
  srv.add("lm", f.session, f.lm);
  EXPECT_GE(srv.worker_count(), 1);

  const SessionId a = srv.open("lm");
  const SessionId b = srv.open("lm");
  srv.generate(a, {1}, 12);
  srv.generate(b, {2}, 6);

  const SessionServingStats s = srv.stats().sessions;
  EXPECT_EQ(s.tokens, 18u);
  EXPECT_EQ(s.generations, 2u);
  EXPECT_EQ(s.cancelled, 0u);
  EXPECT_EQ(s.active_sessions, 2u);
  EXPECT_EQ(s.peak_sessions, 2u);
  EXPECT_GT(s.tokens_per_s, 0.0);
  EXPECT_EQ(s.token_latency.count, 18u);
  EXPECT_GT(s.token_latency.p99_us, 0.0);

  const SessionStats sa = srv.session_stats(a);
  EXPECT_EQ(sa.id, a);
  EXPECT_EQ(sa.model, "lm");
  EXPECT_EQ(sa.tokens, 12u);
  EXPECT_EQ(sa.token_latency.count, 12u);
  EXPECT_GT(sa.tokens_per_s, 0.0);
  EXPECT_EQ(srv.session_stats(b).tokens, 6u);
}

}  // namespace
}  // namespace bswp::runtime
