// Warm-resume checkpoint tests: the format round trip, the dominance
// rule, and the acceptance property — a run resumed from a persisted
// out-of-budget boundary is bit-identical (verdict, counterexample,
// explored/stored/transition counts) to a cold run with the same larger
// budget, across thread counts and over randomized synthesized models.
#include <gtest/gtest.h>

#include <algorithm>

#include "campaign/scenario.hpp"
#include "fuzz/grammar.hpp"
#include "scenarios/builder.hpp"
#include "sim/random.hpp"
#include "util/binio.hpp"
#include "util/text.hpp"
#include "verify/checkpoint.hpp"
#include "verify/model.hpp"

namespace ptecps::verify {
namespace {

/// A random Theorem-1-consistent N ∈ {2, 3} model, judged when
/// `breakable` (with probability 1/2) against a dwell ceiling of 30–70 %
/// of ξ1's lease.
CompiledModel synthesized_model(std::uint64_t seed, bool breakable) {
  sim::Rng rng(seed);
  const std::size_t n_remotes = 2 + static_cast<std::size_t>(rng.uniform_int(2));
  scenarios::ScenarioParams params;
  params.config = fuzz::random_config(rng, n_remotes);
  params.mode = campaign::RunMode::kVerify;
  if (breakable && rng.bernoulli(0.5))
    params.dwell_bound = params.config.entity(1).t_run_max * rng.uniform(0.3, 0.7);
  return compile_model(scenarios::build(params).verify_input());
}

VerifyOptions small_budget(std::size_t max_states) {
  VerifyOptions opt;
  opt.max_losses = 1;
  opt.max_injections = 1;
  opt.max_states = max_states;
  return opt;
}

/// Everything the acceptance bar compares, as one string.
std::string fingerprint(const VerifyResult& r) {
  std::string out = util::cat(verify_status_str(r.status), ";", r.states_explored, ";",
                              r.states_stored, ";", r.transitions);
  if (r.counterexample.has_value())
    out += ";" + r.counterexample->to_json().dump_canonical();
  return out;
}

TEST(Checkpoint, HeaderRoundTripAndRejection) {
  Checkpoint ck;
  ck.max_losses = 3;
  ck.max_injections = 1;
  ck.max_input_changes = 2;
  ck.max_states = 5000;
  ck.check_embedding = false;
  ck.por = false;
  ck.clocks = 17;
  ck.explored = 4321;
  ck.transitions = 98765;
  ck.state = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> bytes = ck.serialize();
  const Checkpoint back = Checkpoint::deserialize(bytes.data(), bytes.size());
  EXPECT_EQ(back.max_losses, ck.max_losses);
  EXPECT_EQ(back.max_injections, ck.max_injections);
  EXPECT_EQ(back.max_input_changes, ck.max_input_changes);
  EXPECT_EQ(back.max_states, ck.max_states);
  EXPECT_EQ(back.check_dwell_bound, ck.check_dwell_bound);
  EXPECT_EQ(back.check_embedding, ck.check_embedding);
  EXPECT_EQ(back.por, ck.por);
  EXPECT_EQ(back.subsumption, ck.subsumption);
  EXPECT_EQ(back.clocks, ck.clocks);
  EXPECT_EQ(back.explored, ck.explored);
  EXPECT_EQ(back.transitions, ck.transitions);
  EXPECT_EQ(back.state, ck.state);

  // Bad magic, truncation, and version skew all fail loudly.
  std::vector<std::uint8_t> bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_THROW(Checkpoint::deserialize(bad.data(), bad.size()), util::BinError);
  EXPECT_THROW(Checkpoint::deserialize(bytes.data(), bytes.size() - 3), util::BinError);
  bad = bytes;
  bad[4] = 99;  // format field
  EXPECT_THROW(Checkpoint::deserialize(bad.data(), bad.size()), util::BinError);
}

TEST(Checkpoint, DominanceRule) {
  Checkpoint ck;
  ck.max_losses = 1;
  ck.max_injections = 1;
  ck.max_input_changes = 1;
  ck.max_states = 100;
  ck.clocks = 10;
  ck.state = {0};

  VerifyOptions opt;
  opt.max_losses = 1;
  opt.max_injections = 1;
  opt.max_input_changes = 1;
  opt.max_states = 500;
  EXPECT_TRUE(ck.can_resume(opt, 10));

  // Equal or smaller state budget: no strict dominance.
  opt.max_states = 100;
  EXPECT_FALSE(ck.can_resume(opt, 10));
  opt.max_states = 50;
  EXPECT_FALSE(ck.can_resume(opt, 10));
  opt.max_states = 500;

  // A grown adversary budget is NOT resumable (passed states would have
  // new successors); neither is any semantic-flag or model mismatch.
  opt.max_losses = 2;
  EXPECT_FALSE(ck.can_resume(opt, 10));
  opt.max_losses = 1;
  opt.max_injections = 0;
  EXPECT_FALSE(ck.can_resume(opt, 10));
  opt.max_injections = 1;
  opt.por = false;
  EXPECT_FALSE(ck.can_resume(opt, 10));
  opt.por = true;
  EXPECT_FALSE(ck.can_resume(opt, 11));
  EXPECT_TRUE(ck.can_resume(opt, 10));

  // An empty-state header (a final verdict's capture) never resumes.
  ck.state.clear();
  EXPECT_FALSE(ck.can_resume(opt, 10));
}

TEST(Checkpoint, OutOfBudgetRunCapturesResumableState) {
  const CompiledModel model = synthesized_model(7, false);
  Checkpoint ck;
  const VerifyOptions opt = small_budget(40);
  const VerifyResult r = verify_pte(model, opt, nullptr, &ck);
  ASSERT_EQ(r.status, VerifyStatus::kOutOfBudget);
  EXPECT_FALSE(r.resumed);
  EXPECT_FALSE(ck.empty());
  EXPECT_EQ(ck.clocks, model.clocks.count);
  EXPECT_LE(ck.explored, opt.max_states + r.states_stored);
  VerifyOptions bigger = opt;
  bigger.max_states = 100000;
  EXPECT_TRUE(ck.can_resume(bigger, model.clocks.count));
}

TEST(Checkpoint, ProvedRunCapturesNothing) {
  const CompiledModel model = synthesized_model(7, false);
  Checkpoint ck;
  const VerifyResult r = verify_pte(model, small_budget(1'000'000), nullptr, &ck);
  ASSERT_EQ(r.status, VerifyStatus::kProved);
  EXPECT_TRUE(ck.empty());
}

// The acceptance property: resumed == cold, bit for bit, over randomized
// synthesized models (proved and violating), several budget staircases,
// and different thread counts on each side of the resume.
TEST(Checkpoint, ResumeBitIdenticalToColdRun) {
  for (const std::uint64_t seed : {11u, 23u, 42u, 57u}) {
    for (const bool breakable : {false, true}) {
      const CompiledModel model = synthesized_model(seed, breakable);

      VerifyOptions big = small_budget(200'000);
      const VerifyResult cold = verify_pte(model, big);

      VerifyOptions small = small_budget(30);
      small.threads = 2;  // capture on 2 threads, resume on 1 and 2
      Checkpoint ck;
      const VerifyResult first = verify_pte(model, small, nullptr, &ck);
      if (first.status != VerifyStatus::kOutOfBudget) {
        // Model too small to truncate at 30 states; nothing to resume.
        EXPECT_TRUE(ck.empty());
        continue;
      }
      ASSERT_FALSE(ck.empty()) << "seed " << seed;

      for (const std::size_t resume_threads : {1u, 2u}) {
        VerifyOptions opts = big;
        opts.threads = resume_threads;
        const VerifyResult warm = verify_pte(model, opts, &ck, nullptr);
        EXPECT_TRUE(warm.resumed) << "seed " << seed;
        EXPECT_EQ(fingerprint(warm), fingerprint(cold))
            << "seed " << seed << " breakable " << breakable << " threads "
            << resume_threads;
        // Warm resume re-explores only the delta beyond the boundary.
        EXPECT_GE(warm.states_explored, ck.explored);
      }
    }
  }
}

TEST(Checkpoint, StaircaseResumeMatchesCold) {
  const CompiledModel model = synthesized_model(99, false);
  const VerifyResult cold = verify_pte(model, small_budget(200'000));

  Checkpoint ck;
  VerifyResult last = verify_pte(model, small_budget(25), nullptr, &ck);
  ASSERT_EQ(last.status, VerifyStatus::kOutOfBudget);
  std::size_t budget = 25;
  int resumes = 0;
  while (last.status == VerifyStatus::kOutOfBudget && budget < 200'000) {
    budget *= 8;
    Checkpoint next;
    VerifyOptions opt = small_budget(std::min<std::size_t>(budget, 200'000));
    last = verify_pte(model, opt, &ck, &next);
    if (last.resumed) ++resumes;
    ck = std::move(next);
  }
  EXPECT_GE(resumes, 1);
  EXPECT_EQ(fingerprint(last), fingerprint(cold));
}

TEST(Checkpoint, CorruptStateFallsBackToColdRun) {
  const CompiledModel model = synthesized_model(7, false);
  Checkpoint ck;
  ASSERT_EQ(verify_pte(model, small_budget(40), nullptr, &ck).status,
            VerifyStatus::kOutOfBudget);
  ASSERT_FALSE(ck.empty());

  const VerifyResult cold = verify_pte(model, small_budget(200'000));

  // Truncate the state bytes: restore throws internally, the run falls
  // back cold and still returns the right answer.
  Checkpoint broken = ck;
  broken.state.resize(broken.state.size() / 2);
  VerifyOptions big = small_budget(200'000);
  const VerifyResult r = verify_pte(model, big, &broken, nullptr);
  EXPECT_FALSE(r.resumed);
  EXPECT_EQ(fingerprint(r), fingerprint(cold));
}

}  // namespace
}  // namespace ptecps::verify
