// The coverage map's own guarantees, the guided mutator's soundness, and
// the small-scope model checker's meta-properties. The load-bearing claims:
// a run's protocol-state bitmap is byte-identical across repeat runs (so CI
// can compare maps exactly), mutation never produces an invalid schedule (so a
// guided campaign spends its whole budget on real runs), guided search
// strictly out-covers fresh-random at equal budget (the reason the mode
// exists), and the exhaustive checker both proves clean small scopes AND
// finds a planted canary, shrinking it to a replayable reproducer.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/rng.hpp"
#include "fuzz/coverage.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/mcheck.hpp"
#include "fuzz/runner.hpp"
#include "fuzz/schedule.hpp"
#include "obs/metrics.hpp"

namespace sgxp2p::fuzz {
namespace {

constexpr FuzzTarget kAllTargets[] = {
    FuzzTarget::kErb, FuzzTarget::kErngBasic, FuzzTarget::kErngOpt,
    FuzzTarget::kRecovery, FuzzTarget::kShard};

std::int64_t gauge_value(const obs::MetricsSnapshot& snap,
                         const std::string& name) {
  for (const auto& g : snap.gauges) {
    if (g.name == name) return g.value;
  }
  return -1;
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  const auto* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0;
}

TEST(CoverageMapUnit, SetTestCountAndSetOperations) {
  CoverageMap a;
  EXPECT_TRUE(a.empty());
  a.hit("oracle:erb.agreement:fail");
  a.hit("rounds=4");
  EXPECT_EQ(a.count(), 2u);
  EXPECT_TRUE(a.test(CoverageMap::feature_bit("rounds=4")));

  CoverageMap b;
  b.hit("rounds=4");
  EXPECT_TRUE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
  EXPECT_EQ(b.novel_bits(a), 1u);  // a has one bit b lacks
  EXPECT_EQ(a.novel_bits(b), 0u);
  EXPECT_EQ(b.merge(a), 1u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.merge(a), 0u);  // idempotent
}

TEST(CoverageMapUnit, FeatureBitIsStableAndInRange) {
  const std::size_t bit = CoverageMap::feature_bit("t=erb:fault:none");
  EXPECT_EQ(bit, CoverageMap::feature_bit("t=erb:fault:none"));
  EXPECT_LT(bit, CoverageMap::kBits);
  EXPECT_NE(bit, CoverageMap::feature_bit("t=erb:fault:drop"));
}

TEST(CoverageMapUnit, TextRoundTripIsIdentity) {
  CoverageMap a;
  a.hit("oracle:erb.termination:ok");
  a.hit("state:*:decided");
  a.set(0);
  a.set(CoverageMap::kBits - 1);
  std::string error;
  auto back = CoverageMap::from_text(a.to_text(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(*back, a);
  EXPECT_EQ(back->to_text(), a.to_text());

  EXPECT_FALSE(CoverageMap::from_text("not-a-map\n", &error).has_value());
}

// The determinism contract CI relies on: the same schedule produces a
// byte-identical coverage map and run digest across repeat runs. This is
// what lets the nightly distillation pass reproduce a campaign's aggregate
// from schedules alone.
TEST(CoverageRun, SameScheduleByteIdenticalAcrossEngines) {
  for (FuzzTarget target : kAllTargets) {
    Schedule s = generate_schedule(target, 5, 11);

    RunReport a = run_schedule(s, {});
    RunReport b = run_schedule(s, {});

    EXPECT_GT(a.coverage.count(), 0u) << target_name(target);
    EXPECT_EQ(a.coverage.to_text(), b.coverage.to_text())
        << target_name(target);
    EXPECT_EQ(a.digest, b.digest) << target_name(target);
  }
}

// Novelty detection: a schedule the aggregate has already absorbed
// contributes zero new bits; a different schedule contributes some.
TEST(CoverageRun, KnownScheduleAddsZeroBits) {
  Schedule s = generate_schedule(FuzzTarget::kErb, 3, 1);
  RunReport first = run_schedule(s, {});
  CoverageMap aggregate;
  EXPECT_GT(aggregate.merge(first.coverage), 0u);
  RunReport again = run_schedule(s, {});
  EXPECT_EQ(aggregate.merge(again.coverage), 0u);
}

// Every mutant the guided campaign can produce passes Schedule::validate —
// the mutator never hands the runner an unsound fault script.
TEST(CoverageMutation, MutantsAlwaysValidate) {
  for (FuzzTarget target : kAllTargets) {
    Rng rng(0xfeedULL + static_cast<std::uint64_t>(target));
    for (std::uint32_t index : {0u, 7u, 23u}) {
      Schedule parent = generate_schedule(target, 11, index);
      for (int i = 0; i < 16; ++i) {
        Schedule mutant = mutate_schedule(parent, rng);
        std::string error;
        EXPECT_TRUE(mutant.validate(&error))
            << target_name(target) << " index " << index << ": " << error;
        EXPECT_TRUE(mutant.expect_violations.empty());
        EXPECT_TRUE(mutant.expect_digest.empty());
      }
    }
  }
}

TEST(CoverageMutation, SameRngSeedSameMutant) {
  Schedule parent = generate_schedule(FuzzTarget::kRecovery, 4, 9);
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(mutate_schedule(parent, a).to_text(),
              mutate_schedule(parent, b).to_text());
  }
}

// Guided campaigns keep a corpus and report it through the fuzz.* gauges on
// the campaign registry (never the hermetic per-run registries).
TEST(CoverageCampaign, GuidedBuildsCorpusAndSetsGauges) {
  const std::string dir = ::testing::TempDir() + "sgxp2p_guided_corpus";
  std::filesystem::create_directories(dir);

  obs::MetricsRegistry campaign;
  CampaignResult result;
  {
    obs::MetricsRegistry::ScopedCurrent scoped(campaign);
    CampaignOptions options;
    options.targets = {FuzzTarget::kErb};
    options.seed = 7;
    options.schedules = 100;
    options.coverage_guided = true;
    options.corpus_dir = dir;
    result = run_campaign(options);
  }
  EXPECT_TRUE(result.clean());
  EXPECT_GT(result.coverage.count(), 0u);
  EXPECT_GT(result.corpus_size, 0u);

  auto snap = campaign.snapshot();
  EXPECT_EQ(gauge_value(snap, "fuzz.coverage_bits"),
            static_cast<std::int64_t>(result.coverage.count()));
  EXPECT_EQ(gauge_value(snap, "fuzz.corpus_size"),
            static_cast<std::int64_t>(result.corpus_size));

  // Every corpus-retained schedule landed on disk and replays cleanly.
  std::size_t written = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".sched") continue;
    std::string error;
    auto s = Schedule::load_file(entry.path().string(), &error);
    ASSERT_TRUE(s.has_value()) << entry.path() << ": " << error;
    EXPECT_TRUE(s->validate(&error)) << error;
    ++written;
  }
  EXPECT_EQ(written, result.corpus_size);
  std::filesystem::remove_all(dir);
}

// Same budget, same seed pool: the guided campaign must be deterministic
// AND strictly out-cover fresh-random. This is the acceptance check for the
// guided mode; at 2×2000 schedules it runs ~15 s, so it lives behind the
// slow label (FuzzCoverageScale.* in SGXP2P_SLOW_FILTER) and the nightly /
// coverage lanes run it.
TEST(FuzzCoverageScale, GuidedStrictlyOutCoversRandomAt2000) {
  CampaignOptions random;
  random.targets = {FuzzTarget::kErb};
  random.seed = 7;
  random.schedules = 2000;
  CampaignResult random_result = run_campaign(random);

  CampaignOptions guided = random;
  guided.coverage_guided = true;
  CampaignResult guided_result = run_campaign(guided);
  CampaignResult guided_again = run_campaign(guided);

  EXPECT_EQ(guided_result.coverage, guided_again.coverage);
  EXPECT_EQ(guided_result.corpus_size, guided_again.corpus_size);
  EXPECT_GT(guided_result.coverage.count(), random_result.coverage.count())
      << "guided search no longer out-covers fresh-random at equal budget";
}

// The checker exhausts the n=3 / 2-round / bound-2 ERB scope without
// finding anything (the protocol is clean there), counts real exploration
// and real pruning, and publishes both through mcheck.* counters.
TEST(ModelCheck, ExhaustsSmallErbScopeClean) {
  obs::MetricsRegistry registry;
  ModelCheckResult result;
  {
    obs::MetricsRegistry::ScopedCurrent scoped(registry);
    ModelCheckOptions options;
    options.target = FuzzTarget::kErb;
    options.n = 3;
    options.rounds = 2;
    options.bound = 2;
    result = check_model(options);
  }
  EXPECT_TRUE(result.exhausted);
  EXPECT_TRUE(result.clean());
  EXPECT_GT(result.states_explored, 0u);
  EXPECT_GT(result.states_pruned, 0u);
  EXPECT_GT(result.coverage.count(), 0u);

  auto snap = registry.snapshot();
  EXPECT_EQ(counter_value(snap, "mcheck.states_explored"),
            result.states_explored);
  EXPECT_EQ(counter_value(snap, "mcheck.states_pruned"),
            result.states_pruned);
}

TEST(ModelCheck, DeterministicAcrossRuns) {
  ModelCheckOptions options;
  options.target = FuzzTarget::kErngBasic;
  ModelCheckResult a = check_model(options);
  ModelCheckResult b = check_model(options);
  EXPECT_EQ(a.states_explored, b.states_explored);
  EXPECT_EQ(a.states_pruned, b.states_pruned);
  EXPECT_EQ(a.coverage, b.coverage);
}

// Planted-canary meta-test: arm the deliberately-too-strong canary oracle
// and the enumerator must find it, shrink it, and write a reproducer that
// replays byte-identically — proving the find→shrink→replay loop end to
// end for the exhaustive path, exactly as test_fuzz.cpp proves it for the
// random path.
TEST(ModelCheck, CanaryFoundShrunkAndReplayable) {
  const std::string dir = ::testing::TempDir() + "sgxp2p_mcheck_canary";
  std::filesystem::create_directories(dir);

  ModelCheckOptions options;
  options.target = FuzzTarget::kErb;
  options.canary = true;
  options.out_dir = dir;
  options.max_emitted = 1;
  ModelCheckResult result = check_model(options);

  EXPECT_GT(result.violations_found, 0u);
  ASSERT_FALSE(result.violations.empty());
  const ModelCheckViolation& v = result.violations[0];
  EXPECT_LE(v.shrunk.actions.size(), 8u);
  ASSERT_FALSE(v.repro_path.empty());

  ReplayResult replay = replay_schedule_file(v.repro_path);
  EXPECT_TRUE(replay.ok) << replay.message;
  EXPECT_EQ(replay.report.digest, v.report.digest);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sgxp2p::fuzz
