// The schedule fuzzer's own guarantees: generation is a pure function of
// (seed, index, target), runs are digest-deterministic, the shrinker
// converges on a planted canary, and every pinned corpus schedule replays
// byte-identically. These are what make a CI fuzz failure actionable — the
// artifact it uploads is exactly reproducible on a laptop.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/fuzzer.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/runner.hpp"
#include "fuzz/schedule.hpp"
#include "fuzz/shrinker.hpp"
#include "obs/metrics.hpp"

namespace sgxp2p::fuzz {
namespace {

TEST(ScheduleFuzzFormat, TextRoundTripIsIdentity) {
  for (FuzzTarget target :
       {FuzzTarget::kErb, FuzzTarget::kErngBasic, FuzzTarget::kErngOpt,
        FuzzTarget::kRecovery, FuzzTarget::kShard}) {
    Schedule s = generate_schedule(target, 7, 3);
    s.expect_violations = {"erb.agreement"};
    s.expect_digest = "00ff";
    std::string error;
    auto back = Schedule::from_text(s.to_text(), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->to_text(), s.to_text());
    EXPECT_EQ(back->actions, s.actions);
  }
}

TEST(ScheduleFuzzFormat, ValidateRejectsUnsoundSchedules) {
  Schedule s = generate_schedule(FuzzTarget::kErb, 1, 0);
  std::string error;
  ASSERT_TRUE(s.validate(&error)) << error;

  Schedule over_budget = s;
  for (NodeId id = 0; id < over_budget.n; ++id) {
    over_budget.actions.push_back({ActionKind::kDrop, id, 1, kNoNode, 0});
  }
  EXPECT_FALSE(over_budget.validate(&error));

  Schedule starved = s;
  starved.max_rounds = 1;  // below the t+3 liveness horizon
  EXPECT_FALSE(starved.validate(&error));

  // A recovering victim occupies a byzantine slot: t−1 extras max.
  Schedule rec = generate_schedule(FuzzTarget::kRecovery, 1, 93);
  ASSERT_TRUE(rec.validate(&error)) << error;
  const auto recover = std::find_if(
      rec.actions.begin(), rec.actions.end(),
      [](const FaultAction& a) { return a.kind == ActionKind::kRecover; });
  if (recover != rec.actions.end()) {
    Schedule greedy = rec;
    std::size_t extras = greedy.faulted_nodes().size();
    for (NodeId id = 1; id < greedy.n - 1 && extras < greedy.t; ++id) {
      if (id == 2 || id == recover->node) continue;
      greedy.actions.push_back({ActionKind::kDrop, id, 1, kNoNode, 0});
      ++extras;
    }
    EXPECT_FALSE(greedy.validate(&error));
  }
}

TEST(ScheduleFuzzGenerator, SameSeedIsByteIdentical) {
  for (FuzzTarget target :
       {FuzzTarget::kErb, FuzzTarget::kErngBasic, FuzzTarget::kErngOpt,
        FuzzTarget::kRecovery, FuzzTarget::kShard}) {
    for (std::uint32_t index : {0u, 17u, 93u}) {
      Schedule a = generate_schedule(target, 42, index);
      Schedule b = generate_schedule(target, 42, index);
      EXPECT_EQ(a.to_text(), b.to_text());
    }
    EXPECT_NE(generate_schedule(target, 42, 0).to_text(),
              generate_schedule(target, 42, 1).to_text());
  }
}

TEST(ScheduleFuzzRunner, RunDigestIsDeterministic) {
  for (FuzzTarget target :
       {FuzzTarget::kErb, FuzzTarget::kErngBasic, FuzzTarget::kErngOpt,
        FuzzTarget::kRecovery, FuzzTarget::kShard}) {
    Schedule s = generate_schedule(target, 5, 11);
    RunReport a = run_schedule(s, {});
    RunReport b = run_schedule(s, {});
    EXPECT_FALSE(a.digest.empty());
    EXPECT_EQ(a.digest, b.digest) << target_name(target);
    EXPECT_EQ(a.outcome, b.outcome) << target_name(target);
    EXPECT_EQ(a.violated_oracles(), b.violated_oracles());
  }
}

TEST(ScheduleFuzzCampaign, CanaryFoundShrunkAndReplayable) {
  const std::string dir = ::testing::TempDir() + "sgxp2p_fuzz_canary";
  std::filesystem::create_directories(dir);

  CampaignOptions options;
  options.targets = {FuzzTarget::kErb};
  options.seed = 1;
  options.schedules = 500;
  options.canary = true;
  options.out_dir = dir;
  options.max_failures = 1;
  CampaignResult result = run_campaign(options);

  // The too-strong canary oracle must trip within the PR smoke budget…
  ASSERT_EQ(result.failures.size(), 1u);
  const CampaignFailure& failure = result.failures[0];
  EXPECT_LT(failure.index, 500u);
  // …and shrink to a handful of actions.
  EXPECT_LE(failure.shrunk.actions.size(), 8u);
  ASSERT_FALSE(failure.repro_path.empty());

  // The written reproducer replays byte-identically (violations + digest).
  ReplayResult replay = replay_schedule_file(failure.repro_path);
  EXPECT_TRUE(replay.ok) << replay.message;
  EXPECT_EQ(replay.report.digest, failure.report.digest);

  std::filesystem::remove_all(dir);
}

// Campaign bookkeeping lands in the caller's registry (fuzz.* namespace),
// never in the hermetic per-run registries the digests are computed over.
TEST(ScheduleFuzzCampaign, FuzzMetricsCountOnCampaignRegistry) {
  obs::MetricsRegistry campaign;
  obs::MetricsRegistry::ScopedCurrent scoped(campaign);
  CampaignOptions options;
  options.targets = {FuzzTarget::kErb};
  options.seed = 2;
  options.schedules = 3;
  CampaignResult result = run_campaign(options);
  EXPECT_TRUE(result.clean());
  auto snap = campaign.snapshot();
  const auto* schedules = snap.find_counter("fuzz.schedules");
  ASSERT_NE(schedules, nullptr);
  EXPECT_EQ(schedules->value, 3u);
  EXPECT_EQ(snap.find_counter("fuzz.failures")->value, 0u);
  EXPECT_EQ(snap.find_counter("fuzz.violations")->value, 0u);
  EXPECT_EQ(snap.find_counter("fuzz.shrink_runs")->value, 0u);
}

TEST(ScheduleFuzzCorpus, PinnedSchedulesReplayByteIdentically) {
  const std::filesystem::path corpus(SGXP2P_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(corpus)) << corpus;
  int replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.path().extension() != ".sched") continue;
    ReplayResult replay = replay_schedule_file(entry.path().string());
    EXPECT_TRUE(replay.ok)
        << entry.path().filename() << ": " << replay.message;
    ++replayed;
  }
  // One pinned schedule per fuzz target.
  EXPECT_GE(replayed, 5);
}

// ----- the shared ERB/ERNG judge, on hand-built reports -----

using Names = std::vector<std::string>;

scenario::NodeReport pending() {
  scenario::NodeReport r;
  r.live = true;
  r.honest = true;
  return r;
}

scenario::NodeReport decided(const std::string& value) {
  scenario::NodeReport r = pending();
  r.done = true;
  r.value = to_bytes(value);
  return r;
}

scenario::NodeReport bottom() {
  scenario::NodeReport r = pending();
  r.done = true;
  r.bottom = true;
  return r;
}

scenario::NodeReport faulted(scenario::NodeReport r) {
  r.honest = false;
  return r;
}

scenario::NodeReport dead() {
  scenario::NodeReport r;
  r.honest = true;
  return r;
}

Names oracles(std::vector<scenario::NodeReport> nodes, bool erb,
              bool canary = false) {
  scenario::Report report;
  report.rounds = 5;
  report.nodes = std::move(nodes);
  RunReport run;
  run.violations = erb ? judge_erb(report, 0, to_bytes("m"), canary)
                       : judge_erng(report);
  return run.violated_oracles();
}

TEST(FuzzJudge, ErbTerminationFiresOnAnUndecidedHonestNode) {
  EXPECT_EQ(oracles({decided("m"), decided("m"), pending()}, true),
            Names{oracle::kErbTermination});
}

TEST(FuzzJudge, ErbAgreementFiresOnTwoHonestValues) {
  // A faulted initiator leaves validity out of it.
  EXPECT_EQ(oracles({faulted(decided("m")), decided("a"), decided("b")}, true),
            Names{oracle::kErbAgreement});
  EXPECT_EQ(oracles({faulted(decided("m")), decided("a"), bottom()}, true),
            Names{oracle::kErbAgreement});
  EXPECT_EQ(oracles({faulted(decided("m")), bottom(), bottom()}, true),
            Names{});
}

TEST(FuzzJudge, ErbValidityFiresOnBottomOrForeignDecisionOfHonestInitiator) {
  EXPECT_EQ(oracles({bottom(), bottom(), bottom()}, true),
            Names{oracle::kErbValidity});
  EXPECT_EQ(oracles({decided("x"), decided("x"), decided("x")}, true),
            Names{oracle::kErbValidity});
  EXPECT_EQ(oracles({decided("m"), decided("m"), decided("m")}, true), Names{});
}

TEST(FuzzJudge, CanaryFiresOnlyWhenArmed) {
  const std::vector<scenario::NodeReport> nodes{faulted(decided("m")),
                                                bottom(), bottom()};
  EXPECT_EQ(oracles(nodes, true, /*canary=*/false), Names{});
  EXPECT_EQ(oracles(nodes, true, /*canary=*/true),
            Names{oracle::kCanaryNoBottom});
}

TEST(FuzzJudge, ErngTerminationAndAgreement) {
  EXPECT_EQ(oracles({decided("r"), pending()}, false),
            Names{oracle::kErngTermination});
  EXPECT_EQ(oracles({decided("r"), decided("s")}, false),
            Names{oracle::kErngAgreement});
  EXPECT_EQ(oracles({decided("r"), bottom()}, false),
            Names{oracle::kErngAgreement});
  EXPECT_EQ(oracles({bottom(), decided("r")}, false),
            Names{oracle::kErngAgreement});
  EXPECT_EQ(oracles({bottom(), bottom()}, false), Names{});
  EXPECT_EQ(oracles({decided("r"), decided("r")}, false), Names{});
}

TEST(FuzzJudge, DeadAndFaultedNodesNeverFire) {
  const std::vector<scenario::NodeReport> nodes{
      decided("m"), dead(), faulted(pending()), faulted(decided("x")),
      faulted(bottom())};
  EXPECT_EQ(oracles(nodes, true, /*canary=*/true), Names{});
  EXPECT_EQ(oracles(nodes, false), Names{});
}

}  // namespace
}  // namespace sgxp2p::fuzz
