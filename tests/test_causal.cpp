// Causal-tracing tests: the span/cause DAG is deterministic (same seed,
// same bytes), satisfies the conservation oracle on real protocol runs, the
// critical-path analyzer attributes every virtual millisecond of a decide's
// latency, the enclave-transition cost model charges the simulator clock and
// shows up on the path, and the Perfetto export is valid JSON.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fuzz/generator.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/runner.hpp"
#include "obs/causal.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sgx/transition.hpp"
#include "testbed_util.hpp"

namespace sgxp2p {
namespace {

using obs::CausalGraph;
using obs::MetricsRegistry;
using obs::TraceRecorder;

struct TracedRun {
  std::string jsonl;
  obs::MetricsSnapshot snapshot;
};

/// One fully traced honest ERB execution (N=8).
TracedRun run_erb_traced(std::uint64_t seed, sgx::TransitionCosts costs = {}) {
  MetricsRegistry::global().reset();
  TraceRecorder& tr = TraceRecorder::global();
  tr.enable();
  tr.reset();
  auto cfg = testutil::small_config(8, seed);
  cfg.net.seed = seed;
  cfg.sgx_costs = costs;
  sim::Testbed bed(cfg);
  bed.build(testutil::erb_factory(0, to_bytes("causal payload")));
  bed.start();
  bed.run_rounds(bed.config().effective_t() + 4,
                 testutil::all_honest_erb_decided(bed));
  TracedRun out;
  out.jsonl = tr.to_jsonl();
  out.snapshot = MetricsRegistry::global().snapshot();
  tr.disable();
  return out;
}

/// One fully traced honest ERNG-opt execution (N=8, t=2).
TracedRun run_erng_opt_traced(std::uint64_t seed) {
  MetricsRegistry::global().reset();
  TraceRecorder& tr = TraceRecorder::global();
  tr.enable();
  tr.reset();
  auto cfg = testutil::small_config(8, seed);
  cfg.net.seed = seed;
  cfg.t = 2;
  sim::Testbed bed(cfg);
  bed.build(testutil::erng_opt_factory());
  bed.start();
  bed.run_rounds(cfg.n + 8,
                 testutil::all_honest_done<protocol::ErngOptNode>(bed));
  TracedRun out;
  out.jsonl = tr.to_jsonl();
  out.snapshot = MetricsRegistry::global().snapshot();
  tr.disable();
  return out;
}

// --- determinism: the DAG, not just the event stream, is reproducible ---

TEST(CausalDag, SameSeedSameDagAcrossEngines) {
  TracedRun a = run_erb_traced(77);
  TracedRun b = run_erb_traced(77);
  ASSERT_FALSE(a.jsonl.empty());
  EXPECT_EQ(a.jsonl, b.jsonl) << "same-seed trace bytes diverged";
  // Span/cause really are in the bytes being compared.
  EXPECT_NE(a.jsonl.find("\"span\":"), std::string::npos);
  EXPECT_NE(a.jsonl.find("\"cause\":"), std::string::npos);
}

// --- conservation: every non-root event has exactly one recorded cause ---

TEST(CausalDag, ConservationHoldsOnErbRun) {
  TracedRun run = run_erb_traced(42);
  std::string error;
  auto graph = CausalGraph::parse(run.jsonl, &error);
  ASSERT_TRUE(graph.has_value()) << error;
  EXPECT_FALSE(graph->truncated());
  EXPECT_TRUE(graph->check_conservation().empty());
  EXPECT_GT(graph->events().size(), 0u);
}

TEST(CausalDag, ConservationHoldsOnErngOptRun) {
  TracedRun run = run_erng_opt_traced(42);
  std::string error;
  auto graph = CausalGraph::parse(run.jsonl, &error);
  ASSERT_TRUE(graph.has_value()) << error;
  EXPECT_FALSE(graph->truncated());
  for (const std::string& defect : graph->check_conservation()) {
    ADD_FAILURE() << defect;
  }
}

// The fuzzer's opt-in oracle: generated adversarial schedules (including the
// recovery target with its crash/relaunch pivots) keep the DAG sound, and
// arming the check does not perturb the run digest replays depend on.
TEST(CausalDag, FuzzRunnerOracleCleanOnGeneratedSchedules) {
  const fuzz::FuzzTarget targets[] = {fuzz::FuzzTarget::kErb,
                                      fuzz::FuzzTarget::kErngOpt,
                                      fuzz::FuzzTarget::kRecovery};
  for (fuzz::FuzzTarget target : targets) {
    fuzz::Schedule schedule = fuzz::generate_schedule(target, 5, 0);
    fuzz::RunOptions plain;
    fuzz::RunReport base = fuzz::run_schedule(schedule, plain);
    fuzz::RunOptions causal;
    causal.check_causal = true;
    fuzz::RunReport checked = fuzz::run_schedule(schedule, causal);
    EXPECT_EQ(base.digest, checked.digest)
        << "check_causal changed the digest for "
        << fuzz::target_name(target);
    for (const auto& v : checked.violations) {
      if (v.oracle == fuzz::oracle::kCausalConservation) {
        ADD_FAILURE() << fuzz::target_name(target) << ": " << v.detail;
      }
    }
  }
}

// --- critical path: attribution is exhaustive ---

TEST(CausalCriticalPath, SumsToDecideLatencyFullyAttributed) {
  TracedRun run = run_erb_traced(42);
  auto graph = CausalGraph::parse(run.jsonl);
  ASSERT_TRUE(graph.has_value());
  auto paths = graph->critical_paths();
  ASSERT_EQ(paths.size(), 8u);  // one decide per node, all honest
  std::int64_t total = 0, attributed = 0;
  for (const auto& p : paths) {
    EXPECT_EQ(p.network_ms + p.compute_ms + p.sgx_ms + p.unattributed_ms,
              p.total_ms)
        << "segments do not sum for decide span " << p.decide_span;
    EXPECT_EQ(p.unattributed_ms, 0)
        << "honest untruncated run left latency unattributed";
    EXPECT_GT(p.total_ms, 0);
    EXPECT_GT(p.network_ms, 0) << "an ERB decide always crosses the wire";
    EXPECT_EQ(p.sgx_ms, 0) << "no cost model configured, nothing to charge";
    EXPECT_FALSE(p.steps.empty());
    total += p.total_ms;
    attributed += p.attributed_ms();
  }
  // The ISSUE's acceptance bar is ≥95%; an honest run attributes everything.
  EXPECT_EQ(attributed, total);
}

// --- enclave-transition cost accounting ---

TEST(CausalSgx, TransitionCostsChargeClockAndAppearOnPath) {
  sgx::TransitionCosts costs;
  costs.ecall_ms = 2;
  costs.ocall_ms = 3;
  TracedRun plain = run_erb_traced(42);
  TracedRun charged = run_erb_traced(42, costs);

  const auto* ecalls = charged.snapshot.find_counter("sgx.ecalls");
  const auto* ocalls = charged.snapshot.find_counter("sgx.ocalls");
  const auto* cost_ms = charged.snapshot.find_counter("sgx.transition_cost_ms");
  ASSERT_NE(ecalls, nullptr);
  ASSERT_NE(ocalls, nullptr);
  ASSERT_NE(cost_ms, nullptr);
  EXPECT_GT(ecalls->value, 0u);
  EXPECT_GT(ocalls->value, 0u);
  EXPECT_EQ(cost_ms->value,
            2 * ecalls->value + 3 * ocalls->value);

  // Transition events and the per-send sgxms surcharge are in the trace.
  EXPECT_NE(charged.jsonl.find("\"sgxms\":"), std::string::npos);
  EXPECT_EQ(plain.jsonl.find("\"sgxms\":"), std::string::npos)
      << "zero-cost default must not emit surcharge fields";

  // The DAG stays sound and the surcharge lands in the sgx segment.
  auto graph = CausalGraph::parse(charged.jsonl);
  ASSERT_TRUE(graph.has_value());
  EXPECT_TRUE(graph->check_conservation().empty());
  std::int64_t sgx_total = 0;
  for (const auto& p : graph->critical_paths()) {
    EXPECT_EQ(p.network_ms + p.compute_ms + p.sgx_ms + p.unattributed_ms,
              p.total_ms);
    sgx_total += p.sgx_ms;
  }
  EXPECT_GT(sgx_total, 0) << "charged run shows no sgx time on any path";
}

// --- Perfetto export ---

TEST(CausalPerfetto, ExportRoundTripsThroughJsonParser) {
  TracedRun run = run_erb_traced(42);
  auto graph = CausalGraph::parse(run.jsonl);
  ASSERT_TRUE(graph.has_value());
  std::string json = graph->to_perfetto();
  auto doc = obs::json_parse(json);
  ASSERT_TRUE(doc.has_value()) << "Perfetto export is not valid JSON";
  const obs::JsonValue* unit = doc->get("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string, "ms");
  const obs::JsonValue* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->array.empty());
  bool saw_meta = false, saw_slice = false, saw_flow_out = false,
       saw_flow_in = false;
  for (const auto& ev : events->array) {
    const obs::JsonValue* ph = ev.get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") saw_meta = true;
    if (ph->string == "X") saw_slice = true;
    if (ph->string == "s") saw_flow_out = true;
    if (ph->string == "f") saw_flow_in = true;
  }
  EXPECT_TRUE(saw_meta) << "no process_name metadata";
  EXPECT_TRUE(saw_slice) << "no duration slices";
  EXPECT_TRUE(saw_flow_out && saw_flow_in)
      << "send→deliver flow arrows missing";
}

}  // namespace
}  // namespace sgxp2p
