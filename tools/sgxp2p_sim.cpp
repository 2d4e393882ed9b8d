// sgxp2p-sim — command-line experiment runner.
//
// Runs one protocol execution over the deterministic simulator and reports
// rounds, virtual termination time, message/byte traffic, and per-node
// outcomes. Every figure in EXPERIMENTS.md can be reproduced ad hoc from
// this tool; it is also the quickest way to explore adversary behavior.
//
//   sgxp2p-sim --protocol erb --n 512 --adversary chain --byz 128
//   sgxp2p-sim --protocol erng-opt --n 256 --csv
//   sgxp2p-sim --protocol eba --n 9 --adversary omission --byz 3
//   sgxp2p-sim --protocol recovery --n 6 --crash-at 3 --recover-after 4
//   sgxp2p-sim --protocol recovery --n 6 --stale-replay
//   sgxp2p-sim --protocol shard --n 2000 --epochs 3
//
// Flags:
//   --protocol erb|erng|erng-opt|eba|recovery|shard   (default erb)
//   --n <int>                            network size (default 9)
//   --t <int>                            byzantine bound (default (n-1)/2,
//                                        or n/3 for erng-opt)
//   --adversary none|chain|omission|crash|delay|replay   (default none)
//   --byz <int>                          byzantine node count (default 0)
//   --seed <int>                         determinism seed (default 1)
//   --delta-ms <int>                     one-way delay bound Δ (default 500)
//   --mode attested|accounted            channel mode (default attested for
//                                        n ≤ 128, else accounted)
//   --sgx-costs zero|calibrated|FILE     enclave-transition cost model
//                                        (default zero). calibrated = the
//                                        measured preset (≈3.1 µs ECALL,
//                                        ≈4.0 µs OCALL, EPC paging cliff);
//                                        FILE = JSON with any of ecall_ms,
//                                        ocall_ms, ecall_ns, ocall_ns,
//                                        epc_working_set_kb, epc_resident_kb,
//                                        epc_fault_ns
//   --sgx-working-set <MB>               per-enclave EPC working set; beyond
//                                        the resident EPC every transition
//                                        pays the paging penalty fraction
//   --csv                                one machine-readable line
//   --metrics-out [path]                 write metrics snapshot JSON
//                                        (default sim_metrics.json)
//   --trace [path]                       record + write a JSONL event trace
//                                        (default sim_trace.jsonl)
//   --trace-capacity <int>               trace ring size in events (default
//                                        2^18; raise for big-N runs so the
//                                        causal DAG keeps its roots)
//
// recovery-scenario flags (--protocol recovery): node 1 of an N-member
// roster crashes, its host keeps the sealed checkpoints, the node
// relaunches, restores (or falls back to fresh re-admission), re-attests,
// rejoins through the membership windows, then participates in the roster
// ERB that admits one more fresh node — the post-recovery liveness proof.
//   --crash-at <round>                   kill the victim's enclave (default 6)
//   --recover-after <rounds>             relaunch delay (default 4)
//   --checkpoint-every <rounds>          seal interval (default 2)
//   --stale-replay                       the victim's host answers the
//                                        restore with its OLDEST sealed blob
//                                        (rollback attempt → counter trips →
//                                        fresh re-admission path)
//
// shard-scenario flags (--protocol shard, docs/SHARDING.md): each epoch
// elects K committees of size c from the beacon seed, runs committee-local
// ERB, and stitches the digests through the dissemination tree.
//   --committee-size <int>               members per committee (default 0 =
//                                        auto c(n) ≈ log₂ n + 3)
//   --committees <int>                    alternative: target committee count
//                                        (maps to committee_size n/K; ignored
//                                        when --committee-size is given)
//   --epochs <int>                       chained epochs to run (default 1)
//
// fuzzing (src/fuzz/, docs/ROBUSTNESS.md):
//   sgxp2p-sim --fuzz 500 --protocol all --fuzz-seed 7 --fuzz-out repros/
//   sgxp2p-sim --replay-schedule repros/fuzz-erb-seed7-12.sched
//
//   --fuzz <count>                       run <count> generated adversarial
//                                        schedules per target; shrink and
//                                        write a replay file per failure.
//                                        --protocol picks the target (erb,
//                                        erng, erng-opt, recovery, shard,
//                                        or all)
//   --fuzz-seed <int>                    campaign seed (default 1)
//   --fuzz-out <dir>                     directory for replay files
//   --fuzz-max-failures <int>            stop after this many shrunk
//                                        failures (default 1)
//   --fuzz-canary                        arm the test-only canary oracle
//                                        (proves the find→shrink→replay loop)
//   --fuzz-coverage <file>               coverage-guided campaign: keep a
//                                        corpus of coverage-novel schedules,
//                                        mutate them toward untouched bitmap
//                                        regions, and write the aggregate
//                                        protocol-state CoverageMap to <file>
//                                        (inspect with sgxp2p-corpus)
//   --fuzz-corpus-out <dir>              persist every corpus-retained
//                                        schedule to <dir> (feeds the nightly
//                                        distillation pass)
//   --replay-schedule <file>             re-execute a replay file and check
//                                        its expect_violation/expect_digest
//                                        stamps byte-identically
//
// exhaustive small-scope model checking (src/fuzz/mcheck.hpp):
//   sgxp2p-sim --mcheck --protocol erb --mcheck-n 3 --mcheck-rounds 2
//   sgxp2p-sim --mcheck --protocol all --mcheck-bound 2 --fuzz-out repros/
//
//   --mcheck                             walk EVERY fault combination the
//                                        bounds below admit (DFS, validity +
//                                        symmetry pruning), judge each with
//                                        the fuzz oracles, and shrink any
//                                        violation to a replayable .sched.
//                                        --protocol picks the target(s);
//                                        --seed seeds the base deployment;
//                                        --fuzz-canary / --fuzz-out apply
//   --mcheck-n <int>                     deployment size (default 3;
//                                        recovery clamps to ≥ 5, shard ≥ 4)
//   --mcheck-rounds <int>                fault-action round horizon
//                                        (default 2)
//   --mcheck-bound <int>                 max simultaneous fault actions per
//                                        explored schedule (default 2)
//   --transport sim|tcp                  fuzz/replay data plane (default
//                                        sim). tcp runs each schedule over
//                                        real localhost sockets through
//                                        TcpFaultShim; only erb/erng
//                                        schedules without crash/recover/
//                                        stale_seal are expressible — the
//                                        campaign skips the rest. Replay
//                                        over tcp checks the violated-oracle
//                                        set (wall-clock runs have no
//                                        metrics digest to compare).
//   --tcp-round-ms <int>                 wall-clock round length for
//                                        --transport tcp (default 200)
//
// Exit status: fuzz mode exits 1 when a failure was found, replay mode
// exits 1 on any mismatch — both are CI gates.
//
// SGXP2P_LOG_LEVEL=trace|debug|info|warn|error|off raises/lowers stderr
// logging verbosity.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/strategies.hpp"
#include "common/log.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mcheck.hpp"
#include "fuzz/schedule.hpp"
#include "fuzz/tcp_runner.hpp"
#include "net/testbed.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocol/eba.hpp"
#include "protocol/erb_node.hpp"
#include "protocol/erng_basic.hpp"
#include "protocol/erng_opt.hpp"
#include "recovery/coordinator.hpp"
#include "shard/coordinator.hpp"

using namespace sgxp2p;

namespace {

struct Options {
  std::string protocol = "erb";
  std::uint32_t n = 9;
  std::uint32_t t = 0;
  std::string adversary = "none";
  std::uint32_t byz = 0;
  std::uint64_t seed = 1;
  SimDuration delta_ms = 500;
  std::string mode;
  std::string sgx_costs;  // "", "zero", "calibrated", or a JSON path
  std::uint64_t sgx_working_set_mb = 0;
  bool csv = false;
  std::string metrics_path;  // empty → no snapshot written
  std::string trace_path;    // empty → tracing stays off
  std::size_t trace_capacity = obs::TraceRecorder::kDefaultCapacity;
  // recovery scenario
  std::uint32_t crash_at = 6;
  std::uint32_t recover_after = 4;
  std::uint32_t checkpoint_every = 2;
  bool stale_replay = false;
  // shard scenario
  std::uint32_t committee_size = 0;  // 0 = auto c(n)
  std::uint32_t committees = 0;      // 0 = derive from committee_size
  std::uint32_t epochs = 1;
  // fuzzing
  std::uint32_t fuzz = 0;  // schedules per target; 0 = fuzz mode off
  std::uint64_t fuzz_seed = 1;
  std::string fuzz_out;
  std::uint32_t fuzz_max_failures = 1;
  bool fuzz_canary = false;
  std::string fuzz_coverage;    // aggregate CoverageMap path; enables guided
  std::string fuzz_corpus_out;  // directory for corpus-retained schedules
  // model checking
  bool mcheck = false;
  std::uint32_t mcheck_n = 3;
  std::uint32_t mcheck_rounds = 2;
  std::uint32_t mcheck_bound = 2;
  std::string replay_schedule;  // replay mode when non-empty
  std::string transport = "sim";  // fuzz/replay data plane: sim | tcp
  SimDuration tcp_round_ms = 200;
};

const char* flag_value(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool flag_present(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

Options parse(int argc, char** argv) {
  Options o;
  if (const char* v = flag_value(argc, argv, "--protocol")) o.protocol = v;
  if (const char* v = flag_value(argc, argv, "--n")) o.n = std::atoi(v);
  if (const char* v = flag_value(argc, argv, "--t")) o.t = std::atoi(v);
  if (const char* v = flag_value(argc, argv, "--adversary")) o.adversary = v;
  if (const char* v = flag_value(argc, argv, "--byz")) o.byz = std::atoi(v);
  if (const char* v = flag_value(argc, argv, "--seed")) o.seed = std::atoll(v);
  if (const char* v = flag_value(argc, argv, "--delta-ms")) {
    o.delta_ms = std::atoi(v);
  }
  if (const char* v = flag_value(argc, argv, "--mode")) o.mode = v;
  if (const char* v = flag_value(argc, argv, "--sgx-costs")) o.sgx_costs = v;
  if (const char* v = flag_value(argc, argv, "--sgx-working-set")) {
    o.sgx_working_set_mb = std::strtoull(v, nullptr, 10);
  }
  if (const char* v = flag_value(argc, argv, "--crash-at")) {
    o.crash_at = std::atoi(v);
  }
  if (const char* v = flag_value(argc, argv, "--recover-after")) {
    o.recover_after = std::atoi(v);
  }
  if (const char* v = flag_value(argc, argv, "--checkpoint-every")) {
    o.checkpoint_every = std::atoi(v);
  }
  o.stale_replay = flag_present(argc, argv, "--stale-replay");
  if (const char* v = flag_value(argc, argv, "--committee-size")) {
    o.committee_size = std::atoi(v);
  }
  if (const char* v = flag_value(argc, argv, "--committees")) {
    o.committees = std::atoi(v);
  }
  if (const char* v = flag_value(argc, argv, "--epochs")) {
    o.epochs = std::atoi(v);
  }
  if (const char* v = flag_value(argc, argv, "--fuzz")) o.fuzz = std::atoi(v);
  if (const char* v = flag_value(argc, argv, "--fuzz-seed")) {
    o.fuzz_seed = std::atoll(v);
  }
  if (const char* v = flag_value(argc, argv, "--fuzz-out")) o.fuzz_out = v;
  if (const char* v = flag_value(argc, argv, "--fuzz-max-failures")) {
    o.fuzz_max_failures = std::atoi(v);
  }
  o.fuzz_canary = flag_present(argc, argv, "--fuzz-canary");
  if (const char* v = flag_value(argc, argv, "--fuzz-coverage")) {
    o.fuzz_coverage = v;
  }
  if (const char* v = flag_value(argc, argv, "--fuzz-corpus-out")) {
    o.fuzz_corpus_out = v;
  }
  o.mcheck = flag_present(argc, argv, "--mcheck");
  if (const char* v = flag_value(argc, argv, "--mcheck-n")) {
    o.mcheck_n = std::atoi(v);
  }
  if (const char* v = flag_value(argc, argv, "--mcheck-rounds")) {
    o.mcheck_rounds = std::atoi(v);
  }
  if (const char* v = flag_value(argc, argv, "--mcheck-bound")) {
    o.mcheck_bound = std::atoi(v);
  }
  if (const char* v = flag_value(argc, argv, "--replay-schedule")) {
    o.replay_schedule = v;
  }
  if (const char* v = flag_value(argc, argv, "--transport")) o.transport = v;
  if (const char* v = flag_value(argc, argv, "--tcp-round-ms")) {
    o.tcp_round_ms = std::atoi(v);
  }
  o.csv = flag_present(argc, argv, "--csv");
  if (flag_present(argc, argv, "--metrics-out")) {
    const char* v = flag_value(argc, argv, "--metrics-out");
    o.metrics_path =
        (v != nullptr && v[0] != '-') ? v : "sim_metrics.json";
  }
  if (flag_present(argc, argv, "--trace")) {
    const char* v = flag_value(argc, argv, "--trace");
    o.trace_path = (v != nullptr && v[0] != '-') ? v : "sim_trace.jsonl";
  }
  if (const char* v = flag_value(argc, argv, "--trace-capacity")) {
    std::size_t cap = std::strtoull(v, nullptr, 10);
    if (cap > 0) o.trace_capacity = cap;
  }
  return o;
}

std::unique_ptr<adversary::Strategy> make_strategy(
    const Options& o, NodeId id, std::shared_ptr<adversary::ChainPlan> plan,
    SimDuration round_ms) {
  if (id >= o.byz || o.adversary == "none") return nullptr;
  if (o.adversary == "chain") {
    return std::make_unique<adversary::ChainStrategy>(plan);
  }
  if (o.adversary == "omission") {
    return std::make_unique<adversary::RandomOmissionStrategy>(0.5, 0.3);
  }
  if (o.adversary == "crash") {
    return std::make_unique<adversary::CrashStrategy>();
  }
  if (o.adversary == "delay") {
    return std::make_unique<adversary::DelayStrategy>(2 * round_ms);
  }
  if (o.adversary == "replay") {
    return std::make_unique<adversary::ReplayStrategy>(round_ms / 4);
  }
  std::fprintf(stderr, "unknown adversary '%s'\n", o.adversary.c_str());
  std::exit(2);
}

/// Resolves --sgx-costs / --sgx-working-set into a TransitionCosts model.
/// Returns false (with a message on stderr) on an unparsable spec.
bool resolve_sgx_costs(const Options& o, sgx::TransitionCosts& out) {
  if (o.sgx_costs.empty() || o.sgx_costs == "zero") {
    // default-constructed: counting on, charging off
  } else if (o.sgx_costs == "calibrated") {
    out = sgx::TransitionCosts::calibrated();
  } else {
    std::ifstream in(o.sgx_costs);
    if (!in) {
      std::fprintf(stderr, "--sgx-costs: cannot read '%s'\n",
                   o.sgx_costs.c_str());
      return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto doc = obs::json_parse(buf.str());
    if (!doc || !doc->is_object()) {
      std::fprintf(stderr, "--sgx-costs: '%s' is not a JSON object\n",
                   o.sgx_costs.c_str());
      return false;
    }
    auto u64 = [&doc](const char* key, std::uint64_t& field) {
      const obs::JsonValue* v = doc->get(key);
      if (v != nullptr && v->type == obs::JsonValue::Type::kInt &&
          v->integer >= 0) {
        field = static_cast<std::uint64_t>(v->integer);
      }
    };
    std::uint64_t ecall_ms = 0;
    std::uint64_t ocall_ms = 0;
    u64("ecall_ms", ecall_ms);
    u64("ocall_ms", ocall_ms);
    out.ecall_ms = static_cast<SimDuration>(ecall_ms);
    out.ocall_ms = static_cast<SimDuration>(ocall_ms);
    u64("ecall_ns", out.ecall_ns);
    u64("ocall_ns", out.ocall_ns);
    u64("epc_working_set_kb", out.epc_working_set_kb);
    u64("epc_resident_kb", out.epc_resident_kb);
    u64("epc_fault_ns", out.epc_fault_ns);
  }
  if (o.sgx_working_set_mb > 0) {
    out.epc_working_set_kb = o.sgx_working_set_mb * 1024;
  }
  return true;
}

struct Outcome {
  std::uint32_t rounds = 0;
  double termination_s = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::string summary;
};

template <typename NodeT, typename DoneFn, typename SummaryFn>
Outcome drive(sim::Testbed& bed, std::uint32_t max_rounds, DoneFn done,
              SummaryFn summarize) {
  bed.start();
  Outcome out;
  out.rounds = bed.run_rounds(max_rounds, [&]() {
    for (NodeId id : bed.honest_nodes()) {
      if (!done(bed.enclave_as<NodeT>(id))) return false;
    }
    return true;
  });
  out.messages = bed.network().meter().messages();
  out.bytes = bed.network().meter().bytes();
  SimTime latest = 0;
  for (NodeId id : bed.honest_nodes()) {
    latest = std::max(latest, summarize(bed.enclave_as<NodeT>(id), out));
  }
  out.termination_s = to_seconds(latest - bed.start_time());
  return out;
}

}  // namespace

/// Replays one schedule over real sockets. The simulator's digest covers
/// metrics and is meaningless here, so the check is the violated-oracle set
/// against the schedule's expect_violations stamp (empty = must pass).
int run_tcp_replay_mode(const Options& o) {
  std::string error;
  auto schedule = fuzz::Schedule::load_file(o.replay_schedule, &error);
  if (!schedule) {
    std::printf("replay %s: %s\n", o.replay_schedule.c_str(), error.c_str());
    return 1;
  }
  if (!schedule->validate(&error) || !fuzz::tcp_supported(*schedule, &error)) {
    std::printf("replay %s: %s\n", o.replay_schedule.c_str(), error.c_str());
    return 1;
  }
  fuzz::TcpRunOptions run_opts;
  run_opts.round_ms = o.tcp_round_ms;
  fuzz::RunReport report = fuzz::run_tcp_schedule(*schedule, run_opts);
  std::vector<std::string> actual = report.violated_oracles();
  const bool ok = actual == schedule->expect_violations;
  std::printf("replay %s over tcp: %s\n", o.replay_schedule.c_str(),
              ok ? "violated-oracle set matches" : "MISMATCH");
  std::printf("rounds  : %u\ndigest  : %s (honest outcomes only)\n"
              "outcome : %s\n",
              report.rounds, report.digest.c_str(), report.outcome.c_str());
  for (const auto& v : report.violations) {
    std::printf("violated: %s — %s\n", v.oracle.c_str(), v.detail.c_str());
  }
  return ok ? 0 : 1;
}

int run_tcp_fuzz_mode(const Options& o) {
  fuzz::TcpCampaignOptions opts;
  if (o.protocol == "erb") {
    opts.targets = {fuzz::FuzzTarget::kErb};
  } else if (o.protocol == "erng") {
    opts.targets = {fuzz::FuzzTarget::kErngBasic};
  } else if (o.protocol != "all") {
    std::fprintf(stderr,
                 "--transport tcp fuzzing supports --protocol erb|erng|all, "
                 "not '%s'\n",
                 o.protocol.c_str());
    return 2;
  }
  opts.seed = o.fuzz_seed;
  opts.schedules = o.fuzz;
  opts.out_dir = o.fuzz_out;
  opts.max_failures = o.fuzz_max_failures;
  opts.round_ms = o.tcp_round_ms;
  opts.progress_every = o.fuzz >= 20 ? 10 : 0;

  fuzz::TcpCampaignResult result = fuzz::run_tcp_campaign(opts);
  std::printf("tcp fuzz: %llu schedule(s) executed over real sockets, "
              "%llu skipped (not socket-expressible), %zu failure(s)\n",
              static_cast<unsigned long long>(result.executed),
              static_cast<unsigned long long>(result.skipped),
              result.failures.size());
  for (const auto& f : result.failures) {
    std::printf("FAIL %s schedule %u\n", fuzz::target_name(f.target), f.index);
    for (const auto& v : f.report.violations) {
      std::printf("  violated: %s — %s\n", v.oracle.c_str(),
                  v.detail.c_str());
    }
    if (!f.repro_path.empty()) {
      std::printf("  reproducer: %s (replay with --replay-schedule ... "
                  "--transport tcp)\n",
                  f.repro_path.c_str());
    }
  }
  return result.clean() ? 0 : 1;
}

int run_replay_mode(const Options& o) {
  fuzz::ReplayResult r = fuzz::replay_schedule_file(o.replay_schedule);
  std::printf("replay %s: %s\n", o.replay_schedule.c_str(),
              r.message.c_str());
  if (!r.report.digest.empty()) {
    std::printf("rounds  : %u\ndigest  : %s\noutcome : %s\n", r.report.rounds,
                r.report.digest.c_str(), r.report.outcome.c_str());
    for (const auto& v : r.report.violations) {
      std::printf("violated: %s — %s\n", v.oracle.c_str(), v.detail.c_str());
    }
  }
  return r.ok ? 0 : 1;
}

/// Maps --protocol to fuzz/mcheck targets ("all" → empty = every target).
bool parse_fuzz_targets(const std::string& protocol, const char* mode,
                        std::vector<fuzz::FuzzTarget>& targets) {
  if (protocol == "erb") {
    targets = {fuzz::FuzzTarget::kErb};
  } else if (protocol == "erng") {
    targets = {fuzz::FuzzTarget::kErngBasic};
  } else if (protocol == "erng-opt") {
    targets = {fuzz::FuzzTarget::kErngOpt};
  } else if (protocol == "recovery") {
    targets = {fuzz::FuzzTarget::kRecovery};
  } else if (protocol == "shard") {
    targets = {fuzz::FuzzTarget::kShard};
  } else if (protocol != "all") {
    std::fprintf(stderr, "%s supports --protocol erb|erng|erng-opt|"
                 "recovery|shard|all, not '%s'\n", mode, protocol.c_str());
    return false;
  }
  return true;
}

int run_mcheck_mode(const Options& o) {
  std::vector<fuzz::FuzzTarget> targets;
  if (!parse_fuzz_targets(o.protocol, "--mcheck", targets)) return 2;
  if (targets.empty()) {
    targets = {fuzz::FuzzTarget::kErb, fuzz::FuzzTarget::kErngBasic,
               fuzz::FuzzTarget::kErngOpt, fuzz::FuzzTarget::kRecovery,
               fuzz::FuzzTarget::kShard};
  }
  bool clean = true;
  for (fuzz::FuzzTarget target : targets) {
    fuzz::ModelCheckOptions opts;
    opts.target = target;
    opts.n = o.mcheck_n;
    opts.rounds = o.mcheck_rounds;
    opts.bound = o.mcheck_bound;
    opts.seed = o.seed;
    opts.canary = o.fuzz_canary;
    opts.out_dir = o.fuzz_out;
    fuzz::ModelCheckResult result = fuzz::check_model(opts);
    std::printf(
        "mcheck[%s]: %llu state(s) explored, %llu pruned, %llu "
        "violation(s)%s\n",
        fuzz::target_name(target),
        static_cast<unsigned long long>(result.states_explored),
        static_cast<unsigned long long>(result.states_pruned),
        static_cast<unsigned long long>(result.violations_found),
        result.exhausted ? "" : " [NOT exhausted: max-states tripped]");
    for (const auto& v : result.violations) {
      std::printf("FAIL %s → shrunk to %zu action(s) in %u runs\n",
                  fuzz::target_name(target), v.shrunk.actions.size(),
                  v.shrink_runs);
      for (const auto& viol : v.report.violations) {
        std::printf("  violated: %s — %s\n", viol.oracle.c_str(),
                    viol.detail.c_str());
      }
      if (!v.repro_path.empty()) {
        std::printf("  reproducer: %s (replay with --replay-schedule)\n",
                    v.repro_path.c_str());
      }
    }
    clean = clean && result.clean();
  }
  return clean ? 0 : 1;
}

int run_fuzz_mode(const Options& o) {
  fuzz::CampaignOptions opts;
  if (!parse_fuzz_targets(o.protocol, "--fuzz", opts.targets)) return 2;
  opts.seed = o.fuzz_seed;
  opts.schedules = o.fuzz;
  opts.canary = o.fuzz_canary;
  opts.out_dir = o.fuzz_out;
  opts.max_failures = o.fuzz_max_failures;
  opts.progress_every = o.fuzz >= 1000 ? 500 : 0;
  opts.coverage_guided = !o.fuzz_coverage.empty();
  opts.corpus_dir = o.fuzz_corpus_out;

  fuzz::CampaignResult result = fuzz::run_campaign(opts);
  std::printf("fuzz: %llu schedule(s) executed, %zu failure(s)\n",
              static_cast<unsigned long long>(result.executed),
              result.failures.size());
  if (opts.coverage_guided) {
    std::printf("coverage: %zu bit(s) lit, corpus of %llu novel schedule(s)\n",
                result.coverage.count(),
                static_cast<unsigned long long>(result.corpus_size));
    if (!result.coverage.write_file(o.fuzz_coverage)) {
      std::fprintf(stderr, "cannot write coverage map to %s\n",
                   o.fuzz_coverage.c_str());
      return 2;
    }
  }
  for (const auto& f : result.failures) {
    std::printf("FAIL %s schedule %u → shrunk to %zu action(s) in %u runs\n",
                fuzz::target_name(f.target), f.index,
                f.shrunk.actions.size(), f.shrink_runs);
    for (const auto& v : f.report.violations) {
      std::printf("  violated: %s — %s\n", v.oracle.c_str(),
                  v.detail.c_str());
    }
    if (!f.repro_path.empty()) {
      std::printf("  reproducer: %s (replay with --replay-schedule)\n",
                  f.repro_path.c_str());
    }
  }
  return result.clean() ? 0 : 1;
}

int main(int argc, char** argv) {
  Logger::instance().init_from_env();
  Options o = parse(argc, argv);
  if (o.transport != "sim" && o.transport != "tcp") {
    std::fprintf(stderr, "--transport must be sim or tcp, not '%s'\n",
                 o.transport.c_str());
    return 2;
  }
  if (o.transport == "tcp" && o.replay_schedule.empty() && o.fuzz == 0) {
    std::fprintf(stderr,
                 "--transport tcp applies to --fuzz and --replay-schedule\n");
    return 2;
  }
  if (!o.replay_schedule.empty()) {
    return o.transport == "tcp" ? run_tcp_replay_mode(o) : run_replay_mode(o);
  }
  if (o.mcheck) {
    if (o.transport == "tcp") {
      std::fprintf(stderr, "--mcheck runs on the simulator only\n");
      return 2;
    }
    return run_mcheck_mode(o);
  }
  if (o.fuzz > 0) {
    return o.transport == "tcp" ? run_tcp_fuzz_mode(o) : run_fuzz_mode(o);
  }
  if (!o.trace_path.empty()) {
    obs::TraceRecorder::global().enable(o.trace_capacity);
  }
  if (o.n < 2) {
    std::fprintf(stderr, "--n must be at least 2\n");
    return 2;
  }
  if (o.byz >= o.n) {
    std::fprintf(stderr, "--byz must be < n\n");
    return 2;
  }

  sim::TestbedConfig cfg;
  cfg.n = o.n;
  cfg.seed = o.seed;
  cfg.net.base_delay = o.delta_ms / 2;
  cfg.net.max_jitter = o.delta_ms - o.delta_ms / 2;
  cfg.t = o.t != 0 ? o.t : (o.protocol == "erng-opt" ? std::max(1u, o.n / 3)
                                                     : (o.n - 1) / 2);
  if (2 * cfg.t >= o.n) cfg.t = (o.n - 1) / 2;
  bool accounted = o.mode.empty() ? o.n > 128 : o.mode == "accounted";
  cfg.mode = accounted ? protocol::ChannelMode::kAccounted
                       : protocol::ChannelMode::kAttested;
  if (!resolve_sgx_costs(o, cfg.sgx_costs)) return 2;
  if (o.protocol == "recovery") {
    if (o.n < 4) {
      std::fprintf(stderr, "--protocol recovery needs --n >= 4\n");
      return 2;
    }
    // One extra node joins fresh after the recovery (the liveness proof), so
    // the testbed is one node larger than the initial roster.
    cfg.n = o.n + 1;
    cfg.t = o.t != 0 ? o.t : (o.n - 1) / 2;
    cfg.mode = protocol::ChannelMode::kAttested;
  }

  auto plan = std::make_shared<adversary::ChainPlan>();
  for (NodeId id = 0; id < o.byz; ++id) plan->order.push_back(id);
  plan->release = adversary::ChainPlan::Release::kSingleHonest;
  plan->honest_target = o.byz;

  sim::Testbed bed(cfg);
  SimDuration round_ms = cfg.effective_round();
  auto strategies = [&](NodeId id) {
    return make_strategy(o, id, plan, round_ms);
  };

  Outcome out;
  if (o.protocol == "erb") {
    Bytes payload = to_bytes("cli broadcast payload");
    bed.build(
        [&](NodeId id, sgx::SgxPlatform& platform, net::Host& host,
            protocol::PeerConfig pc,
            const sgx::SimIAS& ias) -> std::unique_ptr<protocol::PeerEnclave> {
          return std::make_unique<protocol::ErbNode>(
              platform, id, host, pc, ias, NodeId{0},
              id == 0 ? payload : Bytes{});
        },
        strategies);
    out = drive<protocol::ErbNode>(
        bed, cfg.effective_t() + 4,
        [](protocol::ErbNode& n) { return n.result().decided; },
        [](protocol::ErbNode& n, Outcome& acc) {
          acc.summary = n.result().value
                            ? "accepted m"
                            : "accepted ⊥";
          return n.result().decided_at;
        });
  } else if (o.protocol == "erng") {
    bed.build(
        [](NodeId id, sgx::SgxPlatform& platform, net::Host& host,
           protocol::PeerConfig pc,
           const sgx::SimIAS& ias) -> std::unique_ptr<protocol::PeerEnclave> {
          return std::make_unique<protocol::ErngBasicNode>(platform, id, host,
                                                           pc, ias);
        },
        strategies);
    out = drive<protocol::ErngBasicNode>(
        bed, cfg.effective_t() + 4,
        [](protocol::ErngBasicNode& n) { return n.result().done; },
        [](protocol::ErngBasicNode& n, Outcome& acc) {
          acc.summary = "r=" + hex_encode(ByteView(n.result().value.data(),
                                                   std::min<std::size_t>(
                                                       8, n.result().value
                                                              .size()))) +
                        "… |S|=" + std::to_string(n.result().set_size);
          return n.result().decided_at;
        });
  } else if (o.protocol == "erng-opt") {
    bed.build(
        [](NodeId id, sgx::SgxPlatform& platform, net::Host& host,
           protocol::PeerConfig pc,
           const sgx::SimIAS& ias) -> std::unique_ptr<protocol::PeerEnclave> {
          return std::make_unique<protocol::ErngOptNode>(platform, id, host,
                                                         pc, ias);
        },
        strategies);
    out = drive<protocol::ErngOptNode>(
        bed, o.n + 8,
        [](protocol::ErngOptNode& n) { return n.result().done; },
        [](protocol::ErngOptNode& n, Outcome& acc) {
          acc.summary =
              (n.result().is_bottom
                   ? std::string("⊥")
                   : "r=" + hex_encode(ByteView(n.result().value.data(), 8)) +
                         "…") +
              " cluster=" + std::to_string(n.result().cluster_size);
          return n.result().decided_at;
        });
  } else if (o.protocol == "eba") {
    bed.build(
        [&](NodeId id, sgx::SgxPlatform& platform, net::Host& host,
            protocol::PeerConfig pc,
            const sgx::SimIAS& ias) -> std::unique_ptr<protocol::PeerEnclave> {
          return std::make_unique<protocol::EbaNode>(
              platform, id, host, pc, ias,
              to_bytes(id % 2 == 0 ? "commit" : "abort"));
        },
        strategies);
    out = drive<protocol::EbaNode>(
        bed, cfg.effective_t() + 4,
        [](protocol::EbaNode& n) { return n.result().done; },
        [](protocol::EbaNode& n, Outcome& acc) {
          acc.summary = n.result().decision
                            ? "decided " + to_string(*n.result().decision)
                            : "decided ⊥";
          return n.result().decided_at;
        });
  } else if (o.protocol == "recovery") {
    const NodeId victim = 1;
    const NodeId extra = o.n;  // joins fresh after the recovery completes
    const std::uint32_t W = cfg.t + 2;  // membership window length
    const std::uint32_t crash_at = o.crash_at;
    const std::uint32_t recover_at = crash_at + o.recover_after;
    // First membership window starting at or after the relaunch round.
    const std::size_t w_rejoin = (recover_at - 1 + W - 1) / W;
    std::vector<NodeId> roster0;
    for (NodeId id = 0; id < o.n; ++id) roster0.push_back(id);
    std::vector<protocol::JoinPlanEntry> join_plan(w_rejoin + 3);
    join_plan[w_rejoin] = {victim, NodeId{0}, true};
    join_plan[w_rejoin + 1] = {victim, NodeId{2}, true};  // sponsor retry
    join_plan[w_rejoin + 2] = {extra, NodeId{0}, false};  // fresh ERB proof

    sim::Testbed::EnclaveFactory factory =
        [roster0, join_plan](NodeId id, sgx::SgxPlatform& platform,
                             net::Host& host, protocol::PeerConfig pc,
                             const sgx::SimIAS& ias)
        -> std::unique_ptr<protocol::PeerEnclave> {
      return std::make_unique<recovery::RecoverableNode>(
          platform, id, host, pc, ias, roster0, join_plan);
    };
    bed.build(factory, [&](NodeId id) -> std::unique_ptr<adversary::Strategy> {
      if (o.stale_replay && id == victim) {
        return std::make_unique<adversary::StaleSealReplayStrategy>();
      }
      return nullptr;
    });

    recovery::RecoveryPlan rp;
    rp.victim = victim;
    rp.crash_round = crash_at;
    rp.recover_round = recover_at;
    rp.checkpoint_interval = o.checkpoint_every;
    recovery::RecoveryCoordinator coord(bed, factory, rp);
    coord.install();

    bed.start();
    auto everyone_converged = [&]() {
      if (!coord.rejoin_complete()) return false;
      for (NodeId id = 0; id < cfg.n; ++id) {
        if (!bed.has_enclave(id)) return false;
        auto& node = bed.enclave_as<recovery::RecoverableNode>(id);
        const auto& roster = node.roster();
        if (!node.is_member() || roster.size() != o.n + 1 ||
            std::find(roster.begin(), roster.end(), extra) == roster.end()) {
          return false;
        }
      }
      return true;
    };
    out.rounds = bed.run_rounds(
        static_cast<std::uint32_t>((w_rejoin + 4) * W), everyone_converged);
    out.messages = bed.network().meter().messages();
    out.bytes = bed.network().meter().bytes();
    out.termination_s = to_seconds(bed.simulator().now() - bed.start_time());

    const char* restore_str =
        !coord.used_fresh_fallback() ? "checkpoint restored"
        : coord.restore_outcome() == recovery::RestoreOutcome::kStale
            ? "stale seal detected, fresh re-admission"
            : "no valid seal, fresh re-admission";
    out.summary = "crash@" + std::to_string(crash_at) + " relaunch@" +
                  std::to_string(recover_at) + " [" + restore_str + "]";
    if (coord.rejoin_complete()) {
      out.summary +=
          " rejoined@" + std::to_string(coord.rejoin_round()) +
          (everyone_converged()
               ? "; post-recovery join ERB decided, all " +
                     std::to_string(cfg.n) + " nodes agree on the roster"
               : "; post-recovery join did NOT converge");
    } else {
      out.summary += " rejoin did NOT complete";
    }
  } else if (o.protocol == "shard") {
    if (o.n < 4) {
      std::fprintf(stderr, "--protocol shard needs --n >= 4\n");
      return 2;
    }
    std::uint32_t csize = o.committee_size;
    if (csize == 0 && o.committees > 0) {
      // --committees K is sugar for a committee size of n/K.
      csize = std::max(4u, o.n / o.committees);
    }
    shard::ShardConfig scfg;
    scfg.committee_size = csize;
    scfg.epochs = o.epochs;
    bed.build(shard::ShardCoordinator::make_factory(), strategies);
    bed.start();
    shard::ShardCoordinator coord(bed, scfg);
    std::vector<shard::EpochSummary> epochs = coord.run_all();
    out.rounds = bed.rounds_run();
    out.messages = bed.network().meter().messages();
    out.bytes = bed.network().meter().bytes();
    out.termination_s = to_seconds(bed.simulator().now() - bed.start_time());
    const std::size_t committees = coord.election().committees().size();
    out.summary = "K=" + std::to_string(committees) +
                  " c=" + std::to_string(coord.election().committee_size());
    for (const shard::EpochSummary& e : epochs) {
      out.summary +=
          " e" + std::to_string(e.epoch) + "=" +
          (e.global_digest.empty()
               ? std::string("none")
               : hex_encode(ByteView(e.global_digest.data(),
                                     std::min<std::size_t>(
                                         8, e.global_digest.size()))) +
                     "…") +
          (e.ok() ? "" : "[ORACLE FAIL]");
    }
    if (!coord.all_ok()) {
      out.summary += " — agreement/validity oracle FAILED";
    }
  } else {
    std::fprintf(stderr, "unknown protocol '%s'\n", o.protocol.c_str());
    return 2;
  }

  if (o.csv) {
    std::printf("%s,%u,%u,%s,%u,%llu,%u,%.3f,%llu,%llu\n", o.protocol.c_str(),
                o.n, cfg.t, o.adversary.c_str(), o.byz,
                static_cast<unsigned long long>(o.seed), out.rounds,
                out.termination_s,
                static_cast<unsigned long long>(out.messages),
                static_cast<unsigned long long>(out.bytes));
  } else {
    std::printf("protocol    : %s\n", o.protocol.c_str());
    std::printf("network     : N=%u t=%u adversary=%s byz=%u seed=%llu "
                "mode=%s\n",
                o.n, cfg.t, o.adversary.c_str(), o.byz,
                static_cast<unsigned long long>(o.seed),
                accounted ? "accounted" : "attested");
    std::printf("rounds      : %u (round time %.1f s)\n", out.rounds,
                to_seconds(round_ms));
    std::printf("termination : %.3f virtual s\n", out.termination_s);
    std::printf("traffic     : %llu messages, %.3f MB\n",
                static_cast<unsigned long long>(out.messages),
                static_cast<double>(out.bytes) / (1024 * 1024));
    std::printf("outcome     : %s\n", out.summary.c_str());
  }

  if (!o.metrics_path.empty()) {
    std::string json = "{\"bench\":\"sim-" + obs::json_escape(o.protocol) +
                       "\",\"metrics\":" +
                       obs::MetricsRegistry::current().to_json() + "}\n";
    std::FILE* f = std::fopen(o.metrics_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   o.metrics_path.c_str());
    } else {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "metrics snapshot written to %s\n",
                   o.metrics_path.c_str());
    }
  }
  if (!o.trace_path.empty()) {
    const auto& tr = obs::TraceRecorder::global();
    if (tr.dropped() > 0) {
      std::fprintf(stderr,
                   "warning: trace ring dropped %llu events; causal roots "
                   "are truncated (raise --trace-capacity)\n",
                   static_cast<unsigned long long>(tr.dropped()));
    }
    if (!tr.write_file(o.trace_path)) {
      std::fprintf(stderr, "cannot write trace to %s\n", o.trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace (%zu events) written to %s\n", tr.size(),
                   o.trace_path.c_str());
    }
  }
  return 0;
}
