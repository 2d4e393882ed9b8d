#include "fuzz/tcp_runner.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/log.hpp"
#include "crypto/sha256.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/tcp_shim.hpp"
#include "net/tcp_testbed.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"

namespace sgxp2p::fuzz {

namespace {

/// Wall-clock metric values are timing-dependent, so the TCP digest covers
/// only the honest outcome string — the quantity the paper's theorems pin.
/// Conservation over the transport counters is still a fair oracle: the bus
/// can lose frames at teardown but never invent them.
void finalize_tcp(const obs::MetricsRegistry& registry, RunReport& report) {
  obs::MetricsSnapshot snap = registry.snapshot();
  auto value = [&snap](const char* name) -> std::uint64_t {
    const obs::CounterSample* c = snap.find_counter(name);
    return c != nullptr ? c->value : 0;
  };
  if (value("net.tcp.received") > value("net.tcp.sends")) {
    report.violations.push_back(
        {oracle::kMetricsConservation,
         "net.tcp.received " + std::to_string(value("net.tcp.received")) +
             " > net.tcp.sends " + std::to_string(value("net.tcp.sends"))});
  }
  report.digest = hex_encode(crypto::Sha256::hash_bytes(
      ByteView(reinterpret_cast<const std::uint8_t*>(report.outcome.data()),
               report.outcome.size())));
}

RunReport run_tcp_stack(const Schedule& s, net::TcpTestbed& bed,
                        const obs::MetricsRegistry& registry) {
  const bool erb = s.target == FuzzTarget::kErb;
  const Bytes payload = to_bytes(kErbPayload);
  CHECK_MSG(bed.build(erb ? scenario::erb_factory(0, payload)
                          : scenario::erng_basic_factory()),
            "run_tcp_schedule: socket mesh failed");
  bed.start();

  const std::vector<NodeId> honest = s.honest_nodes();
  RunReport report;
  report.rounds =
      bed.run_rounds(s.max_rounds, scenario::honest_done(bed, honest));
  const scenario::Report run = scenario::collect(bed, report.rounds, honest);
  std::ostringstream outcome;
  for (NodeId id = 0; id < s.n; ++id) {
    // Faulted nodes' states are timing-dependent over real sockets; they
    // carry no oracle weight and stay out of the digest input.
    outcome << id
            << (run.nodes[id].honest ? node_outcome(run.nodes[id], erb)
                                     : ":faulted")
            << " ";
  }
  report.outcome = outcome.str();
  report.violations =
      erb ? judge_erb(run, 0, payload, /*canary=*/false) : judge_erng(run);
  finalize_tcp(registry, report);
  return report;
}

}  // namespace

bool tcp_supported(const Schedule& schedule, std::string* why) {
  if (schedule.target != FuzzTarget::kErb &&
      schedule.target != FuzzTarget::kErngBasic) {
    if (why) *why = std::string("target ") + target_name(schedule.target) +
                    " has no TCP runner";
    return false;
  }
  for (const FaultAction& a : schedule.actions) {
    if (a.kind == ActionKind::kCrash || a.kind == ActionKind::kRecover ||
        a.kind == ActionKind::kStaleSeal) {
      if (why) *why = std::string("action ") + action_kind_name(a.kind) +
                      " has no socket-level expression";
      return false;
    }
  }
  return true;
}

RunReport run_tcp_schedule(const Schedule& schedule,
                           const TcpRunOptions& options) {
  std::string error;
  CHECK_MSG(schedule.validate(&error), "run_tcp_schedule: invalid schedule");
  CHECK_MSG(tcp_supported(schedule, &error),
            "run_tcp_schedule: unsupported schedule");

  // Fresh registry per run: the bus resolves its net.tcp.* handles from
  // current() at construction (inside bed.build), so each run's counters
  // start at zero regardless of what ran before on this thread.
  obs::MetricsRegistry registry;
  obs::MetricsRegistry::ScopedCurrent scoped(registry);

  net::TcpTestbedConfig cfg;
  cfg.n = schedule.n;
  cfg.t = schedule.t;
  cfg.round_ms = options.round_ms;
  cfg.seed = schedule.seed;
  net::TcpTestbed bed(cfg);
  TcpFaultShim shim(bed, schedule);
  shim.install();

  RunReport report = run_tcp_stack(schedule, bed, registry);
  const TcpFaultShim::Stats st = shim.stats();
  LOG_DEBUG("tcp fuzz: dropped=", st.dropped, " delayed=", st.delayed,
            " duplicated=", st.duplicated, " corrupted=", st.corrupted,
            " partition_dropped=", st.partition_dropped);
  return report;
}

TcpCampaignResult run_tcp_campaign(const TcpCampaignOptions& options) {
  TcpCampaignResult result;
  std::vector<FuzzTarget> targets = options.targets;
  if (targets.empty()) {
    targets = {FuzzTarget::kErb, FuzzTarget::kErngBasic};
  }
  TcpRunOptions run_opts;
  run_opts.round_ms = options.round_ms;
  for (FuzzTarget target : targets) {
    for (std::uint32_t i = 0; i < options.schedules; ++i) {
      if (result.failures.size() >= options.max_failures) return result;
      Schedule s = generate_schedule(target, options.seed, i);
      std::string why;
      if (!tcp_supported(s, &why)) {
        ++result.skipped;
        continue;
      }
      RunReport report = run_tcp_schedule(s, run_opts);
      ++result.executed;
      if (options.progress_every != 0 &&
          (i + 1) % options.progress_every == 0) {
        LOG_INFO("tcp fuzz: ", target_name(target), " ", i + 1, "/",
                 options.schedules, " run, ", result.skipped, " skipped, ",
                 result.failures.size(), " failure(s)");
      }
      if (report.passed()) continue;
      CampaignFailure failure;
      failure.target = target;
      failure.index = i;
      failure.shrunk = s;  // stamped as-is; TCP runs are too slow to shrink
      failure.shrunk.expect_violations = report.violated_oracles();
      failure.report = report;
      std::string path = options.out_dir.empty()
                             ? std::string()
                             : options.out_dir + "/";
      path += std::string("tcp-") + target_name(target) + "-" +
              std::to_string(i) + ".sched";
      failure.repro_path = failure.shrunk.write_file(path) ? path : "";
      result.failures.push_back(std::move(failure));
    }
  }
  return result;
}

}  // namespace sgxp2p::fuzz
