// Figure 2a — ERB termination time vs number of peers (honest initiator).
//
// Paper: "termination, in the case of an honest initiator, is nearly equal
// to twice the value of one round" — constant in N (the small rise at 2^8+
// on DeterLab was a testbed bandwidth artifact). We sweep N = 2^1 … 2^10
// (--max-exp raises it) with Δ = 1 s (round = 2 s) and report virtual time.
#include <cstdio>

#include "bench_util.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  auto obs = sgxp2p::bench::parse_obs(argc, argv, "fig2a");
  using namespace sgxp2p;
  int max_exp = bench::flag_int(argc, argv, "--max-exp", 10);
  int jobs = bench::sweep_jobs(argc, argv);

  std::printf("=== Figure 2a: ERB honest termination vs N ===\n");
  std::printf("round time = 2s (Delta = 1s); times are virtual seconds\n\n");

  auto runs = bench::run_sweep<scenario::Report>(
      static_cast<std::size_t>(max_exp), jobs, [&](std::size_t i) {
        int e = static_cast<int>(i) + 1;
        return scenario::run_erb(
            scenario::sim_config(1u << e, 42 + e, scenario::kBenchDelta,
                                 protocol::ChannelMode::kAccounted),
            bench::kErbPayload);
      });

  stats::Table table({"N", "rounds", "one round (s)", "ERB termination (s)",
                      "messages"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::uint32_t n = 1u << (i + 1);
    const auto& r = runs[i];
    table.add_row({std::to_string(n), std::to_string(r.rounds),
                   stats::fmt(2.0), stats::fmt(r.termination_s()),
                   stats::fmt_int(r.messages)});
  }
  table.print();
  std::printf(
      "\npaper reference: honest ERB terminates in ~2 rounds (~4 s) at every "
      "network size.\n");
  sgxp2p::bench::finish_obs(obs);
  return 0;
}
