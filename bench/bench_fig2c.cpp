// Figure 2c — ERB termination time vs byzantine fraction (N = 512).
//
// Paper: with the worst-case strategy — byzantine nodes form a chain, each
// relaying the broadcast to exactly one other byzantine node per round
// before being eliminated by halt-on-divergence — termination grows
// linearly with the number of actively byzantine nodes f (389 s at f = N/4
// versus 4 s honest, on their testbed). Round complexity is min{f+2, t+2}.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  auto obs = sgxp2p::bench::parse_obs(argc, argv, "fig2c");
  using namespace sgxp2p;
  std::uint32_t n =
      static_cast<std::uint32_t>(bench::flag_int(argc, argv, "--n", 512));
  int jobs = bench::sweep_jobs(argc, argv);

  std::printf("=== Figure 2c: ERB termination vs byzantine fraction (N=%u) ===\n",
              n);
  std::printf("byzantine strategy: Section 6.3 chain (relay to one byzantine "
              "node per round, release to one honest node at the end)\n\n");

  std::vector<std::uint32_t> denoms;
  for (std::uint32_t denom = n; denom >= 4; denom /= 2) denoms.push_back(denom);

  auto runs = bench::run_sweep<scenario::Report>(
      denoms.size(), jobs, [&](std::size_t i) {
        std::uint32_t denom = denoms[i];
        // fraction 1/denom of the network is byzantine
        return scenario::run_erb(
            scenario::sim_config(n, 1000 + denom, scenario::kBenchDelta,
                                 protocol::ChannelMode::kAccounted),
            bench::kErbPayload, n / denom);
      });

  stats::Table table({"fraction", "f", "rounds", "termination (s)",
                      "f+2 (theory)"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::uint32_t denom = denoms[i];
    std::uint32_t f = n / denom;
    const auto& r = runs[i];
    table.add_row({"1/" + std::to_string(denom), std::to_string(f),
                   std::to_string(r.rounds), stats::fmt(r.termination_s()),
                   std::to_string(f + 2)});
  }
  table.print();
  std::printf(
      "\npaper reference: linear growth; 389 s at fraction 1/4 vs 4 s "
      "honest (their Δ). With Δ = 1 s our worst case is (f+2)·2 s = %u s at "
      "f = %u — same linear shape.\n",
      (n / 4 + 2) * 2, n / 4);
  sgxp2p::bench::finish_obs(obs);
  return 0;
}
