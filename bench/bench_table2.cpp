// Table 2 — round/communication complexity of distributed random number
// generation: basic ERNG (Algorithm 3) vs optimized ERNG (Algorithm 6),
// measured, plus the paper's literature rows.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  auto obs = sgxp2p::bench::parse_obs(argc, argv, "table2");
  using namespace sgxp2p;
  int max_n = bench::flag_int(argc, argv, "--max-n", 128);

  std::printf("=== Table 2: distributed RNG — measured comparison ===\n\n");

  stats::Table table(
      {"N", "variant", "rounds", "messages", "bytes", "term (s)"});
  std::vector<double> ns, basic_b, opt_b;
  for (std::uint32_t n = 16; n <= static_cast<std::uint32_t>(max_n); n *= 2) {
    const sim::TestbedConfig cfg = scenario::sim_config(
        n, n, scenario::kBenchDelta, protocol::ChannelMode::kAccounted);
    auto basic = scenario::run_erng_basic(cfg);
    // Sampled two-phase cluster (the asymptotic configuration).
    auto opt = scenario::run_erng_opt(cfg);
    ns.push_back(n);
    basic_b.push_back(static_cast<double>(basic.bytes));
    opt_b.push_back(static_cast<double>(opt.bytes));
    table.add_row({std::to_string(n), "ERNG-basic", std::to_string(basic.rounds),
                   stats::fmt_int(basic.messages), stats::fmt_int(basic.bytes),
                   stats::fmt(basic.termination_s())});
    table.add_row({std::to_string(n), "ERNG-opt", std::to_string(opt.rounds),
                   stats::fmt_int(opt.messages), stats::fmt_int(opt.bytes),
                   stats::fmt(opt.termination_s())});
  }
  table.print();

  std::printf("\nmeasured byte-scaling exponents:\n");
  std::printf("  ERNG-basic: %.2f (theory O(N^3))\n",
              stats::loglog_slope(ns, basic_b));
  std::printf("  ERNG-opt  : %.2f (theory O(N log N); the sampled-cluster "
              "regime needs large N — at these sizes the dominant term is "
              "the O(N·γ) CHOSEN/FINAL flood)\n",
              stats::loglog_slope(ns, opt_b));

  std::printf("\nliterature rows (paper Table 2):\n");
  stats::Table lit({"protocol", "network", "rounds", "comm."});
  lit.add_row({"AS [20]", "6t+1", "O(N)", "O(N^3)"});
  lit.add_row({"AD14 [19]", "2t+1", "O(N)", "O(N^4)"});
  lit.add_row({"Basic ERNG (here)", "2t+1", "O(N)", "O(N^3)"});
  lit.add_row({"Optimized ERNG (here)", "3t+1", "O(log N)", "O(N log N)"});
  lit.print();
  sgxp2p::bench::finish_obs(obs);
  return 0;
}
