// Table 1 — round and communication complexity of reliable broadcast.
//
// The paper's table cites literature bounds; its own row (ERB: min{f+2,t+2}
// rounds, O(N²) communication, N = 2t+1 resilience) is the one we can
// measure. We run ERB against the two baselines implemented here — RBsig
// (Algorithm 4, signature chains, the Dolev–Strong/PKI family) and RBearly
// (Algorithm 5, Perry–Toueg omission model with per-round liveness
// broadcast) — over a size sweep, report rounds/messages/bytes, and fit the
// byte-scaling exponents. The literature rows are reprinted for context.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "crypto/sha256.hpp"
#include "protocol/rb_early.hpp"
#include "protocol/rb_sig.hpp"
#include "stats/table.hpp"

namespace {

using namespace sgxp2p;

struct BaselineRun {
  std::uint32_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

BaselineRun run_rb_sig(std::uint32_t n) {
  const std::uint32_t t = (n - 1) / 2;
  sim::PlainBed bed(n, scenario::network(scenario::kBenchDelta));
  bed.build([&](NodeId id) {
    Bytes seed =
        crypto::Sha256::hash_bytes(to_bytes("t1-" + std::to_string(id)));
    return std::make_unique<protocol::RbSigNode>(
        id, n, t, NodeId{0}, id == 0 ? to_bytes("m") : Bytes{}, seed);
  });
  std::vector<Bytes> pki;
  for (NodeId id = 0; id < n; ++id) {
    pki.push_back(bed.node_as<protocol::RbSigNode>(id).public_key());
  }
  for (NodeId id = 0; id < n; ++id) {
    bed.node_as<protocol::RbSigNode>(id).set_pki(pki);
  }
  bed.start();
  BaselineRun out;
  out.rounds = bed.run_rounds(t + 2, [&]() {
    for (NodeId id = 0; id < n; ++id) {
      if (!bed.node_as<protocol::RbSigNode>(id).result().decided) return false;
    }
    return true;
  });
  out.messages = bed.network().meter().messages();
  out.bytes = bed.network().meter().bytes();
  return out;
}

BaselineRun run_rb_early(std::uint32_t n, bool crash_initiator) {
  const std::uint32_t t = (n - 1) / 2;
  sim::PlainBed bed(n, scenario::network(scenario::kBenchDelta));
  bed.build([&](NodeId id) {
    return std::make_unique<protocol::RbEarlyNode>(
        id, n, t, NodeId{0}, id == 0 ? to_bytes("m") : Bytes{});
  });
  if (crash_initiator) {
    bed.node_as<protocol::RbEarlyNode>(0).set_send_filter(
        [](NodeId) { return false; });
  }
  bed.start();
  BaselineRun out;
  out.rounds = bed.run_rounds(t + 2, [&]() {
    for (NodeId id = crash_initiator ? 1 : 0; id < n; ++id) {
      if (!bed.node_as<protocol::RbEarlyNode>(id).result().decided) {
        return false;
      }
    }
    return true;
  });
  out.messages = bed.network().meter().messages();
  out.bytes = bed.network().meter().bytes();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto obs = sgxp2p::bench::parse_obs(argc, argv, "table1");
  int max_n = bench::flag_int(argc, argv, "--max-n", 64);

  std::printf("=== Table 1: reliable broadcast — measured comparison ===\n\n");
  std::printf("honest executions; N = 2t+1; bytes measured on the wire\n\n");

  stats::Table table({"N", "protocol", "rounds", "messages", "bytes"});
  std::vector<double> ns, erb_b, sig_b, early_b;
  for (std::uint32_t n = 8; n <= static_cast<std::uint32_t>(max_n); n *= 2) {
    auto erb = scenario::run_erb(
        scenario::sim_config(n, n, scenario::kBenchDelta), bench::kErbPayload);
    auto sig = run_rb_sig(n);
    auto early = run_rb_early(n, /*crash_initiator=*/false);
    ns.push_back(n);
    erb_b.push_back(static_cast<double>(erb.bytes));
    sig_b.push_back(static_cast<double>(sig.bytes));
    early_b.push_back(static_cast<double>(early.bytes));
    table.add_row({std::to_string(n), "ERB (this paper)",
                   std::to_string(erb.rounds), stats::fmt_int(erb.messages),
                   stats::fmt_int(erb.bytes)});
    table.add_row({std::to_string(n), "RBsig (Alg. 4, PKI)",
                   std::to_string(sig.rounds), stats::fmt_int(sig.messages),
                   stats::fmt_int(sig.bytes)});
    table.add_row({std::to_string(n), "RBearly (Alg. 5, omission)",
                   std::to_string(early.rounds),
                   stats::fmt_int(early.messages),
                   stats::fmt_int(early.bytes)});
  }
  table.print();

  std::printf("\nmeasured byte-scaling exponents (log-log slope, honest runs):\n");
  std::printf("  ERB     : %.2f  — O(N^2) with ~100 B messages (Table 1 row "
              "'ERB')\n",
              stats::loglog_slope(ns, erb_b));
  std::printf("  RBsig   : %.2f  — honest runs carry short chains, so N^2 "
              "messages x multi-KB signatures; the O(N^3) of Table 1 is the "
              "adversarial long-chain worst case. Note the ~20x byte "
              "constant over ERB.\n",
              stats::loglog_slope(ns, sig_b));
  std::printf("  RBearly : %.2f  — O(N^2) *per round*; honest runs stop at 3 "
              "rounds. The O(N^3) of Table 1 is t faulty rounds; the f=1 "
              "comparison below shows the per-fault growth ERB avoids.\n",
              stats::loglog_slope(ns, early_b));

  // Under faults RBearly pays its per-round liveness broadcast for f+2
  // rounds; ERB's ACK-based active detection avoids it.
  std::printf("\ncrashed-initiator comparison at N = 33 (f = 1):\n");
  auto early_f = run_rb_early(33, /*crash_initiator=*/true);
  std::printf("  RBearly: rounds=%u messages=%llu bytes=%llu\n", early_f.rounds,
              static_cast<unsigned long long>(early_f.messages),
              static_cast<unsigned long long>(early_f.bytes));
  auto erb_f = scenario::run_erb(
      scenario::sim_config(33, 9, scenario::kBenchDelta), bench::kErbPayload,
      1);
  std::printf("  ERB    : rounds=%u messages=%llu bytes=%llu\n", erb_f.rounds,
              static_cast<unsigned long long>(erb_f.messages),
              static_cast<unsigned long long>(erb_f.bytes));

  std::printf("\nliterature rows (paper Table 1, for context):\n");
  stats::Table lit({"protocol", "model", "network", "rounds", "comm."});
  lit.add_row({"PT [82]", "omission", "t+1", "min{f+2,t+1}", "O(N^3)"});
  lit.add_row({"PR [79]", "omission", "2t+1", "min{f+2,t+1}", "O(N^3)"});
  lit.add_row({"CT [41]", "omission", "2t+1", "min{f+2,t+1}", "O(N^2)"});
  lit.add_row({"PSL [81]", "byzantine", "3t+1", "t+1", "O(exp(N))"});
  lit.add_row({"BGP [28]", "byzantine", "3t+1", "min{f+2,t+1}", "O(exp(N))"});
  lit.add_row({"BG [26]", "byzantine", "4t+1", "t+1", "O(poly(N))"});
  lit.add_row({"GM [53,54]", "byzantine", "3t+1", "min{f+5,t+1}", "O(poly(N))"});
  lit.add_row({"AD15 [18]", "byzantine", "3t+1", "min{f+2,t+1}", "O(poly(N))"});
  lit.add_row({"AD14 [19]", "byzantine+sig", "2t+1", "3t+4", "O(N^4)"});
  lit.add_row({"ERB (here)", "byz + SGX", "2t+1", "min{f+2,t+2}", "O(N^2)"});
  lit.print();
  sgxp2p::bench::finish_obs(obs);
  return 0;
}
