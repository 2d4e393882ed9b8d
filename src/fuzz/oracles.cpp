#include "fuzz/oracles.hpp"

#include <algorithm>

namespace sgxp2p::fuzz {

std::vector<std::string> RunReport::violated_oracles() const {
  std::vector<std::string> names;
  names.reserve(violations.size());
  for (const Violation& v : violations) names.push_back(v.oracle);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

bool same_violations(const RunReport& a, const RunReport& b) {
  return a.violated_oracles() == b.violated_oracles();
}

namespace {

/// Same ⊥-ness, and the same value unless ⊥.
bool same_output(const scenario::NodeReport& a, const scenario::NodeReport& b) {
  return a.bottom == b.bottom && (a.bottom || a.value == b.value);
}

}  // namespace

std::vector<Violation> judge_erb(const scenario::Report& report,
                                 NodeId initiator, const Bytes& payload,
                                 bool canary) {
  std::vector<Violation> out;
  const bool initiator_honest = report.nodes.at(initiator).honest;
  const scenario::NodeReport* ref = nullptr;
  for (NodeId id = 0; id < report.nodes.size(); ++id) {
    const scenario::NodeReport& r = report.nodes[id];
    if (!r.live || !r.honest) continue;
    if (!r.done) {
      out.push_back({oracle::kErbTermination,
                     "honest node " + std::to_string(id) + " undecided after " +
                         std::to_string(report.rounds) + " rounds"});
      continue;
    }
    if (ref == nullptr) {
      ref = &r;
    } else if (!same_output(r, *ref)) {
      out.push_back({oracle::kErbAgreement,
                     "honest node " + std::to_string(id) +
                         " disagrees with the first honest decision"});
    }
    if (initiator_honest && (r.bottom || r.value != payload)) {
      out.push_back({oracle::kErbValidity, "initiator honest but node " +
                                               std::to_string(id) +
                                               " did not decide m"});
    }
    if (canary && r.bottom) {
      out.push_back({oracle::kCanaryNoBottom,
                     "node " + std::to_string(id) + " decided ⊥"});
    }
  }
  return out;
}

std::vector<Violation> judge_erng(const scenario::Report& report) {
  std::vector<Violation> out;
  const scenario::NodeReport* ref = nullptr;
  for (NodeId id = 0; id < report.nodes.size(); ++id) {
    const scenario::NodeReport& r = report.nodes[id];
    if (!r.live || !r.honest) continue;
    if (!r.done) {
      out.push_back({oracle::kErngTermination,
                     "honest node " + std::to_string(id) +
                         " has no output after " +
                         std::to_string(report.rounds) + " rounds"});
      continue;
    }
    if (ref == nullptr) {
      ref = &r;
    } else if (!same_output(r, *ref)) {
      out.push_back({oracle::kErngAgreement,
                     "honest node " + std::to_string(id) +
                         " output differs from the first honest output"});
    }
  }
  return out;
}

std::string node_outcome(const scenario::NodeReport& node, bool erb) {
  if (!node.done) return erb ? ":undecided" : ":pending";
  if (node.bottom) return ":bot";
  const std::size_t n = std::min<std::size_t>(8, node.value.size());
  return (erb ? ":m=" : ":r=") + hex_encode(ByteView(node.value.data(), n));
}

}  // namespace sgxp2p::fuzz
