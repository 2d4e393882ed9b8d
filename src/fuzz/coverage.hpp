// CoverageMap — deterministic protocol-state coverage of one schedule run.
//
// Coverage here is NOT line coverage (the CI `coverage` lane measures that
// with gcov); it is a protocol-level feature bitmap. Every run derives a
// fixed set of feature strings from things the paper's properties talk
// about — which oracle branches were reached, which per-target protocol
// states each node ended in (ERB m/⊥/undecided/halted phases, recovery
// restore-vs-fallback paths, shard per-epoch decide counts), which
// bucketed instrument values the run produced, and which fault-interaction
// pairs (action kind × round phase, kind × kind) the schedule exercised —
// and hashes each feature into a fixed kBits-wide bitmap.
//
// Everything a feature is derived from (metrics snapshot, outcome string,
// violated-oracle set, the schedule itself) is already byte-identical
// across same-seed runs, so the bitmap inherits that determinism — CI
// compares maps exactly, and the corpus-distillation pass
// (tools/sgxp2p-corpus) can reproduce a campaign's aggregate map from its
// schedules alone.
//
// The on-disk form is a tiny text file (docs/ROBUSTNESS.md):
//
//   sgxp2p-coverage-v1
//   bits <kWords little-endian 16-hex-digit words>
//   end
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/schedule.hpp"

namespace sgxp2p::obs {
struct MetricsSnapshot;
}  // namespace sgxp2p::obs

namespace sgxp2p::fuzz {

class CoverageMap {
 public:
  /// Bitmap width. 4096 bits is ~6× the distinct features a full mixed
  /// campaign produces today, keeping the collision rate low while the map
  /// stays one cache-friendly 512-byte block.
  static constexpr std::size_t kBits = 4096;
  static constexpr std::size_t kWords = kBits / 64;

  /// Stable feature→bit mapping (FNV-1a 64 over the feature string, mod
  /// kBits). Exposed so schedule-only features can be scored without a run.
  [[nodiscard]] static std::size_t feature_bit(std::string_view feature);

  void hit(std::string_view feature) { set(feature_bit(feature)); }
  void set(std::size_t bit) { words_[bit >> 6] |= 1ULL << (bit & 63); }
  [[nodiscard]] bool test(std::size_t bit) const {
    return (words_[bit >> 6] >> (bit & 63)) & 1;
  }

  /// Population count — the "coverage bits" every campaign reports.
  [[nodiscard]] std::size_t count() const;

  /// ORs `other` in; returns how many bits were newly set (0 = `other` was
  /// already covered — the corpus novelty test).
  std::size_t merge(const CoverageMap& other);

  /// Bits set in `other` but not here, without mutating either.
  [[nodiscard]] std::size_t novel_bits(const CoverageMap& other) const;

  /// True iff every bit of `other` is already set here (superset test used
  /// by distillation to prove the minimal set preserves the campaign map).
  [[nodiscard]] bool covers(const CoverageMap& other) const;

  [[nodiscard]] bool empty() const { return count() == 0; }
  void clear() { words_.fill(0); }

  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] static std::optional<CoverageMap> from_text(
      const std::string& text, std::string* error);
  [[nodiscard]] bool write_file(const std::string& path) const;
  [[nodiscard]] static std::optional<CoverageMap> load_file(
      const std::string& path, std::string* error);

  friend bool operator==(const CoverageMap&, const CoverageMap&) = default;

 private:
  std::array<std::uint64_t, kWords> words_{};
};

/// The full feature extraction: oracle branches (violated and clean), the
/// normalized per-node outcome states, bucketed counter values, the round
/// count, and the schedule's fault-interaction features. All inputs are
/// deterministic products of the run, so two same-seed runs produce
/// byte-identical maps.
[[nodiscard]] CoverageMap compute_coverage(
    const Schedule& schedule, const std::vector<std::string>& violated_oracles,
    const std::string& outcome, std::uint32_t rounds,
    const obs::MetricsSnapshot& snapshot);

/// Just the schedule-derived fault-interaction bits (action kind × round
/// phase, kind pairs, victim roles, param classes) — computable WITHOUT
/// running the schedule. The guided mutator scores candidate mutants by how
/// many of these bits a campaign's aggregate map has not seen yet.
[[nodiscard]] std::vector<std::size_t> schedule_feature_bits(
    const Schedule& schedule);

}  // namespace sgxp2p::fuzz
