// Shared helpers for the perfbench binary: flag parsing, wall clocks, peak
// RSS, and a minimal JSON object writer for the one-line result each
// workload instance prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

/// `--key value` flags after the subcommand.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  [[nodiscard]] std::uint64_t u64(const std::string& key,
                                  std::uint64_t fallback) const;
  /// The flag's value, or "" when absent.
  [[nodiscard]] std::string str(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// This process's peak resident set in KiB (VmHWM).
long peak_rss_kb();

/// Builds one JSON object. Numbers keep every significant digit.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v);
  JsonObject& u64(std::string_view key, std::uint64_t v);
  JsonObject& i64(std::string_view key, std::int64_t v);
  JsonObject& boolean(std::string_view key, bool v);
  JsonObject& str(std::string_view key, std::string_view v);
  /// `json` must already be a serialized JSON value.
  JsonObject& raw(std::string_view key, std::string_view json);
  [[nodiscard]] std::string done() const { return body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_ = "{";
};

std::string json_array(const std::vector<double>& values);

/// Named pass/fail output checks, printed with the result.
class Checks {
 public:
  void expect(std::string_view name, bool ok, std::string detail = {});
  [[nodiscard]] bool all_ok() const { return all_ok_; }
  [[nodiscard]] std::string json() const { return body_ + "]"; }

 private:
  std::string body_ = "[";
  bool all_ok_ = true;
};

// Workload entry points; each prints one JSON line and returns the exit code.
int run_sim_workload(const std::string& name, const Flags& flags);
int run_tcp_ack(const Flags& flags);

}  // namespace perfbench
