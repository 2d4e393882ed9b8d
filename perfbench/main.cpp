// perfbench — one workload instance per process.
//
//   perfbench erb-clique  --seed S [--n N] [--trace-out FILE]
//   perfbench erng-attack --seed S [--n N] [--byz B] [--trace-out FILE]
//   perfbench tcp-ack     --seed S [--requests-a A] [--requests-b B]
//                         [--trace-out FILE]
//
// --n, --byz and --requests-* shrink a workload for the self-test.
//
// Each run prints one JSON line: wall times, the registry snapshot, output
// checks and, when traced, span aggregates plus isolated per-operation
// costs. run.py starts a fresh process per instance (so peak RSS and the
// buffer pool start cold), aggregates instances, and prints the metrics.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>

#include "common.hpp"

namespace perfbench {

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) == 0) values_[argv[i] + 2] = argv[i + 1];
  }
}

std::uint64_t Flags::u64(const std::string& key, std::uint64_t fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : std::strtoull(it->second.c_str(), nullptr, 10);
}

std::string Flags::str(const std::string& key) const {
  auto it = values_.find(key);
  return it == values_.end() ? std::string() : it->second;
}

long peak_rss_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

void JsonObject::key(std::string_view k) {
  if (body_.size() > 1) body_ += ',';
  body_ += '"';
  body_ += k;
  body_ += "\":";
}

JsonObject& JsonObject::num(std::string_view k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    body_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::u64(std::string_view k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::i64(std::string_view k, std::int64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::str(std::string_view k, std::string_view v) {
  key(k);
  body_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += c;
  }
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof buf, "%.9g", values[i]);
    out += buf;
  }
  return out + "]";
}

void Checks::expect(std::string_view name, bool ok, std::string detail) {
  if (body_.size() > 1) body_ += ',';
  body_ += JsonObject().str("name", name).boolean("ok", ok).str("detail", detail)
               .done();
  all_ok_ = all_ok_ && ok;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench erb-clique|erng-attack|tcp-ack --seed S "
                 "[flags]\n");
    return 2;
  }
  const std::string workload = argv[1];
  const perfbench::Flags flags(argc, argv, 2);
  try {
    if (workload == "erb-clique" || workload == "erng-attack") {
      return perfbench::run_sim_workload(workload, flags);
    }
    if (workload == "tcp-ack") return perfbench::run_tcp_ack(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", workload.c_str());
  return 2;
}
