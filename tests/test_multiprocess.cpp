// Multi-process integration: spawns N sgxp2p-node processes (real fork/exec,
// real TCP between them, wire-level attested setup, wall-clock rounds) and
// checks that every process decided the same value.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#ifndef SGXP2P_NODE_BIN
#define SGXP2P_NODE_BIN "../tools/sgxp2p-node"
#endif

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return content;
}

// Launches `n` node processes and returns their --out file contents.
std::vector<std::string> run_deployment(int n, int base_port,
                                        const std::string& protocol,
                                        const std::string& payload) {
  std::vector<pid_t> pids;
  std::vector<std::string> out_files;
  for (int i = 0; i < n; ++i) {
    std::string out = "/tmp/sgxp2p-node-" + std::to_string(getpid()) + "-" +
                      std::to_string(base_port) + "-" + std::to_string(i);
    out_files.push_back(out);
    pid_t pid = fork();
    if (pid == 0) {
      std::string id = std::to_string(i);
      std::string ns = std::to_string(n);
      std::string port = std::to_string(base_port);
      // Quiet the children.
      (void)!freopen("/dev/null", "w", stdout);
      execl(SGXP2P_NODE_BIN, SGXP2P_NODE_BIN, "--id", id.c_str(), "--n",
            ns.c_str(), "--base-port", port.c_str(), "--round-ms", "150",
            "--protocol", protocol.c_str(), "--payload", payload.c_str(),
            "--out", out.c_str(), static_cast<char*>(nullptr));
      _exit(127);  // exec failed
    }
    pids.push_back(pid);
  }
  for (pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  std::vector<std::string> results;
  for (const auto& path : out_files) {
    results.push_back(read_file(path));
    std::remove(path.c_str());
  }
  return results;
}

// Base ports sit below the kernel's default ephemeral range (32768–60999),
// so no outgoing connection elsewhere on the host (a concurrent socket test,
// say) can already hold a node's listening port.
int pick_port(int salt) { return 30000 + (getpid() * 7 + salt) % 2000; }

TEST(MultiProcess, ErbFiveProcessesAgree) {
  auto results = run_deployment(5, pick_port(0), "erb", "cross-process m");
  ASSERT_EQ(results.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(results[i].find("decided=1"), std::string::npos) << results[i];
    EXPECT_NE(results[i].find("value=cross-process m"), std::string::npos)
        << results[i];
  }
}

TEST(MultiProcess, ErngFourProcessesShareRandomness) {
  auto results = run_deployment(4, pick_port(500), "erng", "");
  ASSERT_EQ(results.size(), 4u);
  // Extract the value= token; all must match and be 64 hex chars.
  auto value_of = [](const std::string& line) {
    auto pos = line.find("value=");
    auto end = line.find(' ', pos);
    return line.substr(pos + 6, end - pos - 6);
  };
  std::string v0 = value_of(results[0]);
  EXPECT_EQ(v0.size(), 64u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(results[i].find("decided=1"), std::string::npos) << results[i];
    EXPECT_EQ(value_of(results[i]), v0) << results[i];
  }
}

}  // namespace
