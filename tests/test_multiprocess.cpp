// Multi-process integration: spawns N sgxp2p-node processes (real fork/exec,
// real TCP between them, wire-level attested setup, wall-clock rounds) and
// checks that every process decided the same value, that a deployment with
// a missing node fails at the bring-up deadline instead of hanging, and that
// a port range outside 1–65535 is rejected.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
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

// Forks one node process with `args` as its flags; its stdout is quieted.
pid_t spawn_node(const std::vector<std::string>& args) {
  std::vector<char*> argv{const_cast<char*>(SGXP2P_NODE_BIN)};
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = fork();
  if (pid == 0) {
    (void)!freopen("/dev/null", "w", stdout);
    execv(SGXP2P_NODE_BIN, argv.data());
    _exit(127);  // exec failed
  }
  return pid;
}

// Waits up to `timeout` for `pid` to exit and returns its exit code; a node
// still running then is killed, which returns -1.
int exit_code_within(pid_t pid, std::chrono::seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  int status = 0;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
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
    pids.push_back(spawn_node(
        {"--id", std::to_string(i), "--n", std::to_string(n), "--base-port",
         std::to_string(base_port), "--round-ms", "150", "--protocol",
         protocol, "--payload", payload, "--out", out}));
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

TEST(MultiProcess, StartFailsWhenPeerMissing) {
  // Node 1 never starts: node 0 waits for its dial, and nodes 2 and 3 dial
  // it in vain. Each gives up at the 15 s bring-up deadline and exits 1.
  const std::string port = std::to_string(pick_port(1000));
  std::vector<pid_t> pids;
  for (const char* id : {"0", "2", "3"}) {
    pids.push_back(spawn_node({"--id", id, "--n", "4", "--base-port", port}));
  }
  for (pid_t pid : pids) {
    EXPECT_EQ(exit_code_within(pid, std::chrono::seconds(30)), 1);
  }
}

TEST(MultiProcess, RejectsOutOfRangeBasePort) {
  // 65534 + 3 overflows a port: unchecked, node 2 would get port 0 (any
  // port the kernel picks) and node 3 port 1.
  for (const char* base : {"65534", "0"}) {
    pid_t pid = spawn_node({"--id", "0", "--n", "4", "--base-port", base});
    EXPECT_EQ(exit_code_within(pid, std::chrono::seconds(5)), 2) << base;
  }
}

}  // namespace
