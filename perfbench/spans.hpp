// Benchmark-side spans at the host boundary of the simulated stack.
//
// TracingStrategy is a pass-through adversary::Strategy decorator: it wraps
// each host's strategy (honest or byzantine) together with the HostContext
// it is handed, and records a `host.deliver` span around every
// ctx.deliver (the ECALL: transition accounting, open, parse, handler,
// reply seals) and a `host.forward` span around every ctx.forward
// (Network::send: jitter, FIFO, metering, schedule). The workload opens a
// `round` span around each Testbed::run_rounds(1), which is the parent of
// every host span inside it. Host spans are aggregated per (round, name) as
// count, total and self time, so a million-message round costs three
// accumulators instead of millions of records.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/strategy.hpp"
#include "common.hpp"

namespace perfbench {

enum class Span : std::uint8_t { kRound = 0, kDeliver = 1, kForward = 2 };
inline constexpr std::size_t kSpanKinds = 3;
inline constexpr std::array<const char*, kSpanKinds> kSpanNames = {
    "round", "host.deliver", "host.forward"};

class SpanLog {
 public:
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;  // total minus time covered by child spans
  };
  using RoundAggs = std::array<Agg, kSpanKinds>;

  /// Rounds are numbered from 1; index 0 collects host spans that happen
  /// outside any round.
  void begin_round(std::uint32_t round) {
    round_ = round;
    if (rounds_.size() <= round) rounds_.resize(round + 1);
    open(Span::kRound);
  }
  void end_round() {
    close();
    round_ = 0;
  }

  void open(Span kind) { stack_.push_back(Open{kind, Clock::now(), 0}); }
  void close() {
    const Open top = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = ns_since(top.start);
    if (rounds_.size() <= round_) rounds_.resize(round_ + 1);
    Agg& agg = rounds_[round_][static_cast<std::size_t>(top.kind)];
    ++agg.count;
    agg.total_ns += dur;
    agg.self_ns += dur - top.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
  }

  /// Sum over all rounds (and outside them) for one span kind.
  [[nodiscard]] Agg total(Span kind) const {
    Agg sum;
    for (const RoundAggs& r : rounds_) {
      const Agg& a = r[static_cast<std::size_t>(kind)];
      sum.count += a.count;
      sum.total_ns += a.total_ns;
      sum.self_ns += a.self_ns;
    }
    return sum;
  }
  /// Host spans recorded outside every round span.
  [[nodiscard]] std::uint64_t outside_count() const {
    if (rounds_.empty()) return 0;
    return rounds_[0][static_cast<std::size_t>(Span::kDeliver)].count +
           rounds_[0][static_cast<std::size_t>(Span::kForward)].count;
  }

  /// Per-round aggregates:
  /// [{"round_index":r,"round":{…},"host.deliver":{…},"host.forward":{…}},…].
  [[nodiscard]] std::string json() const {
    std::string out = "[";
    for (std::size_t r = 0; r < rounds_.size(); ++r) {
      JsonObject row;
      row.u64("round_index", r);
      for (std::size_t k = 0; k < kSpanKinds; ++k) {
        const Agg& a = rounds_[r][k];
        row.raw(kSpanNames[k], JsonObject()
                                   .u64("count", a.count)
                                   .i64("total_ns", a.total_ns)
                                   .i64("self_ns", a.self_ns)
                                   .done());
      }
      if (r > 0) out += ',';
      out += row.done();
    }
    return out + "]";
  }

 private:
  struct Open {
    Span kind;
    Clock::time_point start;
    std::int64_t child_ns;
  };
  std::vector<Open> stack_;
  std::vector<RoundAggs> rounds_;
  std::uint32_t round_ = 0;
};

/// The HostContext handed to the wrapped strategy: every capability passes
/// straight through to the host's own context; deliver and forward are
/// bracketed by spans.
class TracingContext final : public sgxp2p::adversary::HostContext {
 public:
  explicit TracingContext(SpanLog& log) : log_(&log) {}

  /// The host's context; the same object on every call of one host.
  void bind(sgxp2p::adversary::HostContext& inner) { inner_ = &inner; }

  [[nodiscard]] sgxp2p::NodeId self() const override { return inner_->self(); }
  [[nodiscard]] sgxp2p::SimTime now() const override { return inner_->now(); }
  void forward(sgxp2p::NodeId to, sgxp2p::Bytes blob) override {
    log_->open(Span::kForward);
    inner_->forward(to, std::move(blob));
    log_->close();
  }
  void deliver(sgxp2p::NodeId from, sgxp2p::Bytes blob) override {
    log_->open(Span::kDeliver);
    inner_->deliver(from, std::move(blob));
    log_->close();
  }
  void schedule_in(sgxp2p::SimDuration delay,
                   std::function<void()> fn) override {
    inner_->schedule_in(delay, std::move(fn));
  }
  [[nodiscard]] const std::vector<sgxp2p::NodeId>& colluders() const override {
    return inner_->colluders();
  }
  sgxp2p::Rng& rng() override { return inner_->rng(); }

 private:
  SpanLog* log_;
  sgxp2p::adversary::HostContext* inner_ = nullptr;
};

/// Pass-through decorator. Strategies that keep the context for later
/// (DelayStrategy, ReplayStrategy) capture ctx_, which lives as long as the
/// host that owns this strategy. Also tallies the wire size of every blob
/// the enclave hands its host, which sizes the isolated probes.
class TracingStrategy final : public sgxp2p::adversary::Strategy {
 public:
  TracingStrategy(std::unique_ptr<sgxp2p::adversary::Strategy> inner,
                  SpanLog& log, std::vector<std::uint64_t>& sent_sizes)
      : inner_(std::move(inner)), ctx_(log), sent_sizes_(&sent_sizes) {}
  TracingStrategy(const TracingStrategy&) = delete;  // callbacks hold &ctx_
  TracingStrategy& operator=(const TracingStrategy&) = delete;

  void on_send(sgxp2p::adversary::HostContext& ctx, sgxp2p::NodeId to,
               sgxp2p::Bytes blob) override {
    ctx_.bind(ctx);
    if (sent_sizes_->size() <= blob.size()) sent_sizes_->resize(blob.size() + 1);
    ++(*sent_sizes_)[blob.size()];
    inner_->on_send(ctx_, to, std::move(blob));
  }
  void on_receive(sgxp2p::adversary::HostContext& ctx, sgxp2p::NodeId from,
                  sgxp2p::Bytes blob) override {
    ctx_.bind(ctx);
    inner_->on_receive(ctx_, from, std::move(blob));
  }
  std::optional<sgxp2p::Bytes> on_restore(
      const std::vector<sgxp2p::Bytes>& history) override {
    return inner_->on_restore(history);
  }
  [[nodiscard]] bool is_byzantine() const override {
    return inner_->is_byzantine();
  }

 private:
  std::unique_ptr<sgxp2p::adversary::Strategy> inner_;
  TracingContext ctx_;
  std::vector<std::uint64_t>* sent_sizes_;
};

}  // namespace perfbench
