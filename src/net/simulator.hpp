// Discrete-event simulator with virtual time.
//
// Single-threaded, deterministic: events at equal timestamps fire in
// scheduling order. Implements sgx::TrustedClock so enclaves read the same
// virtual clock the event loop advances — modeling the hardware timer the
// OS cannot skew (feature F4). All timing results in EXPERIMENTS.md are
// virtual seconds from this clock.
//
// The event queue is a hierarchical timer wheel: kLevels levels of kSlots
// buckets, each level covering kBits more bits of the timestamp. Network
// delays are bounded by Δ = base_delay + max_jitter, and level 0 spans
// 1024 ms — more than a default round (2Δ = 1000 ms) — so every delivery of
// a default run goes straight into its millisecond slot and never cascades;
// schedule/pop are O(1) instead of O(log m) on a heap holding ~n² pending
// deliveries. Per-level occupancy bitmaps make "next non-empty bucket" a
// handful of word scans; a per-slot minimum keeps peek exact even when a
// coarse slot spans many timestamps. Events due at the same millisecond are
// drained as one batch sorted by seq, which gives the global FIFO
// tie-break: events fire in (time, seq) order. Traces and metrics of fixed
// scenarios are pinned to committed golden digests
// (tests/test_event_engine.cpp).
//
// Every pending event is one flat 64-byte record. Message deliveries are
// typed events (Delivery{from, to, cause_span, payload, shared}) routed to a
// registered handler rather than per-message std::function closures; a
// protocol timer's closure lives in a side table the record indexes. The
// record holds either the owned payload or the refcounted one (multicast
// payloads are shared, so an n−1 fan-out carries one buffer), never both.
// Each slot, the overflow list and the due batch store their records in
// fixed-size chunks of 64 (≈ 4 KiB): an insert appends in place, a slot
// hands its chunks to the batch wholesale, and the batch frees each chunk
// once it has fired every event in it. So the queue holds the pending
// records plus at most one partial chunk per occupied slot, an idle queue
// holds none, and no buffer ever grows by copying.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sgx/trusted_time.hpp"

namespace sgxp2p::sim {

/// One in-flight message: the typed event the network schedules instead of
/// a closure. Exactly one of `payload` (owned, unicast) or `shared`
/// (refcounted, one buffer fanned out to a whole group) carries the bytes.
struct Delivery {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::uint64_t cause_span = 0;  // span of the `net send` trace event
  Bytes payload;
  std::shared_ptr<const Bytes> shared;

  [[nodiscard]] ByteView view() const {
    return shared ? ByteView(*shared) : ByteView(payload);
  }
};

class Simulator : public sgx::TrustedClock {
 public:
  using DeliveryHandler = std::function<void(Delivery&&)>;

  /// Instruments sim.* on `registry` (defaults to the thread's current
  /// registry, which is the global one unless a run rebound it).
  explicit Simulator(
      obs::MetricsRegistry& registry = obs::MetricsRegistry::current());
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const override { return now_; }

  /// Schedules `fn` at absolute virtual time `at` (clamped to now).
  void schedule(SimTime at, std::function<void()> fn);
  void schedule_in(SimDuration delay, std::function<void()> fn) {
    schedule(now() + delay, std::move(fn));
  }

  /// Registers a delivery dispatcher (the Network registers one per
  /// instance); the returned index keys schedule_delivery.
  std::uint32_t add_delivery_handler(DeliveryHandler handler);

  /// Schedules a typed delivery at `at` (clamped to now): no closure, no
  /// type-erased dispatch — the flat Delivery rides inside the event.
  void schedule_delivery(SimTime at, std::uint32_t handler, Delivery d);

  /// Runs until the event queue is empty.
  void run();
  /// Runs events with timestamp ≤ t, then sets now to t.
  void run_until(SimTime t);
  /// Runs a single event; returns false if the queue was empty.
  bool step();

  /// Enclave-transition cost accounting (src/sgx/transition.hpp). A handler
  /// that crosses the enclave boundary charges its virtual transition cost
  /// here; the Network folds the accumulated charge into the arrival time of
  /// the next send, modeling "the CPU was busy switching worlds before the
  /// message hit the wire". fire() zeroes the accumulator before each event
  /// so one handler's charges never leak into another's sends.
  void charge(SimDuration cost) { penalty_ += cost; }
  [[nodiscard]] SimDuration pending_charge() const { return penalty_; }
  void clear_charge() { penalty_ = SimDuration{0}; }

  [[nodiscard]] bool idle() const { return pending() == 0; }
  [[nodiscard]] std::size_t pending() const { return pending_; }

  /// Bytes of storage the event queue holds right now: the chunks of the
  /// wheel's slots, the overflow list and the due batch, the timer table,
  /// and the side entries of waits too wide for a record. Fixed-size
  /// bookkeeping (bitmaps, slot headers) is not counted. Once the queue
  /// drains, only the timer table keeps capacity.
  [[nodiscard]] std::size_t queue_capacity_bytes() const;

 private:
  /// What an event's record carries, in the top bits of Event::tag.
  enum Kind : std::uint32_t { kTimer = 0, kOwned = 1, kShared = 2 };
  static constexpr int kKindShift = 30;
  static constexpr std::uint32_t kIndexMask =
      (std::uint32_t{1} << kKindShift) - 1;
  /// Event::wait of a wait ≥ 2^32 − 1 ms, whose exact value is in
  /// wide_waits_.
  static constexpr std::uint32_t kWideWait =
      std::numeric_limits<std::uint32_t>::max();

  /// One pending event, flat. A delivery's fields ride inline; a timer
  /// carries only the index of its closure in the timer table. The union
  /// holds `shared` for a kShared delivery and `payload` otherwise (empty for
  /// a timer); the kind in `tag` says which.
  struct Event {
    SimTime at = 0;
    std::uint64_t seq = 0;         // tie-break: FIFO among equal timestamps
    std::uint64_t cause_span = 0;  // delivery's send span, or timer's cause
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    std::uint32_t tag = 0;   // Kind << kKindShift | handler or timer index
    std::uint32_t wait = 0;  // at − enqueue time, or kWideWait
    union {
      Bytes payload;
      std::shared_ptr<const Bytes> shared;
    };

    Event() : payload() {}
    Event(Event&& o) noexcept;
    Event& operator=(Event&&) = delete;
    ~Event();

    [[nodiscard]] Kind kind() const {
      return static_cast<Kind>(tag >> kKindShift);
    }
    [[nodiscard]] std::uint32_t index() const { return tag & kIndexMask; }
  };
  static_assert(sizeof(Event) == 64);

  /// A FIFO of events stored in fixed-size chunks. Appending never moves an
  /// event already stored; taking the front frees its chunk once every event
  /// in it has been taken, so an empty list holds no memory.
  class EventList {
   public:
    EventList() = default;
    EventList(EventList&& o) noexcept;
    EventList& operator=(EventList&& o) noexcept;
    ~EventList();

    [[nodiscard]] bool empty() const { return head_ == nullptr; }
    void push_back(Event&& ev);
    /// Moves the oldest event out (precondition: not empty).
    Event take_front();
    /// Reorders the events by seq if they are not already in that order.
    void sort_by_seq();
    /// Bytes of the chunks held.
    [[nodiscard]] std::size_t capacity_bytes() const;

   private:
    struct Chunk;
    void clear();

    Chunk* head_ = nullptr;
    Chunk* tail_ = nullptr;
  };

  /// Hierarchical timer wheel. Level L buckets timestamps by bits
  /// [L·kBits, (L+1)·kBits); an event goes to the lowest level whose
  /// bucket still distinguishes it from the cursor. Advancing the cursor
  /// across a level-L bucket boundary cascades that one bucket's events
  /// down a level, so every event is touched O(kLevels) times total.
  class Wheel {
   public:
    // Level 0 spans 1024 ms, more than a default round (2Δ = 1000 ms).
    static constexpr int kBits = 10;
    static constexpr int kLevels = 4;  // covers deltas up to 2^40 ms
    static constexpr std::size_t kSlots = std::size_t{1} << kBits;
    static constexpr std::size_t kMask = kSlots - 1;
    static constexpr std::size_t kWords = kSlots / 64;
    static constexpr SimTime kNoTime = std::numeric_limits<SimTime>::max();

    void insert(Event&& ev);  // precondition: ev.at >= cur()
    /// Earliest pending timestamp, if any. O(kLevels) via the occupancy
    /// bitmaps and per-slot minima.
    [[nodiscard]] std::optional<SimTime> peek() const;
    /// Moves the cursor to `to` (precondition: nothing pending before it),
    /// cascading coarse buckets the cursor enters.
    void advance(SimTime to);
    /// Hands the chunks of the events due exactly at the cursor to `out`
    /// (unsorted; precondition: `out` is empty), leaving the slot empty.
    void take_due(EventList& out);
    [[nodiscard]] SimTime cur() const { return cur_; }
    /// Bytes of the chunks held by the slots and the overflow list.
    [[nodiscard]] std::size_t capacity_bytes() const;

   private:
    [[nodiscard]] int level_for(SimTime at) const;
    [[nodiscard]] int scan_from(int level, std::size_t start) const;
    void cascade(int level, std::size_t idx);

    SimTime cur_ = 0;
    std::vector<EventList> slots_ = std::vector<EventList>(kLevels * kSlots);
    std::vector<SimTime> slot_min_ =
        std::vector<SimTime>(kLevels * kSlots, kNoTime);
    std::array<std::uint64_t, kLevels * kWords> occupied_{};
    // Deltas beyond the top level (> ~34 years of virtual time): kept in an
    // unordered overflow list, re-filed when the cursor gets close.
    EventList far_;
    SimTime far_min_ = kNoTime;
  };

  /// A new event due at `at` (clamped to now), with its seq and wait.
  Event make_event(SimTime at);
  void enqueue(Event&& ev);
  /// Stores a timer closure in the timer table; returns its index.
  std::uint32_t stash_timer(std::function<void()> fn);
  void fire(Event& ev);
  /// Fires the next event with timestamp ≤ limit; false if none.
  bool step_limit(SimTime limit);
  /// Ensures active_ holds an unfired batch due ≤ limit.
  bool next_ready(SimTime limit);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;  // events in the wheel plus the unfired batch
  SimDuration penalty_ = SimDuration{0};  // unconsumed enclave-transition cost
  Wheel wheel_;
  // The batch of events due at now_, sorted by seq; events scheduled at
  // now_ while the batch drains are appended, keeping FIFO order.
  EventList active_;
  // Waits of ≥ kWideWait ms (timers armed ~50 days ahead), keyed by seq.
  std::map<std::uint64_t, SimDuration> wide_waits_;
  std::vector<DeliveryHandler> handlers_;
  // Timer table: the closures of pending timer events, indexed by a timer
  // event's index(). Fired entries go on the free list and are reused by the
  // next schedule().
  std::vector<std::function<void()>> timers_;
  std::vector<std::uint32_t> free_timers_;

  // Registry handles (sim.*), resolved once at construction; incrementing
  // them is a relaxed atomic add, cheap enough for the accounted benches.
  obs::Counter& scheduled_ctr_;
  obs::Counter& fired_ctr_;
  obs::Counter& deliveries_ctr_;
  obs::Gauge& depth_gauge_;
  obs::Gauge& depth_peak_;
  obs::Histogram& wait_hist_;
};

}  // namespace sgxp2p::sim
