#include "net/simulator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace sgxp2p::sim {

Simulator::Simulator(obs::MetricsRegistry& registry)
    : scheduled_ctr_(registry.counter("sim.events_scheduled")),
      fired_ctr_(registry.counter("sim.events_fired")),
      deliveries_ctr_(registry.counter("sim.deliveries")),
      depth_gauge_(registry.gauge("sim.queue_depth")),
      depth_peak_(registry.gauge("sim.queue_peak")),
      wait_hist_(registry.histogram(
          "sim.event_wait_ms",
          {0, 1, 10, 100, 250, 500, 1000, 2000, 5000, 10000})) {}

// ---------------------------------------------------------------------------
// Timer wheel

int Simulator::Wheel::level_for(SimTime at) const {
  // An event belongs to the lowest level at which its bucket index differs
  // from the cursor's by < kSlots. The subtraction is safe: callers only
  // insert at >= cur_.
  const auto a = static_cast<std::uint64_t>(at);
  const auto c = static_cast<std::uint64_t>(cur_);
  for (int l = 0; l < kLevels; ++l) {
    if (((a >> (l * kBits)) - (c >> (l * kBits))) < kSlots) return l;
  }
  return -1;  // beyond the top level: overflow list
}

int Simulator::Wheel::scan_from(int level, std::size_t start) const {
  const std::uint64_t* words = occupied_.data() +
                               static_cast<std::size_t>(level) * kWords;
  std::size_t w = start >> 6;
  std::uint64_t word = words[w] & (~std::uint64_t{0} << (start & 63));
  // One full cycle plus a re-visit of the masked first word.
  for (std::size_t i = 0; i <= kWords; ++i) {
    if (word != 0) {
      return static_cast<int>((w << 6) +
                              static_cast<std::size_t>(std::countr_zero(word)));
    }
    w = (w + 1) & (kWords - 1);
    word = words[w];
  }
  return -1;
}

void Simulator::Wheel::place(Event ev) {
  const int l = level_for(ev.at);
  if (l < 0) {
    far_min_ = std::min(far_min_, ev.at);
    far_.push_back(std::move(ev));
    return;
  }
  const std::size_t idx =
      (static_cast<std::uint64_t>(ev.at) >> (l * kBits)) & kMask;
  const std::size_t s = static_cast<std::size_t>(l) * kSlots + idx;
  slot_min_[s] = std::min(slot_min_[s], ev.at);
  occupied_[static_cast<std::size_t>(l) * kWords + (idx >> 6)] |=
      std::uint64_t{1} << (idx & 63);
  slots_[s].push_back(std::move(ev));
}

void Simulator::Wheel::insert(Event ev) {
  ++size_;
  place(std::move(ev));
}

std::optional<SimTime> Simulator::Wheel::peek() const {
  SimTime best = kNoTime;
  for (int l = 0; l < kLevels; ++l) {
    std::size_t start =
        (static_cast<std::uint64_t>(cur_) >> (l * kBits)) & kMask;
    // At coarse levels the cursor's own bucket is always empty (its events
    // cascaded down when the cursor entered it), so the cyclic scan starts
    // just past it — making scan order equal time order within the level.
    if (l > 0) start = (start + 1) & kMask;
    const int idx = scan_from(l, start);
    if (idx >= 0) {
      best = std::min(
          best, slot_min_[static_cast<std::size_t>(l) * kSlots +
                          static_cast<std::size_t>(idx)]);
    }
  }
  if (!far_.empty()) best = std::min(best, far_min_);
  if (best == kNoTime) return std::nullopt;
  return best;
}

void Simulator::Wheel::cascade(int level, std::size_t idx) {
  const std::size_t s = static_cast<std::size_t>(level) * kSlots + idx;
  if (slots_[s].empty()) return;
  occupied_[static_cast<std::size_t>(level) * kWords + (idx >> 6)] &=
      ~(std::uint64_t{1} << (idx & 63));
  slot_min_[s] = kNoTime;
  // The bucket's buffer is freed when the cascade ends; its events land in
  // lower levels, never back in this slot.
  std::vector<Event> bucket = std::exchange(slots_[s], {});
  for (Event& ev : bucket) place(std::move(ev));
}

void Simulator::Wheel::advance(SimTime to) {
  if (to <= cur_) return;
  const auto old = static_cast<std::uint64_t>(cur_);
  const auto tgt = static_cast<std::uint64_t>(to);
  cur_ = to;
  // Top-down: a bucket cascaded from level L may land in the level-(L−1)
  // bucket that is itself about to be cascaded.
  for (int l = kLevels - 1; l >= 1; --l) {
    if ((old >> (l * kBits)) == (tgt >> (l * kBits))) continue;
    cascade(l, (tgt >> (l * kBits)) & kMask);
  }
  if (!far_.empty() && (old >> (kLevels * kBits)) != (tgt >> (kLevels * kBits))) {
    std::vector<Event> keep;  // sized by what stays, not by what left
    far_min_ = kNoTime;
    for (Event& ev : far_) {
      if (level_for(ev.at) >= 0) {
        place(std::move(ev));
      } else {
        far_min_ = std::min(far_min_, ev.at);
        keep.push_back(std::move(ev));
      }
    }
    far_ = std::move(keep);
  }
}

void Simulator::Wheel::take_due(std::vector<Event>& out) {
  const std::size_t idx = static_cast<std::uint64_t>(cur_) & kMask;
  auto& slot = slots_[idx];  // level 0
  if (slot.empty()) return;
  occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  slot_min_[idx] = kNoTime;
  size_ -= slot.size();
  out = std::exchange(slot, {});  // the batch takes the buffer wholesale
}

std::size_t Simulator::Wheel::capacity_bytes() const {
  std::size_t events = far_.capacity();
  for (const auto& slot : slots_) events += slot.capacity();
  return events * sizeof(Event);
}

// ---------------------------------------------------------------------------
// Driver

void Simulator::enqueue(Event ev) {
  scheduled_ctr_.inc();
  if (active_pos_ < active_.size() && ev.at == now_) {
    // An event scheduled at now while the now-batch drains fires after the
    // batch's remaining events: its seq is larger than all of theirs.
    active_.push_back(std::move(ev));
  } else {
    wheel_.insert(std::move(ev));
  }
  auto depth = static_cast<std::int64_t>(pending());
  depth_gauge_.set(depth);
  depth_peak_.max_of(depth);
}

std::uint32_t Simulator::stash_timer(std::function<void()> fn) {
  if (free_timers_.empty()) {
    timers_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(timers_.size() - 1);
  }
  const std::uint32_t idx = free_timers_.back();
  free_timers_.pop_back();
  timers_[idx] = std::move(fn);
  return idx;
}

void Simulator::schedule(SimTime at, std::function<void()> fn) {
  Event ev;
  ev.at = std::max(at, now_);
  ev.seq = next_seq_++;
  ev.queued_at = now_;
  // A timer inherits the causal context of whoever armed it, so the span
  // DAG flows through protocol delays (retransmit timers, round alignment).
  ev.cause_span = obs::TraceRecorder::global().current_cause();
  ev.timer = stash_timer(std::move(fn));
  enqueue(std::move(ev));
}

std::uint32_t Simulator::add_delivery_handler(DeliveryHandler handler) {
  handlers_.push_back(std::move(handler));
  return static_cast<std::uint32_t>(handlers_.size() - 1);
}

void Simulator::schedule_delivery(SimTime at, std::uint32_t handler,
                                  Delivery d) {
  deliveries_ctr_.inc();
  Event ev;
  ev.at = std::max(at, now_);
  ev.seq = next_seq_++;
  ev.queued_at = now_;
  ev.cause_span = d.cause_span;
  ev.from = d.from;
  ev.to = d.to;
  ev.handler = handler;
  ev.payload = std::move(d.payload);
  ev.shared = std::move(d.shared);
  enqueue(std::move(ev));
}

void Simulator::fire(Event& ev) {
  fired_ctr_.inc();
  depth_gauge_.set(static_cast<std::int64_t>(pending()));
  wait_hist_.observe(ev.at - ev.queued_at);
  penalty_ = SimDuration{0};
  // Everything the handler does — trace events, sends, timers it arms — is
  // caused by this event. The Scope is inert when tracing is off, and the
  // Network re-scopes deliveries to their own `deliver` span.
  obs::TraceRecorder::Scope causal(ev.cause_span);
  if (ev.handler == kTimer) {
    // Free the table entry before the call: the callback may arm timers
    // that reuse this index or grow the table.
    std::function<void()> fn = std::exchange(timers_[ev.timer], nullptr);
    free_timers_.push_back(ev.timer);
    fn();
  } else {
    Delivery d{ev.from, ev.to, ev.cause_span, std::move(ev.payload),
               std::move(ev.shared)};
    handlers_[ev.handler](std::move(d));
  }
}

bool Simulator::next_ready(SimTime limit) {
  if (active_pos_ < active_.size()) return now_ <= limit;
  if (active_pos_ != 0) {
    // Release the drained batch's buffer: the next take_due brings its own,
    // and an idle queue keeps no capacity.
    active_ = std::vector<Event>();
    active_pos_ = 0;
  }
  auto t = wheel_.peek();
  if (!t || *t > limit) return false;
  wheel_.advance(*t);
  now_ = *t;
  wheel_.take_due(active_);
  // Restore the FIFO tie-break within the same-millisecond batch: a slot
  // that mixes direct inserts with cascaded events can interleave seqs.
  // That is rare in practice — a slot filled by one cascade (or by direct
  // inserts alone) is already seq-ordered, since both append in schedule
  // order — so check before paying for a sort of the whole batch.
  auto by_seq = [](const Event& a, const Event& b) { return a.seq < b.seq; };
  if (!std::is_sorted(active_.begin(), active_.end(), by_seq)) {
    std::sort(active_.begin(), active_.end(), by_seq);
  }
  return true;
}

bool Simulator::step_limit(SimTime limit) {
  if (!next_ready(limit)) return false;
  // Move out before firing: the callback may append to active_.
  Event ev = std::move(active_[active_pos_]);
  ++active_pos_;
  fire(ev);
  return true;
}

bool Simulator::step() { return step_limit(Wheel::kNoTime); }

std::size_t Simulator::queue_capacity_bytes() const {
  return wheel_.capacity_bytes() +
         active_.capacity() * sizeof(Event) +
         timers_.capacity() * sizeof(std::function<void()>) +
         free_timers_.capacity() * sizeof(std::uint32_t);
}

void Simulator::run() {
  while (step_limit(Wheel::kNoTime)) {
  }
}

void Simulator::run_until(SimTime t) {
  while (step_limit(t)) {
  }
  now_ = std::max(now_, t);
  wheel_.advance(now_);
}

}  // namespace sgxp2p::sim
