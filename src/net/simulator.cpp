#include "net/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "common/check.hpp"

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
// Event records and chunked event lists

Simulator::Event::Event(Event&& o) noexcept
    : at(o.at),
      seq(o.seq),
      cause_span(o.cause_span),
      from(o.from),
      to(o.to),
      tag(o.tag),
      wait(o.wait) {
  if (kind() == kShared) {
    std::construct_at(&shared, std::move(o.shared));
  } else {
    std::construct_at(&payload, std::move(o.payload));
  }
}

Simulator::Event::~Event() {
  if (kind() == kShared) {
    std::destroy_at(&shared);
  } else {
    std::destroy_at(&payload);
  }
}

/// 64 events plus a 16-byte header: one ≈ 4 KiB allocation, small enough
/// that malloc serves it from the heap rather than from a fresh mmap.
struct Simulator::EventList::Chunk {
  static constexpr std::uint32_t kEvents = 64;

  Chunk* next = nullptr;
  std::uint32_t begin = 0;  // first event not yet taken
  std::uint32_t end = 0;    // one past the last event appended
  alignas(Event) std::byte storage[kEvents * sizeof(Event)];

  Event* event(std::uint32_t i) {
    return std::launder(reinterpret_cast<Event*>(storage) + i);
  }
};

Simulator::EventList::EventList(EventList&& o) noexcept
    : head_(std::exchange(o.head_, nullptr)),
      tail_(std::exchange(o.tail_, nullptr)) {}

Simulator::EventList& Simulator::EventList::operator=(EventList&& o) noexcept {
  if (this != &o) {
    clear();
    head_ = std::exchange(o.head_, nullptr);
    tail_ = std::exchange(o.tail_, nullptr);
  }
  return *this;
}

Simulator::EventList::~EventList() { clear(); }

void Simulator::EventList::clear() {
  while (head_ != nullptr) {
    Chunk* c = head_;
    for (std::uint32_t i = c->begin; i < c->end; ++i) {
      std::destroy_at(c->event(i));
    }
    head_ = c->next;
    delete c;
  }
  tail_ = nullptr;
}

void Simulator::EventList::push_back(Event&& ev) {
  if (tail_ == nullptr || tail_->end == Chunk::kEvents) {
    auto* c = new Chunk;
    (tail_ != nullptr ? tail_->next : head_) = c;
    tail_ = c;
  }
  std::construct_at(tail_->event(tail_->end), std::move(ev));
  ++tail_->end;
}

Simulator::Event Simulator::EventList::take_front() {
  Chunk* c = head_;
  Event* front = c->event(c->begin);
  Event ev(std::move(*front));
  std::destroy_at(front);
  if (++c->begin == c->end) {
    // Every event appended to this chunk has been taken: free it, even when
    // it is the tail with room left, so an empty list holds nothing.
    head_ = c->next;
    if (head_ == nullptr) tail_ = nullptr;
    delete c;
  }
  return ev;
}

void Simulator::EventList::sort_by_seq() {
  std::uint64_t prev = 0;
  bool sorted = true;
  for (Chunk* c = head_; c != nullptr && sorted; c = c->next) {
    for (std::uint32_t i = c->begin; i < c->end && sorted; ++i) {
      sorted = c->event(i)->seq >= prev;
      prev = c->event(i)->seq;
    }
  }
  if (sorted) return;
  std::vector<Event*> order;
  for (Chunk* c = head_; c != nullptr; c = c->next) {
    for (std::uint32_t i = c->begin; i < c->end; ++i) {
      order.push_back(c->event(i));
    }
  }
  std::sort(order.begin(), order.end(),
            [](const Event* a, const Event* b) { return a->seq < b->seq; });
  EventList out;
  for (Event* ev : order) out.push_back(std::move(*ev));
  *this = std::move(out);  // destroys the moved-from records with their chunks
}

std::size_t Simulator::EventList::capacity_bytes() const {
  std::size_t chunks = 0;
  for (const Chunk* c = head_; c != nullptr; c = c->next) ++chunks;
  return chunks * sizeof(Chunk);
}

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

void Simulator::Wheel::insert(Event&& ev) {
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
  // Each chunk of the bucket is freed once its events are placed; they land
  // in lower levels, never back in this slot.
  EventList bucket = std::move(slots_[s]);
  while (!bucket.empty()) insert(bucket.take_front());
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
    EventList keep;
    far_min_ = kNoTime;
    while (!far_.empty()) {
      Event ev = far_.take_front();
      if (level_for(ev.at) >= 0) {
        insert(std::move(ev));
      } else {
        far_min_ = std::min(far_min_, ev.at);
        keep.push_back(std::move(ev));
      }
    }
    far_ = std::move(keep);
  }
}

void Simulator::Wheel::take_due(EventList& out) {
  const std::size_t idx = static_cast<std::uint64_t>(cur_) & kMask;
  auto& slot = slots_[idx];  // level 0
  if (slot.empty()) return;
  occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  slot_min_[idx] = kNoTime;
  out = std::move(slot);  // the batch takes the chunks wholesale
}

std::size_t Simulator::Wheel::capacity_bytes() const {
  std::size_t bytes = far_.capacity_bytes();
  for (const auto& slot : slots_) bytes += slot.capacity_bytes();
  return bytes;
}

// ---------------------------------------------------------------------------
// Driver

Simulator::Event Simulator::make_event(SimTime at) {
  Event ev;
  ev.at = std::max(at, now_);
  ev.seq = next_seq_++;
  const SimDuration wait = ev.at - now_;
  if (wait < SimDuration{kWideWait}) {
    ev.wait = static_cast<std::uint32_t>(wait);
  } else {
    ev.wait = kWideWait;
    wide_waits_.emplace(ev.seq, wait);
  }
  return ev;
}

void Simulator::enqueue(Event&& ev) {
  scheduled_ctr_.inc();
  ++pending_;
  if (!active_.empty() && ev.at == now_) {
    // An event scheduled at now while the now-batch drains fires after the
    // batch's remaining events: its seq is larger than all of theirs.
    active_.push_back(std::move(ev));
  } else {
    wheel_.insert(std::move(ev));
  }
  auto depth = static_cast<std::int64_t>(pending_);
  depth_gauge_.set(depth);
  depth_peak_.max_of(depth);
}

std::uint32_t Simulator::stash_timer(std::function<void()> fn) {
  if (free_timers_.empty()) {
    CHECK_MSG(timers_.size() <= kIndexMask, "Simulator: timer table full");
    timers_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(timers_.size() - 1);
  }
  const std::uint32_t idx = free_timers_.back();
  free_timers_.pop_back();
  timers_[idx] = std::move(fn);
  return idx;
}

void Simulator::schedule(SimTime at, std::function<void()> fn) {
  Event ev = make_event(at);
  // A timer inherits the causal context of whoever armed it, so the span
  // DAG flows through protocol delays (retransmit timers, round alignment).
  ev.cause_span = obs::TraceRecorder::global().current_cause();
  ev.tag = (kTimer << kKindShift) | stash_timer(std::move(fn));
  enqueue(std::move(ev));
}

std::uint32_t Simulator::add_delivery_handler(DeliveryHandler handler) {
  CHECK_MSG(handlers_.size() <= kIndexMask, "Simulator: too many handlers");
  handlers_.push_back(std::move(handler));
  return static_cast<std::uint32_t>(handlers_.size() - 1);
}

void Simulator::schedule_delivery(SimTime at, std::uint32_t handler,
                                  Delivery d) {
  deliveries_ctr_.inc();
  Event ev = make_event(at);
  ev.cause_span = d.cause_span;
  ev.from = d.from;
  ev.to = d.to;
  if (d.shared) {
    std::destroy_at(&ev.payload);
    std::construct_at(&ev.shared, std::move(d.shared));
    ev.tag = (kShared << kKindShift) | handler;
  } else {
    ev.payload = std::move(d.payload);
    ev.tag = (kOwned << kKindShift) | handler;
  }
  enqueue(std::move(ev));
}

void Simulator::fire(Event& ev) {
  fired_ctr_.inc();
  depth_gauge_.set(static_cast<std::int64_t>(pending_));
  if (ev.wait != kWideWait) {
    wait_hist_.observe(ev.wait);
  } else {
    auto it = wide_waits_.find(ev.seq);
    wait_hist_.observe(it->second);
    wide_waits_.erase(it);
  }
  penalty_ = SimDuration{0};
  // Everything the handler does — trace events, sends, timers it arms — is
  // caused by this event. The Scope is inert when tracing is off, and the
  // Network re-scopes deliveries to their own `deliver` span.
  obs::TraceRecorder::Scope causal(ev.cause_span);
  switch (ev.kind()) {
    case kTimer: {
      // Free the table entry before the call: the callback may arm timers
      // that reuse this index or grow the table.
      std::function<void()> fn = std::exchange(timers_[ev.index()], nullptr);
      free_timers_.push_back(ev.index());
      fn();
      break;
    }
    case kOwned:
      handlers_[ev.index()](
          Delivery{ev.from, ev.to, ev.cause_span, std::move(ev.payload), {}});
      break;
    case kShared:
      handlers_[ev.index()](
          Delivery{ev.from, ev.to, ev.cause_span, {}, std::move(ev.shared)});
      break;
  }
}

bool Simulator::next_ready(SimTime limit) {
  if (!active_.empty()) return now_ <= limit;
  auto t = wheel_.peek();
  if (!t || *t > limit) return false;
  wheel_.advance(*t);
  now_ = *t;
  wheel_.take_due(active_);
  // Restore the FIFO tie-break within the same-millisecond batch: a slot
  // that mixes direct inserts with cascaded events can interleave seqs.
  // That is rare in practice — a slot filled by one cascade (or by direct
  // inserts alone) is already seq-ordered, since both append in schedule
  // order — so sort_by_seq checks before paying for a sort of the batch.
  active_.sort_by_seq();
  return true;
}

bool Simulator::step_limit(SimTime limit) {
  if (!next_ready(limit)) return false;
  // Move out before firing: its chunk may be freed, and the callback may
  // append to active_.
  Event ev = active_.take_front();
  --pending_;
  fire(ev);
  return true;
}

bool Simulator::step() { return step_limit(Wheel::kNoTime); }

std::size_t Simulator::queue_capacity_bytes() const {
  return wheel_.capacity_bytes() + active_.capacity_bytes() +
         timers_.capacity() * sizeof(std::function<void()>) +
         free_timers_.capacity() * sizeof(std::uint32_t) +
         wide_waits_.size() * sizeof(decltype(wide_waits_)::value_type);
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
