// TraceRecorder — structured per-run event capture with JSONL export.
//
// Records events {vt, node, span, cause, component, event, fields…} into a
// preallocated ring buffer. Every recorded event gets a monotonically
// assigned `span` id, and a `cause` id naming the span of the event that
// triggered it (0 = root), so one run's trace is a complete causal DAG —
// see docs/OBSERVABILITY.md and src/obs/causal.hpp. Recording is designed
// for the simulator hot path:
//   - zero-cost when disabled: one branch on a plain bool, no allocation;
//   - allocation-light when enabled: events are fixed-size PODs whose keys,
//     component, and event names must be string literals (the recorder
//     stores the pointers, never copies), and numeric fields are int64.
//
// Time is always the simulator's virtual clock, so two same-seed runs emit
// byte-identical JSONL — the determinism test in tests/test_obs.cpp holds
// the repo to that.
//
// When the ring overflows the oldest events are dropped (and counted);
// tools warn when dropped() > 0 so a truncated timeline is never silently
// presented as complete.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace sgxp2p::obs {

/// One key/value field. `key` and `str` must be string literals (or
/// otherwise outlive the recorder). A null `str` means the value is `num`.
struct TraceField {
  const char* key = nullptr;
  std::int64_t num = 0;
  const char* str = nullptr;
};

/// Numeric field shorthand: fnum("round", 3).
inline TraceField fnum(const char* key, std::int64_t v) {
  return TraceField{key, v, nullptr};
}
/// String field shorthand: fstr("type", "INIT").
inline TraceField fstr(const char* key, const char* v) {
  return TraceField{key, 0, v};
}

struct TraceEvent {
  SimTime vt = 0;
  std::uint32_t node = 0;
  std::uint64_t span = 0;   // assigned by the recorder (monotonic, 1-based)
  std::uint64_t cause = 0;  // span of the event that triggered this one
  const char* component = nullptr;
  const char* event = nullptr;
  std::array<TraceField, 4> fields{};  // unused tail entries have key==null
};

class TraceRecorder {
 public:
  /// The process-wide recorder every component writes to.
  static TraceRecorder& global();

  /// Starts recording into a ring of `capacity` events (preallocated).
  void enable(std::size_t capacity = kDefaultCapacity);
  void disable();
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records `ev`, assigning it the next monotonic span id (1-based). When
  /// `ev.cause` is 0 the recorder substitutes the ambient cause (see Scope);
  /// a nonzero cause passes through untouched. Returns the assigned span id,
  /// or 0 when recording is disabled — 0 is never a valid span, so callers
  /// can use the return value unconditionally as a causal token.
  std::uint64_t record(TraceEvent ev) {
    if (!enabled_) return 0;
    if (ev.cause == 0) ev.cause = current_;
    ev.span = next_span_++;
    push(ev);
    return ev.span;
  }

  /// The ambient cause applied to events recorded with cause==0. 0 means
  /// "root": the event was not triggered by any recorded event.
  [[nodiscard]] std::uint64_t current_cause() const { return current_; }

  /// RAII ambient-cause scope: while alive, events recorded without an
  /// explicit cause are attributed to `span`. Scopes nest (dispatch → handler
  /// → helper) and restore the previous ambient cause on destruction. A
  /// Scope built while the recorder is disabled, or with span 0, is inert —
  /// it neither reads nor writes recorder state, so untraced parallel sweeps
  /// never touch the global singleton.
  class Scope {
   public:
    explicit Scope(std::uint64_t span)
        : recorder_(global()),
          active_(span != 0 && recorder_.enabled()),
          saved_(active_ ? recorder_.current_ : 0) {
      if (active_) recorder_.current_ = span;
    }
    ~Scope() {
      if (active_) recorder_.current_ = saved_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TraceRecorder& recorder_;
    bool active_;
    std::uint64_t saved_;
  };

  /// Drops all recorded events (and the dropped counter); keeps the enabled
  /// state and capacity.
  void reset();

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Writes one JSON object per line, oldest event first:
  ///   {"vt":12,"node":3,"component":"erb","event":"send","type":"INIT",...}
  void write_jsonl(std::ostream& os) const;
  [[nodiscard]] std::string to_jsonl() const;
  /// Returns false when the file cannot be opened.
  bool write_file(const std::string& path) const;

  static constexpr std::size_t kDefaultCapacity = 1u << 18;

 private:
  void push(const TraceEvent& ev);

  bool enabled_ = false;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;   // index of the oldest event
  std::size_t count_ = 0;  // number of valid events
  std::uint64_t dropped_ = 0;
  std::uint64_t next_span_ = 1;  // span 0 is reserved for "no cause"
  std::vector<TraceEvent> ring_;
  // Ambient cause (see Scope), one per thread.
  inline static thread_local std::uint64_t current_ = 0;
};

/// Convenience emitter: single branch when tracing is off. Returns the span
/// id assigned to the event (0 when tracing is disabled), so call sites can
/// open a TraceRecorder::Scope attributing follow-on work to this event.
inline std::uint64_t trace_event(SimTime vt, std::uint32_t node,
                                 const char* component, const char* event,
                                 TraceField f0 = {}, TraceField f1 = {},
                                 TraceField f2 = {}, TraceField f3 = {}) {
  TraceRecorder& tr = TraceRecorder::global();
  if (!tr.enabled()) return 0;
  return tr.record(TraceEvent{vt, node, 0, 0, component, event,
                              {f0, f1, f2, f3}});
}

/// Emitter with an explicit cause, bypassing the ambient scope. Used where
/// the trigger is known out-of-band (a Delivery carries the span of its
/// `net send`), so the attribution cannot depend on which event engine ran
/// the dispatch.
inline std::uint64_t trace_event_caused(SimTime vt, std::uint32_t node,
                                        std::uint64_t cause,
                                        const char* component,
                                        const char* event, TraceField f0 = {},
                                        TraceField f1 = {},
                                        TraceField f2 = {}) {
  TraceRecorder& tr = TraceRecorder::global();
  if (!tr.enabled()) return 0;
  return tr.record(TraceEvent{vt, node, 0, cause, component, event,
                              {f0, f1, f2, TraceField{}}});
}

}  // namespace sgxp2p::obs
