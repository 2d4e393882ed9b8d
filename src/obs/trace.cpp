#include "obs/trace.hpp"

#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"

namespace sgxp2p::obs {

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::enable(std::size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.assign(capacity_, TraceEvent{});
  head_ = 0;
  count_ = 0;
  dropped_ = 0;
  next_span_ = 1;
  current_ = 0;
  enabled_ = true;
}

void TraceRecorder::disable() { enabled_ = false; }

void TraceRecorder::reset() {
  head_ = 0;
  count_ = 0;
  dropped_ = 0;
  next_span_ = 1;
  current_ = 0;
}

void TraceRecorder::push(const TraceEvent& ev) {
  if (count_ < capacity_) {
    ring_[(head_ + count_) % capacity_] = ev;
    ++count_;
  } else {
    ring_[head_] = ev;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }
}

void TraceRecorder::write_jsonl(std::ostream& os) const {
  for (std::size_t i = 0; i < count_; ++i) {
    const TraceEvent& ev = ring_[(head_ + i) % capacity_];
    os << "{\"vt\":" << ev.vt << ",\"node\":" << ev.node
       << ",\"span\":" << ev.span << ",\"cause\":" << ev.cause
       << ",\"component\":\""
       << (ev.component != nullptr ? ev.component : "") << "\",\"event\":\""
       << (ev.event != nullptr ? ev.event : "") << '"';
    for (const TraceField& f : ev.fields) {
      if (f.key == nullptr) break;
      os << ",\"" << f.key << "\":";
      if (f.str != nullptr) {
        os << '"' << json_escape(f.str) << '"';
      } else {
        os << f.num;
      }
    }
    os << "}\n";
  }
}

std::string TraceRecorder::to_jsonl() const {
  std::ostringstream oss;
  write_jsonl(oss);
  return oss.str();
}

bool TraceRecorder::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  write_jsonl(out);
  return static_cast<bool>(out);
}

}  // namespace sgxp2p::obs
