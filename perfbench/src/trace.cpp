#include "trace.h"

#include <fstream>

namespace perfbench {

double Tracer::now_ms() const { return qfs::ms_since(origin_); }

int Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request_;
  span.start_ms = now_ms();
  spans_.push_back(span);
  int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ms = now_ms();
  stack_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          span.end_ms - span.start_ms;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    double duration = spans_[i].end_ms - spans_[i].start_ms;
    Totals& t = out[spans_[i].name];
    t.total_ms += duration;
    t.self_ms += duration - child_ms[i];
    ++t.count;
  }
  return out;
}

std::vector<double> Tracer::request_ms(int num_requests) const {
  std::vector<double> total(static_cast<std::size_t>(num_requests), 0.0);
  for (const Span& span : spans_) {
    if (span.parent < 0 && span.request >= 0 && span.request < num_requests) {
      total[static_cast<std::size_t>(span.request)] +=
          span.end_ms - span.start_ms;
    }
  }
  return total;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"start_ms\":" << s.start_ms << ",\"end_ms\":" << s.end_ms
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
