#include "trace.h"

#include <fstream>
#include <stdexcept>

namespace dpbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Span Tracer::span(const char* name, std::int64_t op) {
  if (!enabled_) {
    return Span();
  }
  Record r;
  r.name = name;
  r.parent = open_.empty() ? -1 : open_.back();
  r.op = (op < 0 && r.parent >= 0) ? records_[r.parent].op : op;
  r.start_ns = now_ns();
  records_.push_back(r);
  const int index = static_cast<int>(records_.size()) - 1;
  open_.push_back(index);
  return Span(this, index);
}

void Tracer::close(int index) {
  Record& r = records_[index];
  r.end_ns = now_ns();
  open_.pop_back();  // Spans are scoped objects, so they close LIFO.
  if (r.parent >= 0) {
    records_[r.parent].child_ns += r.end_ns - r.start_ns;
  }
}

std::vector<double> Tracer::self_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.end_ns > 0 && name == r.name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns - r.child_ns) /
                    1e6);
    }
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("dpbench: cannot write trace " + path);
  }
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << r.name
        << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": "
        << static_cast<double>(r.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(r.end_ns - r.start_ns) / 1e3
        << ", \"args\": {\"span\": " << i << ", \"parent\": " << r.parent
        << ", \"op\": " << r.op << "}}";
  }
  out << "\n]}\n";
}

}  // namespace dpbench
