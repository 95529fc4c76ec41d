#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

int Tracer::open(const char* name, std::int64_t request, std::uint32_t calls) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request;
  s.calls = calls;
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  spans_.back().start_ns = now_ns();  // last, so bookkeeping stays outside the span
  return id;
}

void Tracer::close(int id) {
  const std::int64_t end = now_ns();
  if (stack_.empty() || stack_.back() != id) throw std::logic_error("span closed out of order");
  stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<double> Tracer::per_call_ns(const char* name) const {
  std::vector<double> out;
  const std::string key{name};
  for (const Span& s : spans_) {
    if (key != s.name) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) / static_cast<double>(s.calls));
  }
  return out;
}

double Tracer::total_ns(const char* name) const {
  double total = 0.0;
  const std::string key{name};
  for (const Span& s : spans_) {
    if (key == s.name) total += static_cast<double>(s.end_ns - s.start_ns);
  }
  return total;
}

std::map<std::string, double> Tracer::self_ns() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) - child[i];
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot write trace to " + path);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": %d, \"request\": %lld, "
                  "\"calls\": %u}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                  static_cast<long long>(s.request), s.calls);
    out << buf;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace to " + path);
}

}  // namespace perfbench
