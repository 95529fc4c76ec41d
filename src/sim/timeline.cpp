#include "sim/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/error.hpp"

namespace monde::sim {

void Timeline::record(Interval iv) {
  MONDE_REQUIRE(iv.end >= iv.start, "interval must not end before it starts");
  intervals_.push_back(std::move(iv));
}

Duration Timeline::end_time() const {
  Duration end = Duration::zero();
  for (const auto& iv : intervals_) end = max(end, iv.end);
  return end;
}

Duration Timeline::busy_time(StreamId stream) const {
  Duration busy = Duration::zero();
  for (const auto& iv : intervals_) {
    if (iv.stream == stream) busy += iv.end - iv.start;
  }
  return busy;
}

std::string Timeline::validate() const {
  // Sort per stream by start; any start earlier than the previous end on the
  // same stream is an overlap (zero-length markers are exempt).
  std::map<std::size_t, std::vector<const Interval*>> per_stream;
  for (const auto& iv : intervals_) per_stream[iv.stream.index].push_back(&iv);
  for (auto& [sid, ivs] : per_stream) {
    std::sort(ivs.begin(), ivs.end(), [](const Interval* a, const Interval* b) {
      if (a->start != b->start) return a->start < b->start;
      return a->end < b->end;
    });
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      const Interval* prev = ivs[i - 1];
      const Interval* cur = ivs[i];
      // Allow equality (back-to-back) and zero-length markers.
      if (cur->start < prev->end && cur->start != cur->end && prev->start != prev->end) {
        std::ostringstream os;
        os << "stream " << sid << ": '" << cur->label << "' (start " << cur->start.str()
           << ") overlaps '" << prev->label << "' (end " << prev->end.str() << ")";
        return os.str();
      }
    }
  }
  return {};
}

std::string Timeline::to_chrome_trace(const std::vector<std::string>& stream_names) const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < stream_names.size(); ++i) {
    if (!first) os << ',';
    first = false;
    os << R"({"name":"thread_name","ph":"M","pid":0,"tid":)" << i
       << R"(,"args":{"name":")" << stream_names[i] << "\"}}";
  }
  for (const auto& iv : intervals_) {
    if (!first) os << ',';
    first = false;
    os << R"({"name":")" << iv.label << R"(","cat":")" << iv.category
       << R"(","ph":"X","pid":0,"tid":)" << iv.stream.index << ",\"ts\":" << iv.start.us()
       << ",\"dur\":" << (iv.end - iv.start).us() << "}";
  }
  os << "]}";
  return os.str();
}

std::string Timeline::to_ascii_gantt(const std::vector<std::string>& stream_names,
                                     std::size_t width) const {
  MONDE_REQUIRE(width >= 10, "gantt width too small");
  const Duration total = end_time();
  std::ostringstream os;
  if (total <= Duration::zero()) {
    os << "(empty timeline)\n";
    return os.str();
  }
  std::size_t name_w = 0;
  for (const auto& n : stream_names) name_w = std::max(name_w, n.size());

  // Category -> glyph, assigned in order of first appearance.
  std::map<std::string, char> glyphs;
  const std::string palette = "#*=+o%@$&x";
  for (const auto& iv : intervals_) {
    if (!glyphs.count(iv.category)) {
      glyphs[iv.category] = palette[glyphs.size() % palette.size()];
    }
  }

  for (std::size_t s = 0; s < stream_names.size(); ++s) {
    std::string row(width, '.');
    for (const auto& iv : intervals_) {
      if (iv.stream.index != s) continue;
      auto col = [&](Duration t) {
        const double frac = t / total;
        return std::min(width - 1, static_cast<std::size_t>(frac * static_cast<double>(width)));
      };
      const std::size_t a = col(iv.start);
      const std::size_t b = std::max(a, col(iv.end));
      for (std::size_t c = a; c <= b && c < width; ++c) row[c] = glyphs[iv.category];
    }
    os << stream_names[s] << std::string(name_w - stream_names[s].size(), ' ') << " |" << row
       << "|\n";
  }
  os << "legend:";
  for (const auto& [cat, g] : glyphs) os << "  " << g << "=" << cat;
  os << "  total=" << total.str() << '\n';
  return os.str();
}

StreamId StreamSchedule::add_stream(std::string name) {
  names_.push_back(std::move(name));
  free_.push_back(Duration::zero());
  saved_free_.clear();
  return StreamId{names_.size() - 1};
}

Duration StreamSchedule::free_at(StreamId stream) const {
  MONDE_REQUIRE(stream.index < free_.size(), "unknown stream");
  return free_[stream.index];
}

Placement StreamSchedule::advance(StreamId stream, Duration earliest, Duration length) {
  MONDE_REQUIRE(stream.index < free_.size(), "unknown stream");
  MONDE_REQUIRE(length >= Duration::zero(), "task length must be non-negative");
  const Duration start = max(earliest, free_[stream.index]);
  const Duration end = start + length;
  free_[stream.index] = end;
  makespan_ = max(makespan_, end);
  return {stream, start, end};
}

Interval StreamSchedule::place(StreamId stream, Duration earliest, Duration length,
                               std::string label, std::string category) {
  const Placement p = advance(stream, earliest, length);
  Interval iv{stream, p.start, p.end, std::move(label), std::move(category)};
  if (recording()) timeline_.record(iv);
  return iv;
}

void StreamSchedule::rewind() {
  std::fill(free_.begin(), free_.end(), Duration::zero());
  makespan_ = Duration::zero();
  timeline_ = Timeline{};
}

void StreamSchedule::checkpoint() {
  MONDE_REQUIRE(!recording(), "only a non-recording schedule can be checkpointed");
  saved_free_.assign(free_.begin(), free_.end());
  saved_makespan_ = makespan_;
}

void StreamSchedule::restore() {
  MONDE_REQUIRE(!recording(), "only a non-recording schedule can be restored");
  MONDE_REQUIRE(saved_free_.size() == free_.size(),
                "restore() needs a checkpoint() taken since the last add_stream()");
  std::copy(saved_free_.begin(), saved_free_.end(), free_.begin());
  makespan_ = saved_makespan_;
}

}  // namespace monde::sim
