// Unit tests for the stream timelines and stream schedules.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/timeline.hpp"

namespace monde::sim {
namespace {

TEST(Timeline, RecordsAndQueries) {
  Timeline tl;
  tl.record({StreamId{0}, Duration::nanos(0), Duration::nanos(10), "a", "x"});
  tl.record({StreamId{1}, Duration::nanos(5), Duration::nanos(25), "b", "y"});
  tl.record({StreamId{0}, Duration::nanos(10), Duration::nanos(12), "c", "x"});
  EXPECT_DOUBLE_EQ(tl.end_time().ns(), 25.0);
  EXPECT_DOUBLE_EQ(tl.busy_time(StreamId{0}).ns(), 12.0);
  EXPECT_DOUBLE_EQ(tl.busy_time(StreamId{1}).ns(), 20.0);
  EXPECT_TRUE(tl.validate().empty());
}

TEST(Timeline, DetectsOverlap) {
  Timeline tl;
  tl.record({StreamId{0}, Duration::nanos(0), Duration::nanos(10), "a", "x"});
  tl.record({StreamId{0}, Duration::nanos(5), Duration::nanos(15), "b", "x"});
  EXPECT_FALSE(tl.validate().empty());
}

TEST(Timeline, BackToBackIsNotOverlap) {
  Timeline tl;
  tl.record({StreamId{0}, Duration::nanos(0), Duration::nanos(10), "a", "x"});
  tl.record({StreamId{0}, Duration::nanos(10), Duration::nanos(20), "b", "x"});
  EXPECT_TRUE(tl.validate().empty());
}

TEST(Timeline, ZeroLengthMarkersAllowed) {
  Timeline tl;
  tl.record({StreamId{0}, Duration::nanos(0), Duration::nanos(10), "a", "x"});
  tl.record({StreamId{0}, Duration::nanos(5), Duration::nanos(5), "marker", "m"});
  EXPECT_TRUE(tl.validate().empty());
}

TEST(Timeline, RejectsNegativeInterval) {
  Timeline tl;
  EXPECT_THROW(tl.record({StreamId{0}, Duration::nanos(10), Duration::nanos(5), "bad", "x"}),
               Error);
}

TEST(Timeline, ChromeTraceContainsStreamsAndEvents) {
  Timeline tl;
  tl.record({StreamId{0}, Duration::nanos(0), Duration::micros(1), "gemm-0", "gemm"});
  const std::string json = tl.to_chrome_trace({"GPU"});
  EXPECT_NE(json.find("\"GPU\""), std::string::npos);
  EXPECT_NE(json.find("gemm-0"), std::string::npos);
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
}

namespace {

/// Minimal JSON structure scan for the Chrome-trace export: verifies the
/// string is a balanced JSON object (braces/brackets outside strings) and
/// extracts every numeric value following `key` in document order.
std::vector<double> extract_number_fields(const std::string& json, const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    out.push_back(std::stod(json.substr(pos)));
  }
  return out;
}

bool balanced_json(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

}  // namespace

TEST(Timeline, ChromeTraceRoundTripPreservesIntervals) {
  // A mixed timeline: two streams, out-of-order recording within a stream's
  // wall-clock, zero-length marker included.
  Timeline tl;
  tl.record({StreamId{0}, Duration::nanos(0), Duration::micros(2), "blk0", "block"});
  tl.record({StreamId{1}, Duration::micros(1), Duration::micros(4), "pmove0", "pmove"});
  tl.record({StreamId{0}, Duration::micros(2), Duration::micros(3), "blk1", "block"});
  tl.record({StreamId{0}, Duration::micros(3), Duration::micros(3), "mark", "m"});
  const std::string json = tl.to_chrome_trace({"GPU", "PCIe"});

  EXPECT_TRUE(balanced_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  // One "X" (complete) event per recorded interval, in recording order.
  std::size_t x_events = 0;
  for (std::size_t pos = 0; (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos;
       pos += 8) {
    ++x_events;
  }
  EXPECT_EQ(x_events, tl.intervals().size());

  // ts/dur fields round-trip each interval's start and length (in us). The
  // first two numeric "ts" fields can belong to metadata-free X events only
  // -- metadata events carry no ts -- so the extracted sequences align 1:1
  // with the recorded intervals.
  const auto ts = extract_number_fields(json, "ts");
  const auto dur = extract_number_fields(json, "dur");
  ASSERT_EQ(ts.size(), tl.intervals().size());
  ASSERT_EQ(dur.size(), tl.intervals().size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(ts[i], tl.intervals()[i].start.us());
    EXPECT_DOUBLE_EQ(dur[i], (tl.intervals()[i].end - tl.intervals()[i].start).us());
  }

  // Both stream names appear as thread-name metadata.
  EXPECT_NE(json.find("\"GPU\""), std::string::npos);
  EXPECT_NE(json.find("\"PCIe\""), std::string::npos);
}

TEST(Timeline, AsciiGanttRendersRows) {
  Timeline tl;
  tl.record({StreamId{0}, Duration::nanos(0), Duration::nanos(50), "a", "pmove"});
  tl.record({StreamId{1}, Duration::nanos(50), Duration::nanos(100), "b", "gemm"});
  const std::string g = tl.to_ascii_gantt({"GPU", "PCIe"}, 40);
  EXPECT_NE(g.find("GPU"), std::string::npos);
  EXPECT_NE(g.find("PCIe"), std::string::npos);
  EXPECT_NE(g.find("legend:"), std::string::npos);
}

TEST(StreamSchedule, PlacementRespectsEarliestAndBusy) {
  StreamSchedule sched;
  const StreamId s = sched.add_stream("S");
  const auto a = sched.place(s, Duration::nanos(10), Duration::nanos(5), "a", "x");
  EXPECT_DOUBLE_EQ(a.start.ns(), 10.0);
  EXPECT_DOUBLE_EQ(a.end.ns(), 15.0);
  // Earliest before stream-free: starts when the stream frees.
  const auto b = sched.place(s, Duration::nanos(0), Duration::nanos(5), "b", "x");
  EXPECT_DOUBLE_EQ(b.start.ns(), 15.0);
  // Earliest after stream-free: starts at earliest.
  const auto c = sched.place(s, Duration::nanos(100), Duration::nanos(1), "c", "x");
  EXPECT_DOUBLE_EQ(c.start.ns(), 100.0);
  EXPECT_TRUE(sched.timeline().validate().empty());
}

TEST(StreamSchedule, IndependentStreamsOverlap) {
  StreamSchedule sched;
  const StreamId s0 = sched.add_stream("A");
  const StreamId s1 = sched.add_stream("B");
  sched.place(s0, Duration::zero(), Duration::nanos(100), "a", "x");
  const auto b = sched.place(s1, Duration::zero(), Duration::nanos(100), "b", "x");
  EXPECT_DOUBLE_EQ(b.start.ns(), 0.0);
  EXPECT_DOUBLE_EQ(sched.makespan().ns(), 100.0);
}

TEST(StreamSchedule, RejectsUnknownStream) {
  StreamSchedule sched;
  EXPECT_THROW(sched.place(StreamId{5}, Duration::zero(), Duration::zero(), "x", "y"), Error);
  EXPECT_THROW((void)sched.free_at(StreamId{1}), Error);
}

TEST(StreamSchedule, PlaceRejectsUnknownStreamAndInvalidLength) {
  // The placement checks hold on both kinds of schedule and through both
  // place() overloads, and a rejected placement changes nothing.
  int formatted = 0;
  const auto label = [&formatted] {
    ++formatted;
    return std::string{"lazy"};
  };
  const Duration nan = Duration::nanos(std::numeric_limits<double>::quiet_NaN());
  for (const Recording recording : {Recording::kOn, Recording::kOff}) {
    SCOPED_TRACE(recording == Recording::kOn ? "recording" : "non-recording");
    StreamSchedule sched{recording};
    const StreamId a = sched.add_stream("A");
    const StreamId b = sched.add_stream("B");
    sched.place(a, Duration::nanos(10), Duration::nanos(5), "a", "x");
    sched.place(b, Duration::zero(), Duration::nanos(3), "b", "x");
    const std::size_t recorded = sched.timeline().intervals().size();
    const struct {
      StreamId stream;
      Duration length;
    } bad[] = {{StreamId{2}, Duration::nanos(1)},
               {a, Duration::nanos(-1)},
               {b, nan},
               {StreamId{7}, nan}};
    for (const auto& [stream, length] : bad) {
      EXPECT_THROW(sched.place(stream, Duration::zero(), length, "eager", "x"), Error);
      EXPECT_THROW(sched.place(stream, Duration::zero(), length, label, "x"), Error);
      EXPECT_DOUBLE_EQ(sched.free_at(a).ns(), 15.0);
      EXPECT_DOUBLE_EQ(sched.free_at(b).ns(), 3.0);
      EXPECT_DOUBLE_EQ(sched.makespan().ns(), 15.0);
      EXPECT_EQ(sched.timeline().intervals().size(), recorded);
    }
  }
  EXPECT_EQ(formatted, 0);  // a rejected placement formats no label
}

TEST(StreamSchedule, ZeroLengthTaskRecordsMarker) {
  StreamSchedule sched;
  const StreamId s = sched.add_stream("S");
  const auto iv = sched.place(s, Duration::nanos(3), Duration::zero(), "marker", "m");
  EXPECT_DOUBLE_EQ(iv.start.ns(), iv.end.ns());
  EXPECT_EQ(sched.timeline().intervals().size(), 1u);
}

TEST(StreamSchedule, NonRecordingFormatsNoLabelsAndKeepsTimes) {
  StreamSchedule rec;
  StreamSchedule off{Recording::kOff};
  int formatted = 0;
  const auto label = [&formatted] {
    ++formatted;
    return std::string{"lazy"};
  };
  for (StreamSchedule* sched : {&rec, &off}) {
    const StreamId s = sched->add_stream("S");
    const Placement p = sched->place(s, Duration::nanos(10), Duration::nanos(5), label, "x");
    EXPECT_DOUBLE_EQ(p.end.ns(), 15.0);
    sched->place(s, Duration::zero(), Duration::nanos(5), "eager", "x");
  }
  EXPECT_EQ(formatted, 1);  // only the recording schedule called the label
  ASSERT_EQ(rec.timeline().intervals().size(), 2u);
  EXPECT_EQ(rec.timeline().intervals()[0].label, "lazy");
  EXPECT_TRUE(off.timeline().intervals().empty());
  EXPECT_DOUBLE_EQ(off.free_at(StreamId{0}).ns(), rec.free_at(StreamId{0}).ns());
  EXPECT_DOUBLE_EQ(rec.makespan().ns(), 20.0);
  EXPECT_DOUBLE_EQ(off.makespan().ns(), 20.0);
}

TEST(StreamSchedule, RewindMatchesAFreshSchedule) {
  // A rewound schedule keeps its streams and places exactly like a fresh
  // one with the same streams.
  StreamSchedule used;
  StreamSchedule fresh;
  for (StreamSchedule* sched : {&used, &fresh}) {
    sched->add_stream("A");
    sched->add_stream("B");
  }
  used.place(StreamId{0}, Duration::nanos(7), Duration::nanos(30), "a", "x");
  used.place(StreamId{1}, Duration::nanos(99), Duration::nanos(1), "w", "x");
  used.rewind();
  EXPECT_EQ(used.stream_count(), 2u);
  EXPECT_EQ(used.stream_names(), fresh.stream_names());
  EXPECT_DOUBLE_EQ(used.free_at(StreamId{0}).ns(), 0.0);
  EXPECT_DOUBLE_EQ(used.free_at(StreamId{1}).ns(), 0.0);
  EXPECT_DOUBLE_EQ(used.makespan().ns(), 0.0);
  EXPECT_TRUE(used.timeline().intervals().empty());
  for (StreamSchedule* sched : {&used, &fresh}) {
    sched->place(StreamId{1}, Duration::nanos(4), Duration::nanos(6), "b", "x");
    sched->place(StreamId{1}, Duration::zero(), Duration::nanos(2), "c", "x");
  }
  EXPECT_DOUBLE_EQ(used.free_at(StreamId{1}).ns(), fresh.free_at(StreamId{1}).ns());
  EXPECT_DOUBLE_EQ(used.makespan().ns(), fresh.makespan().ns());
  EXPECT_EQ(used.timeline().intervals().size(), 2u);
}

TEST(StreamSchedule, RestoreThenReplayMatchesAFreshReplay) {
  // Place a common first part, checkpoint, then branch: each branch placed
  // after restore() lands exactly where it lands on a schedule that placed
  // only the common part and that branch.
  const auto common = [](StreamSchedule& s) {
    s.place(StreamId{0}, Duration::nanos(3), Duration::nanos(10.25), "a", "x");
    s.place(StreamId{1}, Duration::nanos(1), Duration::nanos(7.5), "b", "x");
  };
  const auto branch = [](StreamSchedule& s, double len) {
    const Duration mid =
        s.place(StreamId{1}, Duration::nanos(2), Duration::nanos(len), "c", "x").end;
    s.place(StreamId{0}, mid, Duration::nanos(len / 3.0), "d", "x");
    s.place(StreamId{2}, Duration::nanos(len * 2.0), Duration::nanos(1), "e", "x");
  };
  StreamSchedule swept{Recording::kOff};
  for (int i = 0; i < 3; ++i) swept.add_stream("S");
  common(swept);
  swept.checkpoint();
  for (const double len : {0.1, 40.0, 5.0 / 3.0}) {
    SCOPED_TRACE(len);
    branch(swept, len);
    StreamSchedule fresh{Recording::kOff};
    for (int i = 0; i < 3; ++i) fresh.add_stream("S");
    common(fresh);
    branch(fresh, len);
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(swept.free_at(StreamId{s}).ns(), fresh.free_at(StreamId{s}).ns());
    }
    EXPECT_EQ(swept.makespan().ns(), fresh.makespan().ns());
    swept.restore();
  }
  // After the last restore only the common part remains.
  StreamSchedule base{Recording::kOff};
  for (int i = 0; i < 3; ++i) base.add_stream("S");
  common(base);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(swept.free_at(StreamId{s}).ns(), base.free_at(StreamId{s}).ns());
  }
  EXPECT_EQ(swept.makespan().ns(), base.makespan().ns());
}

TEST(StreamSchedule, CheckpointNeedsANonRecordingScheduleAndAFreshCheckpoint) {
  StreamSchedule rec;
  rec.add_stream("S");
  EXPECT_THROW(rec.checkpoint(), Error);
  EXPECT_THROW(rec.restore(), Error);

  StreamSchedule off{Recording::kOff};
  off.add_stream("S");
  EXPECT_THROW(off.restore(), Error);  // nothing checkpointed yet
  off.checkpoint();
  EXPECT_NO_THROW(off.restore());
  off.add_stream("T");
  EXPECT_THROW(off.restore(), Error);  // the checkpoint predates stream T
}

}  // namespace
}  // namespace monde::sim
