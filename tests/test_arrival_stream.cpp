// Streaming-arrival pinning (PR 6): every generator's ArrivalStream must be
// bit-identical request for request to the materialized trace it replaced,
// TraceArrivalStream must enforce the (arrival, id) push order, and a
// cluster run fed from a stream must equal one fed the materialized vector.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "serve/arrivals.hpp"
#include "serve/cluster.hpp"

namespace monde::serve {
namespace {

moe::MoeModelConfig tiny_model() {
  moe::MoeModelConfig m = moe::MoeModelConfig::switch_variant(512, 16);
  m.encoder_blocks = 4;
  m.decoder_blocks = 4;
  m.moe_every = 2;
  m.vocab_size = 8192;
  m.top_k = 2;
  m.name = "tiny-test-model";
  return m;
}

RequestShape small_shape() {
  RequestShape s;
  s.prompt_min = 16;
  s.prompt_max = 48;
  s.new_tokens_min = 2;
  s.new_tokens_max = 8;
  return s;
}

RequestShape prefixed_shape() {
  RequestShape s = small_shape();
  s.prefix_groups = 3;
  s.shared_fraction = 0.6;
  s.shared_prefix_len = 10;
  return s;
}

void expect_requests_identical(const std::vector<Request>& a, const std::vector<Request>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "request " << i;
    EXPECT_EQ(a[i].arrival, b[i].arrival) << "request " << a[i].id;
    EXPECT_EQ(a[i].prompt_len, b[i].prompt_len) << "request " << a[i].id;
    EXPECT_EQ(a[i].max_new_tokens, b[i].max_new_tokens) << "request " << a[i].id;
    EXPECT_EQ(a[i].prefix_id, b[i].prefix_id) << "request " << a[i].id;
    EXPECT_EQ(a[i].shared_prefix_len, b[i].shared_prefix_len) << "request " << a[i].id;
  }
}

TEST(ArrivalStream, ClosedLoopStreamMatchesTrace) {
  for (const RequestShape& shape : {small_shape(), prefixed_shape()}) {
    const std::vector<Request> trace = closed_loop_trace(40, shape, 123);
    const auto stream = closed_loop_stream(40, shape, 123);
    EXPECT_EQ(stream->size_hint(), 40u);
    expect_requests_identical(materialize(*stream), trace);
    EXPECT_FALSE(stream->next().has_value());  // exhausted stays exhausted
  }
}

TEST(ArrivalStream, PoissonStreamMatchesTrace) {
  for (const RequestShape& shape : {small_shape(), prefixed_shape()}) {
    const std::vector<Request> trace = poisson_trace(40, 150.0, shape, 99);
    const auto stream = poisson_stream(40, 150.0, shape, 99);
    expect_requests_identical(materialize(*stream), trace);
    EXPECT_FALSE(stream->next().has_value());
  }
}

TEST(ArrivalStream, BurstyStreamMatchesTrace) {
  for (const RequestShape& shape : {small_shape(), prefixed_shape()}) {
    const std::vector<Request> trace =
        bursty_trace(40, 8, Duration::millis(20), shape, 7);
    const auto stream = bursty_stream(40, 8, Duration::millis(20), shape, 7);
    expect_requests_identical(materialize(*stream), trace);
    EXPECT_FALSE(stream->next().has_value());
  }
}

TEST(ArrivalStream, GeneratorsYieldSortedUniqueIds) {
  const auto stream = poisson_stream(64, 200.0, small_shape(), 5);
  Duration prev = Duration::zero();
  std::uint64_t expected_id = 0;
  while (auto rq = stream->next()) {
    EXPECT_GE(rq->arrival, prev);
    EXPECT_EQ(rq->id, expected_id++);  // ids are 0..n-1 in order
    prev = rq->arrival;
  }
  EXPECT_EQ(expected_id, 64u);
}

TEST(ArrivalStream, TraceStreamRoundTrips) {
  const std::vector<Request> trace = bursty_trace(30, 5, Duration::millis(10), small_shape(), 3);
  TraceArrivalStream stream{trace};
  EXPECT_EQ(stream.size_hint(), trace.size());
  expect_requests_identical(materialize(stream), trace);
}

TEST(ArrivalStream, TraceStreamRejectsOutOfOrderTraces) {
  std::vector<Request> trace = poisson_trace(8, 100.0, small_shape(), 11);
  std::swap(trace[2], trace[5]);  // break the (arrival, id) order
  TraceArrivalStream stream{std::move(trace)};
  EXPECT_THROW(
      {
        while (stream.next().has_value()) {
        }
      },
      Error);
}

TEST(ArrivalStream, ClusterRunFromStreamMatchesVectorRun) {
  const auto make_cluster = [](ClusterConfig cfg) {
    return ClusterSim{core::SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                      uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{}),
                      cfg};
  };
  ClusterConfig cfg;
  ClusterSim via_vector = make_cluster(cfg);
  const auto d1 = make_dispatcher(DispatchPolicy::kJoinShortestQueue, 7);
  const ClusterReport a =
      via_vector.run(poisson_trace(32, 120.0, small_shape(), 19), *d1);

  ClusterSim via_stream = make_cluster(cfg);
  const auto d2 = make_dispatcher(DispatchPolicy::kJoinShortestQueue, 7);
  const auto stream = poisson_stream(32, 120.0, small_shape(), 19);
  const ClusterReport b = via_stream.run(*stream, *d2);

  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, b.requests[i].id);
    EXPECT_EQ(a.requests[i].completion, b.requests[i].completion);
    EXPECT_EQ(a.requests[i].first_token, b.requests[i].first_token);
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.generated_tokens, b.generated_tokens);
  EXPECT_EQ(a.tokens_per_s, b.tokens_per_s);
  ASSERT_EQ(a.replicas.size(), b.replicas.size());
  for (std::size_t i = 0; i < a.replicas.size(); ++i) {
    EXPECT_EQ(a.replicas[i].dispatched, b.replicas[i].dispatched);
    EXPECT_EQ(a.replicas[i].utilization, b.replicas[i].utilization);
  }
}

TEST(ArrivalStream, StreamRunRejectsDuplicateIds) {
  std::vector<Request> trace = closed_loop_trace(4, small_shape(), 2);
  trace[3] = trace[1];  // an exact duplicate: same id twice
  ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                     uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{})};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kRoundRobin, 1);
  EXPECT_THROW((void)cluster.run(std::move(trace), *dispatcher), Error);
}

TEST(ArrivalStream, StreamRunRejectsDuplicateIdArrivingLater) {
  // The duplicate arrives later than the original, so the stream's order
  // check passes it and both copies are served before the fleet report
  // finds the repeated id.
  std::vector<Request> trace = poisson_trace(8, 400.0, small_shape(), 3);
  trace[5].id = trace[1].id;
  ASSERT_GT(trace[5].arrival, trace[1].arrival);
  const auto error_of = [&](bool streamed) -> std::string {
    ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                       moe::SkewProfile::switch_like(),
                       uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced,
                                     SchedulerConfig{})};
    const auto dispatcher = make_dispatcher(DispatchPolicy::kRoundRobin, 1);
    TraceArrivalStream stream{trace};
    try {
      (void)(streamed ? cluster.run(stream, *dispatcher) : cluster.run(trace, *dispatcher));
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_NE(error_of(/*streamed=*/false).find("duplicate request id"), std::string::npos);
  EXPECT_NE(error_of(/*streamed=*/true).find("duplicate request id"), std::string::npos);
}

}  // namespace
}  // namespace monde::serve
