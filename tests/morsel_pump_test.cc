// Regression tests for the morsel pump's abort protocol. The scenario under
// test: the consumer (sink) fails while producers sit blocked on full
// per-node queues — the abort flag and both condition variables must
// interact so every producer wakes, drains, and joins instead of
// deadlocking. Producers run on a leased worker lane, with the queue window
// clamped to one morsel so they block as early as possible. A consumer
// that itself issues engine calls while the pump is in flight must get a
// lane of its own instead of deadlocking on the pump's.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "engine/cluster.h"
#include "support/fixtures.h"

namespace cleanm::engine {
namespace {

using testsupport::FastClusterOptions;
using testsupport::IntRows;

/// Per-row identity expansion: the pump moves rows through unchanged.
MorselExpand Identity() {
  return [](size_t, const Row& row, Partition* out) { out->push_back(row); };
}

/// Tightest pipeline: one row per morsel, one queued morsel per node, so
/// producers hit a full queue after their second row.
MorselSpec TightSpec() {
  MorselSpec spec;
  spec.morsel_rows = 1;
  spec.queue_window = 1;
  return spec;
}

TEST(MorselPumpTest, PoolSinkErrorWithFullQueuesDoesNotDeadlock) {
  Cluster cluster(FastClusterOptions(4));
  auto source = cluster.Parallelize(IntRows(400));
  std::atomic<int> consumed{0};
  Status status = cluster.PumpToDriver(
      source, TightSpec(), Identity(), [&](size_t, Partition&&) -> Status {
        consumed++;
        return Status::Internal("sink failed");
      });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(consumed.load(), 1);
  std::atomic<int> nodes_ran{0};
  cluster.RunOnNodes([&](size_t) { nodes_ran++; });
  EXPECT_EQ(nodes_ran.load(), 4);
}

TEST(MorselPumpTest, LegacyThrowingConsumerJoinsProducersBeforeUnwinding) {
  // A *throwing* consumer must not unwind past the pump's stack-local
  // queues while lane workers still reference them (that is a
  // use-after-scope, not just a leak).
  Cluster cluster(FastClusterOptions(4));
  auto source = cluster.Parallelize(IntRows(400));
  EXPECT_THROW(
      (void)cluster.PumpToDriver(
          source, TightSpec(), Identity(),
          [&](size_t, Partition&&) -> Status {
            throw std::runtime_error("consumer threw");
          }),
      std::runtime_error);
  std::atomic<int> nodes_ran{0};
  cluster.RunOnNodes([&](size_t) { nodes_ran++; });
  EXPECT_EQ(nodes_ran.load(), 4);
}

TEST(MorselPumpTest, LegacyProducerErrorSurfacesAfterPartialConsumption) {
  // An expand failure on one producer must mark the node done (so the
  // driver never waits on a dead producer) and rethrow at the call site
  // after all producers joined.
  Cluster cluster(FastClusterOptions(2));
  auto source = cluster.Parallelize(IntRows(100));
  EXPECT_THROW(
      (void)cluster.PumpToDriver(
          source, TightSpec(),
          [](size_t node, const Row& row, Partition* out) {
            if (node == 1) throw std::runtime_error("producer failed");
            out->push_back(row);
          },
          [&](size_t, Partition&&) -> Status { return Status::OK(); }),
      std::runtime_error);
}

TEST(MorselPumpTest, SinkErrorWhileRetryInFlightJoinsAllProducers) {
  // The sink fails on its first morsel while node 2 is still inside its
  // fault-retry loop (two scripted failures with a visible backoff). The
  // abort must reach the retrying producer too: its eventual clean attempt
  // observes the stop flag, produces nothing, and joins.
  ClusterOptions opts = FastClusterOptions(4);
  opts.fault.target_node = 2;
  opts.fault.fail_first_attempts = 2;
  opts.fault.max_task_retries = 3;
  opts.fault.retry_backoff_ns = 5'000'000;  // keep the retry in flight
  Cluster cluster(opts);
  auto source = cluster.Parallelize(IntRows(400));
  std::atomic<int> consumed{0};
  Status status = cluster.PumpToDriver(
      source, TightSpec(), Identity(), [&](size_t, Partition&&) -> Status {
        consumed++;
        return Status::Internal("sink failed");
      });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(consumed.load(), 1);
  // Injection fires at attempt start, independent of the abort: node 2's
  // two scripted failures were observed and retried.
  EXPECT_EQ(cluster.metrics().tasks_failed.load(), 2u);
  EXPECT_EQ(cluster.metrics().tasks_retried.load(), 2u);
  // Reaching this line is the regression assertion: PumpToDriver joined
  // the retrying producer as well. The cluster stays usable.
  std::atomic<int> nodes_ran{0};
  cluster.RunOnNodes([&](size_t) { nodes_ran++; });
  EXPECT_EQ(nodes_ran.load(), 4);
}

TEST(MorselPumpTest, ProducerRetryDeliversIdenticalNodeMajorStream) {
  // A failed attempt flushes nothing (injection precedes the produce loop),
  // so the retry restarts the node's stream from row zero with its queue
  // still empty: delivery under faults is bit-identical to a clean pump.
  auto run = [](const FaultOptions& fault) {
    ClusterOptions opts = FastClusterOptions(3);
    opts.fault = fault;
    Cluster cluster(opts);
    auto source = cluster.Parallelize(IntRows(91));
    std::vector<Row> got;
    Status status = cluster.PumpToDriver(
        source, TightSpec(), Identity(),
        [&](size_t, Partition&& morsel) -> Status {
          for (auto& row : morsel) got.push_back(std::move(row));
          return Status::OK();
        });
    EXPECT_TRUE(status.ok()) << status.ToString();
    return got;
  };
  FaultOptions faulty;
  faulty.target_node = 1;
  faulty.fail_first_attempts = 2;
  faulty.max_task_retries = 3;
  faulty.retry_backoff_ns = 0;
  const std::vector<Row> clean = run(FaultOptions{});
  const std::vector<Row> retried = run(faulty);
  ASSERT_EQ(clean.size(), retried.size());
  for (size_t i = 0; i < clean.size(); i++) {
    EXPECT_TRUE(clean[i][0].Equals(retried[i][0])) << "row " << i;
  }
}

TEST(MorselPumpTest, TightWindowDeliversNodeMajorRowOrder) {
  // The abort machinery must not perturb the happy path: with the tightest
  // window every row arrives in deterministic node-major order, identical
  // to Collect().
  Cluster cluster(FastClusterOptions(3));
  auto source = cluster.Parallelize(IntRows(91));
  std::vector<Row> expected;
  for (const auto& part : source) {
    expected.insert(expected.end(), part.begin(), part.end());
  }
  std::vector<Row> got;
  size_t last_node = 0;
  Status status = cluster.PumpToDriver(
      source, TightSpec(), Identity(),
      [&](size_t node, Partition&& morsel) -> Status {
        EXPECT_GE(node, last_node);  // node-major: never revisits a node
        last_node = node;
        for (auto& row : morsel) got.push_back(std::move(row));
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); i++) {
    EXPECT_TRUE(got[i][0].Equals(expected[i][0])) << "row " << i;
  }
}

TEST(MorselPumpTest, ConsumerEngineCallWhilePumpInFlightGetsItsOwnLane) {
  // The consumer runs on the driver thread while the pump's producers hold
  // their lane, blocked on full one-morsel queues. An engine call from the
  // consumer must lease a second lane and complete, not wait on the
  // pump's in-flight epoch (a hang here is the failure; ctest's TIMEOUT on
  // this binary turns it into one).
  Cluster cluster(FastClusterOptions(4));
  auto source = cluster.Parallelize(IntRows(40));
  std::atomic<int> nested_tasks{0};
  size_t delivered = 0;
  Status status = cluster.PumpToDriver(
      source, TightSpec(), Identity(), [&](size_t, Partition&& morsel) -> Status {
        delivered += morsel.size();
        cluster.RunOnNodes([&](size_t) { nested_tasks++; });
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(delivered, 40u);
  EXPECT_EQ(nested_tasks.load(), 40 * 4);
}

}  // namespace
}  // namespace cleanm::engine
