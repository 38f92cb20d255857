// Differential test of the simulator's two op sources: a SimKrak replay
// read from its on-demand generator must give exactly the SimResult of
// the same replay read from explicit schedules drained out of that
// generator (Simulator::set_schedule) — every time, breakdown, record,
// traffic and fault tally, and every structured failure down to the op
// it names. Runs at threads 1/2/8 and under TSan in CI
// (tsan-determinism job).

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "fault/plan.hpp"
#include "mesh/deck.hpp"
#include "network/machine.hpp"
#include "partition/partition.hpp"
#include "simapp/simkrak.hpp"

namespace krak::simapp {
namespace {

struct Fixture {
  mesh::InputDeck deck = mesh::make_standard_deck(mesh::DeckSize::kSmall);
  network::MachineConfig machine = network::make_es45_qsnet();
  ComputationCostEngine engine;
  partition::Partition partition = partition::partition_deck(
      deck, 32, partition::PartitionMethod::kMultilevel, 1);
};

void expect_same_breakdown(const sim::RankTimeBreakdown& a,
                           const sim::RankTimeBreakdown& b) {
  EXPECT_EQ(a.compute, b.compute);
  EXPECT_EQ(a.send_overhead, b.send_overhead);
  EXPECT_EQ(a.recv_overhead, b.recv_overhead);
  EXPECT_EQ(a.send_wait, b.send_wait);
  EXPECT_EQ(a.recv_wait, b.recv_wait);
  EXPECT_EQ(a.collective_wait, b.collective_wait);
  EXPECT_EQ(a.collective_cost, b.collective_cost);
  EXPECT_EQ(a.fault_delay, b.fault_delay);
  EXPECT_EQ(a.recovery, b.recovery);
}

void expect_same_result(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.finish_times, b.finish_times);
  ASSERT_EQ(a.breakdown.size(), b.breakdown.size());
  for (std::size_t r = 0; r < a.breakdown.size(); ++r) {
    SCOPED_TRACE(r);
    expect_same_breakdown(a.breakdown[r], b.breakdown[r]);
    EXPECT_TRUE(a.records[r] == b.records[r]);
  }
  EXPECT_EQ(a.traffic.point_to_point_messages,
            b.traffic.point_to_point_messages);
  EXPECT_EQ(a.traffic.point_to_point_bytes, b.traffic.point_to_point_bytes);
  EXPECT_EQ(a.traffic.allreduces, b.traffic.allreduces);
  EXPECT_EQ(a.traffic.broadcasts, b.traffic.broadcasts);
  EXPECT_EQ(a.traffic.gathers, b.traffic.gathers);
  EXPECT_EQ(a.faults.injections, b.faults.injections);
  EXPECT_EQ(a.faults.retransmits, b.faults.retransmits);
  EXPECT_EQ(a.faults.messages_lost, b.faults.messages_lost);
  EXPECT_EQ(a.faults.fault_delay_seconds, b.faults.fault_delay_seconds);
  EXPECT_EQ(a.faults.recovery_seconds, b.faults.recovery_seconds);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    const sim::SimFailure& fa = a.failures[i];
    const sim::SimFailure& fb = b.failures[i];
    EXPECT_EQ(fa.kind, fb.kind);
    EXPECT_EQ(fa.rank, fb.rank);
    EXPECT_EQ(fa.op_index, fb.op_index);
    EXPECT_EQ(fa.has_op, fb.has_op);
    EXPECT_EQ(fa.op, fb.op);
    EXPECT_EQ(fa.peer, fb.peer);
    EXPECT_EQ(fa.tag, fb.tag);
    EXPECT_EQ(fa.to_string(), fb.to_string());
  }
}

/// (threads, lossy fault plan)
class SimKrakOpSourceTest
    : public ::testing::TestWithParam<std::tuple<std::int32_t, bool>> {};

TEST_P(SimKrakOpSourceTest, GeneratorMatchesDrainedExplicitSchedules) {
  const auto [threads, lossy] = GetParam();
  const Fixture f;
  SimKrakOptions options;
  options.iterations = 2;  // noise on: two draws per phase and rank
  options.hierarchical_network = true;
  options.nic_contention = true;
  options.sim_threads = threads;
  if (lossy) {
    // Messages lost for good starve their receivers; the plan-armed
    // watchdog turns the hangs into structured failures that name the
    // blocking op.
    fault::MessageFaultModel lossy_model;
    lossy_model.drop_probability = 0.02;
    lossy_model.max_retries = 0;
    options.faults.message_faults.push_back(lossy_model);
    options.faults.slowdowns.push_back({fault::kAllRanks, 1.03});
    options.faults.seed = 11;
  }
  const SimKrak app(f.deck, f.partition, f.machine, f.engine, options);

  SimKrak::Replay generated = app.make_replay();
  SimKrak::Generator generator(app);
  generated.simulator.set_op_source(&generator);
  const sim::SimResult a = generated.simulator.run();

  SimKrak::Replay explicit_schedules = app.make_replay();
  for (partition::PeId pe = 0; pe < f.partition.parts(); ++pe) {
    explicit_schedules.simulator.set_schedule(pe, app.build_schedule(pe));
  }
  const sim::SimResult b = explicit_schedules.simulator.run();

  EXPECT_EQ(a.failed(), lossy);
  if (lossy) {
    EXPECT_GT(a.faults.messages_lost, 0);
    bool names_a_recv = false;
    for (const sim::SimFailure& failure : a.failures) {
      names_a_recv |= failure.has_op && failure.op == sim::OpKind::kRecv;
    }
    EXPECT_TRUE(names_a_recv);
  }
  expect_same_result(a, b);

  // A second run of the same simulator rewinds the generator.
  expect_same_result(a, generated.simulator.run());
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndFaults, SimKrakOpSourceTest,
    ::testing::Combine(::testing::Values(1, 2, 8), ::testing::Bool()));

TEST(SimKrakOpSource, RunMatchesTheReplayItConfigures) {
  // SimKrak::run is make_replay plus the generator: its aggregates are
  // the generated SimResult's.
  const Fixture f;
  SimKrakOptions options;
  options.iterations = 2;
  const SimKrak app(f.deck, f.partition, f.machine, f.engine, options);
  SimKrak::Replay replay = app.make_replay();
  SimKrak::Generator generator(app);
  replay.simulator.set_op_source(&generator);
  const sim::SimResult expected = replay.simulator.run();
  const SimKrakResult result = app.run();
  EXPECT_EQ(result.total_time, expected.makespan);
  EXPECT_EQ(result.traffic.point_to_point_messages,
            expected.traffic.point_to_point_messages);
  ASSERT_EQ(result.rank_breakdown.size(), expected.breakdown.size());
  for (std::size_t r = 0; r < expected.breakdown.size(); ++r) {
    expect_same_breakdown(result.rank_breakdown[r], expected.breakdown[r]);
  }
}

TEST(SimKrakOpSource, DrainedStreamEndsAndStaysEnded) {
  const Fixture f;
  const SimKrak app(f.deck, f.partition, f.machine, f.engine, {});
  const SimKrak::Generator generator(app);
  SimKrak::Generator::Cursor cursor = generator.start(3);
  sim::Op op;
  std::size_t ops = 0;
  while (generator.advance(cursor, op)) ++ops;
  EXPECT_EQ(ops, app.build_schedule(3).size());
  EXPECT_FALSE(generator.advance(cursor, op));
}

}  // namespace
}  // namespace krak::simapp
