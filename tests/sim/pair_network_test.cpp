#include <gtest/gtest.h>

#include <memory>

#include "network/msgmodel.hpp"
#include "network/topology.hpp"
#include "sim/simulator.hpp"

namespace krak::sim {
namespace {

Simulator flat_simulator(std::int32_t ranks) {
  SimConfig config;
  config.send_overhead = 0.0;
  config.recv_overhead = 0.0;
  return Simulator(ranks, network::make_hockney_model(1.0, 1e30), config);
}

/// A pair network whose intra- and inter-node links are Hockney models
/// (latency, bandwidth), `pes_per_node` ranks to a node.
std::shared_ptr<const network::HierarchicalNetwork> hockney_pairs(
    std::int32_t ranks, std::int32_t pes_per_node, double intra_latency,
    double intra_bandwidth, double inter_latency, double inter_bandwidth) {
  return std::make_shared<network::HierarchicalNetwork>(
      network::make_hockney_model(intra_latency, intra_bandwidth),
      network::make_hockney_model(inter_latency, inter_bandwidth),
      network::Placement(ranks, pes_per_node));
}

TEST(PairNetwork, OverridesPointToPointCosts) {
  Simulator sim = flat_simulator(2);
  // Override: an 8-byte message takes 5 s on the wire (1.6 B/s) and
  // 0 s to hand off (zero latency), on either link.
  sim.set_pair_network(hockney_pairs(2, 1, 0.0, 1.6, 0.0, 1.6));
  sim.set_schedule(0, {Op::isend(1, 8.0, 1)});
  sim.set_schedule(1, {Op::recv(0, 8.0, 1)});
  const SimResult result = sim.run();
  EXPECT_NEAR(result.finish_times[1], 5.0, 1e-12);
  EXPECT_NEAR(result.finish_times[0], 0.0, 1e-12);
}

TEST(PairNetwork, CollectivesStillUseFlatModel) {
  Simulator sim = flat_simulator(2);
  sim.set_pair_network(hockney_pairs(2, 1, 100.0, 1e30, 100.0, 1e30));
  const Schedule schedule = {Op::allreduce(8.0)};
  sim.set_schedule(0, schedule);
  sim.set_schedule(1, schedule);
  const SimResult result = sim.run();
  // Flat model: 2 * depth(2) * 1 s = 2 s; the pair override must not
  // leak into the tree cost.
  EXPECT_NEAR(result.makespan, 2.0, 1e-12);
}

TEST(PairNetwork, CanBeCleared) {
  Simulator sim = flat_simulator(2);
  sim.set_pair_network(hockney_pairs(2, 1, 50.0, 1e30, 50.0, 1e30));
  sim.set_pair_network(nullptr);
  sim.set_schedule(0, {Op::isend(1, 8.0, 1)});
  sim.set_schedule(1, {Op::recv(0, 8.0, 1)});
  const SimResult result = sim.run();
  EXPECT_NEAR(result.finish_times[1], 1.0, 1e-12);  // flat 1 s latency
}

TEST(PairNetwork, HierarchicalRanksSeeAsymmetricCosts) {
  // Ranks 0-3 on node 0, 4-7 on node 1: intra-node messages cost 1 s,
  // inter-node ones 3 s (the bandwidths make the payload free).
  Simulator sim = flat_simulator(8);
  sim.set_pair_network(hockney_pairs(8, 4, 1.0, 1e30, 3.0, 1e30));
  // Rank 0 pings rank 1 (same node) and rank 4 (other node).
  sim.set_schedule(0, {Op::isend(1, 1024.0, 1), Op::isend(4, 1024.0, 2)});
  sim.set_schedule(1, {Op::recv(0, 1024.0, 1)});
  sim.set_schedule(4, {Op::recv(0, 1024.0, 2)});
  const SimResult result = sim.run();
  EXPECT_NEAR(result.finish_times[1], 1.0, 1e-12);
  EXPECT_NEAR(result.finish_times[4], 3.0, 1e-12);
}

}  // namespace
}  // namespace krak::sim
