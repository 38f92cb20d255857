#include "simapp/simkrak.hpp"

#include <memory>

#include "fault/injector.hpp"
#include "network/topology.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace krak::simapp {

namespace {

/// Unique point-to-point tag per (phase, exchange step, message index).
/// Steps 0..kExchangeGroupCount-1 are the per-material steps; step
/// kExchangeGroupCount is the final all-materials step; ghost updates
/// use step 0.
std::int32_t make_tag(std::int32_t phase, std::int32_t step,
                      std::int32_t message) {
  return phase * 1000 + step * 100 + message;
}

/// Deterministic per-rank noise stream.
std::uint64_t rank_seed(std::uint64_t base, partition::PeId pe) {
  return base ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(pe + 1));
}

}  // namespace

SimKrak::SimKrak(const mesh::InputDeck& deck,
                 const partition::Partition& partition,
                 const network::MachineConfig& machine,
                 const ComputationCostEngine& costs, SimKrakOptions options)
    : SimKrak(deck, partition, machine, costs,
              std::make_shared<partition::PartitionStats>(deck, partition),
              options) {}

SimKrak::SimKrak(const mesh::InputDeck& deck,
                 const partition::Partition& partition,
                 const network::MachineConfig& machine,
                 const ComputationCostEngine& costs,
                 std::shared_ptr<const partition::PartitionStats> stats,
                 SimKrakOptions options)
    : deck_(deck),
      partition_(partition),
      machine_(machine),
      costs_(costs),
      options_(options),
      stats_(std::move(stats)) {
  util::check(stats_ != nullptr, "stats must not be null");
  util::check(options_.iterations >= 1, "iterations must be >= 1");
  util::check(partition_.parts() <= machine_.total_pes(),
              "partition uses more PEs than the machine has");
  util::check(stats_->parts() == partition_.parts(),
              "stats must describe the partition");
  // The generator trusts the neighbour lists: check once here what
  // Simulator::set_schedule would check on every message op.
  const partition::PeId parts = partition_.parts();
  for (partition::PeId pe = 0; pe < parts; ++pe) {
    for (const partition::NeighborBoundary& boundary :
         stats_->subdomain(pe).neighbors) {
      util::check(boundary.neighbor >= 0 && boundary.neighbor < parts,
                  "neighbour pe out of range");
      util::check(boundary.neighbor != pe, "a pe cannot neighbour itself");
    }
  }
}

double SimKrak::compute_time(std::int32_t phase,
                             const partition::SubdomainInfo& sub,
                             util::Rng& rng) const {
  const std::span<const std::int64_t, mesh::kMaterialCount> cells(
      sub.cells_per_material);
  const double seconds = options_.enable_noise
                             ? costs_.measured_subgrid_time(phase, cells, rng)
                             : costs_.subgrid_time(phase, cells);
  return seconds / machine_.compute_speedup;
}

namespace {

/// One entry of the iteration template every rank's stream expands.
struct Piece {
  enum class Kind : std::uint8_t {
    kFixed,     ///< `op` as is: a collective or kWaitAllSends
    kCompute,   ///< the phase's compute op, drawn per rank
    kRecord,    ///< the phase's record marker, slotted per iteration
    kExchange,  ///< boundary-exchange messages, `op.kind` isend or recv
    kGhost,     ///< ghost-update messages, likewise; `op.payload` holds
                ///< the bytes per ghost node
  };
  Kind kind = Kind::kFixed;
  std::int32_t phase = 0;  ///< 1-based phase number
  sim::Op op;
};

/// One iteration of Table 1, shared by every rank: per phase the
/// compute op, its communication action, the global reductions
/// separating it from the next phase (the sync points), and the record
/// marker. All ranks leave the final allreduce at the same simulated
/// time, so the marker is a globally consistent phase boundary.
const std::vector<Piece>& iteration_template() {
  static const std::vector<Piece> kTemplate = [] {
    std::vector<Piece> pieces;
    for (const PhaseSpec& phase : iteration_phases()) {
      const auto add = [&](Piece::Kind kind, sim::Op op = {}) {
        pieces.push_back({kind, phase.number, op});
      };
      const auto fixed = [&](sim::Op op) { add(Piece::Kind::kFixed, op); };
      add(Piece::Kind::kCompute);
      switch (phase.action) {
        case PhaseAction::kBroadcastPair:
          fixed(sim::Op::broadcast(4.0));
          fixed(sim::Op::broadcast(8.0));
          break;
        case PhaseAction::kBoundaryExchange:
          // Post every asynchronous send first, make sure the sends
          // completed, then post the blocking receives (Section 4's
          // protocol).
          fixed(sim::Op::broadcast(4.0));
          fixed(sim::Op::broadcast(8.0));
          add(Piece::Kind::kExchange, {0.0, -1, 0, sim::OpKind::kIsend});
          fixed(sim::Op::wait_all_sends());
          add(Piece::Kind::kExchange, {0.0, -1, 0, sim::OpKind::kRecv});
          fixed(sim::Op::gather(32.0));
          break;
        case PhaseAction::kGhostUpdate8:
        case PhaseAction::kGhostUpdate16:
          add(Piece::Kind::kGhost,
              {phase.ghost_bytes(), -1, 0, sim::OpKind::kIsend});
          fixed(sim::Op::wait_all_sends());
          add(Piece::Kind::kGhost,
              {phase.ghost_bytes(), -1, 0, sim::OpKind::kRecv});
          break;
        case PhaseAction::kComputationOnly:
          break;
      }
      for (double size : phase.sync_sizes) fixed(sim::Op::allreduce(size));
      add(Piece::Kind::kRecord);
    }
    return pieces;
  }();
  return kTemplate;
}

/// The boundary exchange's next message at the cursor, as `kind`.
/// Per neighbour: one step per material group present on the boundary,
/// then the final step over all faces regardless of material; six
/// messages per step, the first two of a material step augmented by
/// the boundary's multi-material ghost nodes (Section 4.1). Face counts
/// and the augmentation are canonical per PE pair, so both sides agree
/// on every size and tag. False (cursor rewound) once every message of
/// the piece was written.
bool next_exchange_message(const partition::SubdomainInfo& sub,
                           SimKrak::Generator::Cursor& cursor,
                           sim::OpKind kind, sim::Op& op) {
  constexpr std::int32_t kPhase = 2;
  constexpr std::size_t kFinalStep = mesh::kExchangeGroupCount;
  for (; cursor.neighbor < sub.neighbors.size();
       ++cursor.neighbor, cursor.step = 0) {
    const partition::NeighborBoundary& boundary = sub.neighbors[cursor.neighbor];
    for (; cursor.step <= kFinalStep; ++cursor.step, cursor.message = 0) {
      const std::size_t g = cursor.step;
      if (g < kFinalStep && boundary.faces_per_group[g] == 0) continue;
      if (cursor.message == kBoundaryMessagesPerStep) continue;
      double bytes;
      if (g == kFinalStep) {
        bytes = kBoundaryBytesPerFace * static_cast<double>(boundary.total_faces);
      } else {
        bytes = kBoundaryBytesPerFace *
                static_cast<double>(boundary.faces_per_group[g]);
        if (cursor.message < kBoundaryAugmentedMessages) {
          bytes += kBoundaryBytesPerFace *
                   static_cast<double>(
                       boundary.multi_material_nodes_per_group[g]);
        }
      }
      op = {bytes, boundary.neighbor,
            make_tag(kPhase, static_cast<std::int32_t>(g), cursor.message),
            kind};
      ++cursor.message;
      return true;
    }
  }
  cursor.neighbor = 0;
  return false;
}

/// A ghost-node update's next message at the cursor: one per
/// neighbour. The locally-owned ghost nodes go out, the remotely-owned
/// ones come in (Section 4.2); ownership is globally consistent, so my
/// "local" count equals the neighbour's "remote" count. False (cursor
/// rewound) once every neighbour was written.
bool next_ghost_message(const partition::SubdomainInfo& sub,
                        SimKrak::Generator::Cursor& cursor,
                        const Piece& piece, sim::Op& op) {
  if (cursor.neighbor == sub.neighbors.size()) {
    cursor.neighbor = 0;
    return false;
  }
  const partition::NeighborBoundary& boundary = sub.neighbors[cursor.neighbor];
  ++cursor.neighbor;
  const std::int64_t nodes = piece.op.kind == sim::OpKind::kIsend
                                 ? boundary.ghost_nodes_local
                                 : boundary.ghost_nodes_remote;
  op = {piece.op.payload * static_cast<double>(nodes), boundary.neighbor,
        make_tag(piece.phase, 0, 0), piece.op.kind};
  return true;
}

}  // namespace

void SimKrak::Generator::on_run_start(std::int32_t ranks) {
  util::check(ranks == app_.partition_.parts(),
              "generator ranks must match the partition");
  cursors_.resize(static_cast<std::size_t>(ranks));
  for (partition::PeId pe = 0; pe < ranks; ++pe) {
    cursors_[static_cast<std::size_t>(pe)] = start(pe);
  }
}

SimKrak::Generator::Cursor SimKrak::Generator::start(partition::PeId pe) const {
  Cursor cursor;
  cursor.rng = util::Rng(rank_seed(app_.options_.noise_seed, pe));
  cursor.pe = pe;
  return cursor;
}

// krak: hot
bool SimKrak::Generator::advance(Cursor& cursor, sim::Op& op) const {
  const std::vector<Piece>& pieces = iteration_template();
  const partition::SubdomainInfo& sub =
      app_.stats_->subdomains()[static_cast<std::size_t>(cursor.pe)];
  while (cursor.iteration < app_.options_.iterations) {
    if (cursor.piece == pieces.size()) {
      cursor.piece = 0;
      if (++cursor.iteration == app_.options_.iterations && obs::enabled()) {
        // Once per rank, when its stream runs out: never per op.
        static obs::Counter& streams =
            obs::global_registry().counter("simapp.op_streams");
        streams.add(1);
      }
      continue;
    }
    const Piece& piece = pieces[cursor.piece];
    switch (piece.kind) {
      case Piece::Kind::kFixed:
        op = piece.op;
        ++cursor.piece;
        return true;
      case Piece::Kind::kCompute:
        op = sim::Op::compute(app_.compute_time(piece.phase, sub, cursor.rng));
        ++cursor.piece;
        return true;
      case Piece::Kind::kRecord:
        op = sim::Op::record(piece.phase - 1 + cursor.iteration * kPhaseCount);
        ++cursor.piece;
        return true;
      case Piece::Kind::kExchange:
        if (next_exchange_message(sub, cursor, piece.op.kind, op)) return true;
        break;
      case Piece::Kind::kGhost:
        if (next_ghost_message(sub, cursor, piece, op)) return true;
        break;
    }
    ++cursor.piece;  // the point-to-point piece ran out of messages
  }
  return false;
}

sim::Schedule SimKrak::build_schedule(partition::PeId pe) const {
  const Generator generator(*this);
  Generator::Cursor cursor = generator.start(pe);
  sim::Schedule schedule;
  sim::Op op;
  while (generator.advance(cursor, op)) schedule.push_back(op);
  return schedule;
}

SimKrak::Replay SimKrak::make_replay() const {
  const std::int32_t ranks = partition_.parts();
  sim::SimConfig sim_config;
  sim_config.threads = options_.sim_threads;
  Replay replay{nullptr, sim::Simulator(ranks, machine_.network, sim_config)};
  sim::Simulator& simulator = replay.simulator;
  if (options_.nic_contention && machine_.pes_per_node > 1) {
    sim::NicConfig nic;
    nic.enabled = true;
    nic.pes_per_node = machine_.pes_per_node;
    // The adapter injects at the interconnect's asymptotic bandwidth.
    nic.injection_bandwidth = 1.0 / machine_.network.byte_cost(1 << 20);
    simulator.set_nic(nic);
  }
  if (options_.hierarchical_network && machine_.pes_per_node > 1) {
    // The concrete overload: sends dispatch into the hierarchy directly
    // (no std::function per message), and the parallel engine derives
    // its lookahead and node-aligned shard boundaries from it.
    simulator.set_pair_network(
        std::make_shared<const network::HierarchicalNetwork>(
            network::make_es45_shared_memory_model(), machine_.network,
            network::Placement(ranks, machine_.pes_per_node)));
  }
  // A non-empty fault plan installs the injection engine and arms the
  // watchdog; an empty plan leaves the simulator untouched so the run
  // is bit-identical to one without the fault subsystem.
  if (!options_.faults.empty()) {
    replay.injector = std::make_unique<fault::InjectionEngine>(
        options_.faults, ranks, kPhaseCount);
    simulator.set_fault_injector(replay.injector.get());
    simulator.set_watchdog(replay.injector->watchdog());
  }
  if (options_.cancel != nullptr) simulator.set_cancellation(options_.cancel);
  return replay;
}

SimKrakResult SimKrak::run() const {
  const std::int32_t ranks = partition_.parts();
  Replay replay = make_replay();
  Generator generator(*this);
  replay.simulator.set_op_source(&generator);
  sim::SimResult sim_result = replay.simulator.run();

  SimKrakResult result;
  result.ranks = ranks;
  result.total_time = sim_result.makespan;
  result.time_per_iteration =
      sim_result.makespan / static_cast<double>(options_.iterations);
  result.traffic = sim_result.traffic;
  result.events_processed = sim_result.events_processed;
  result.max_queue_depth = sim_result.max_queue_depth;
  result.coordinator_seconds = sim_result.coordinator_seconds;
  result.sort_seconds = sim_result.sort_seconds;
  result.inject_seconds = sim_result.inject_seconds;
  // Moved, not copied: at 100k ranks the per-rank breakdown is the
  // result's dominant allocation, and the simulator no longer needs it.
  result.rank_breakdown = std::move(sim_result.breakdown);
  result.fault_stats = sim_result.faults;
  result.failures = std::move(sim_result.failures);
  for (const sim::RankTimeBreakdown& rank : result.rank_breakdown) {
    result.totals.compute += rank.compute;
    result.totals.send_overhead += rank.send_overhead;
    result.totals.recv_overhead += rank.recv_overhead;
    result.totals.send_wait += rank.send_wait;
    result.totals.recv_wait += rank.recv_wait;
    result.totals.collective_wait += rank.collective_wait;
    result.totals.collective_cost += rank.collective_cost;
    result.totals.fault_delay += rank.fault_delay;
    result.totals.recovery += rank.recovery;
  }

  // Phase boundaries from rank 0's records (identical on all ranks by
  // construction). A failed run may have stopped mid-iteration; average
  // phase times over the iterations that completed, and only insist on
  // a full record set when the run was clean.
  // The schedules record slots in strictly increasing order, so the
  // flat log reads with a single cursor — no per-phase lookup.
  const auto& records = sim_result.records.front().entries();
  std::size_t cursor = 0;
  double previous = 0.0;
  std::array<double, kPhaseCount> sums{};
  std::int32_t recorded_iterations = 0;
  for (std::int32_t iter = 0; iter < options_.iterations; ++iter) {
    bool complete = true;
    for (std::int32_t p = 0; p < kPhaseCount; ++p) {
      const std::int32_t slot = iter * kPhaseCount + p;
      if (cursor >= records.size() || records[cursor].first != slot) {
        util::require_internal(result.failed(),
                               "missing phase boundary record");
        complete = false;
        break;
      }
      sums[static_cast<std::size_t>(p)] += records[cursor].second - previous;
      previous = records[cursor].second;
      ++cursor;
    }
    if (!complete) break;
    ++recorded_iterations;
  }
  if (recorded_iterations > 0) {
    for (std::int32_t p = 0; p < kPhaseCount; ++p) {
      result.phase_times[static_cast<std::size_t>(p)] =
          sums[static_cast<std::size_t>(p)] /
          static_cast<double>(recorded_iterations);
    }
  }
  return result;
}

double simulate_iteration_time(const mesh::InputDeck& deck, std::int32_t pes,
                               const network::MachineConfig& machine,
                               const ComputationCostEngine& costs,
                               std::uint64_t seed) {
  const partition::Partition part = partition::partition_deck(
      deck, pes, partition::PartitionMethod::kMultilevel, seed);
  SimKrakOptions options;
  options.noise_seed = seed;
  const SimKrak app(deck, part, machine, costs, options);
  return app.run().time_per_iteration;
}

}  // namespace krak::simapp
