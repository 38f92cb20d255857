#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace krak::sim {

using RankId = std::int32_t;

/// Kinds of operations a simulated rank can execute.
enum class OpKind : std::uint8_t {
  /// Advance the local clock by `duration()` seconds of computation.
  kCompute,
  /// Post an asynchronous send of `bytes()` to `peer` with matching
  /// `tag()`. The sender pays only a CPU injection overhead; the payload
  /// arrives at the receiver one message time later. Sends to different
  /// peers therefore overlap on the wire (Section 4 of the paper:
  /// "messages to multiple neighbors are overlapped").
  kIsend,
  /// Block until all previously posted sends have left the local NIC.
  kWaitAllSends,
  /// Blocking receive of a message from `peer` with matching `tag()`.
  kRecv,
  /// Tree allreduce over all ranks of `bytes()` payload (synchronizing).
  kAllreduce,
  /// Tree broadcast of `bytes()` from rank 0.
  kBroadcast,
  /// Tree gather of `bytes()` to rank 0.
  kGather,
  /// Record the local clock into the result's record slot `slot()`
  /// (used to extract per-phase times). Free.
  kRecord,
};

[[nodiscard]] std::string_view op_kind_name(OpKind kind);

/// One operation of a rank's static schedule. Every kind carries at
/// most one double and one 32-bit label, so the op keeps exactly one
/// of each: 24 bytes instead of a field per meaning. At 100k ranks the
/// schedules hold ~23M ops, the replay's largest allocation
/// (docs/PERFORMANCE.md, "The 100k-rank regime").
struct Op {
  /// Seconds for kCompute; payload bytes for messages and collectives;
  /// zero otherwise. Read it through duration() / bytes().
  double payload = 0.0;
  RankId peer = -1;  ///< kIsend / kRecv
  /// Matching tag for kIsend / kRecv, record slot for kRecord; zero
  /// otherwise. Read it through tag() / slot().
  std::int32_t label = 0;
  OpKind kind = OpKind::kCompute;

  [[nodiscard]] double duration() const { return payload; }
  [[nodiscard]] double bytes() const { return payload; }
  [[nodiscard]] std::int32_t tag() const { return label; }
  [[nodiscard]] std::int32_t slot() const { return label; }

  [[nodiscard]] static Op compute(double seconds) {
    return {seconds, -1, 0, OpKind::kCompute};
  }
  [[nodiscard]] static Op isend(RankId to, double bytes, std::int32_t tag) {
    return {bytes, to, tag, OpKind::kIsend};
  }
  [[nodiscard]] static Op wait_all_sends() {
    return {0.0, -1, 0, OpKind::kWaitAllSends};
  }
  [[nodiscard]] static Op recv(RankId from, double bytes, std::int32_t tag) {
    return {bytes, from, tag, OpKind::kRecv};
  }
  [[nodiscard]] static Op allreduce(double bytes) {
    return {bytes, -1, 0, OpKind::kAllreduce};
  }
  [[nodiscard]] static Op broadcast(double bytes) {
    return {bytes, -1, 0, OpKind::kBroadcast};
  }
  [[nodiscard]] static Op gather(double bytes) {
    return {bytes, -1, 0, OpKind::kGather};
  }
  [[nodiscard]] static Op record(std::int32_t slot) {
    return {0.0, -1, slot, OpKind::kRecord};
  }
};
static_assert(sizeof(Op) == 24, "schedule ops must stay 24 bytes");

using Schedule = std::vector<Op>;

}  // namespace krak::sim
