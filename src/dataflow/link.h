// In-process MaxRing link: reliable framed transport between two
// StreamEngine segments of a partitioned pipeline (paper §III-C).
//
// The link carries the burst frames the compile-time plan priced: a frame
// is `frame_values` stream values plus a sequence number and an FNV-1a
// checksum, and every transmission is paced by the partitioner's
// `link_bits_per_cycle` arithmetic (a frame of v values of b bits
// occupies ceil(v*b / w) link words at the fabric clock), so the live
// wire and the simulated/priced wire agree on transaction granularity
// and rate.
//
// Reliability is stop-and-wait with a sender-side watchdog:
//
//   transmit ──> wait for ack ──(ack)──> done
//        ^            │
//        │       (nack / timeout)
//        │            v
//        └── jittered exponential backoff, bounded retransmits
//                     │
//              (budget exhausted)
//                     v
//        escalate: link marked dead, LinkDeadError thrown on both sides
//
// Acks happen at ARRIVAL into the link-layer delivery queue (checksum
// verified there too), not when the consumer pops: ack health reflects
// the wire alone, so a wedged downstream segment cannot time out every
// upstream link's watchdog and misdirect failover at the cascade instead
// of the cause. Consumer backpressure is separate flow control — a full
// delivery queue blocks the sender under the (much longer) receiver
// patience bound. Corrupted frames are detected by the arrival checksum
// and nacked; dropped frames (outage windows, permanent death — injected
// via a LinkFaultSite from fault/fault.h) surface as ack timeouts. A
// healthy link never loses or reorders data: delivery is exactly-once,
// in order (duplicate arrivals are discarded by sequence number).
// Escalation is the failover trigger the LinkedEngine uses to recompile
// a degraded plan.
//
// Threading: exactly one sender thread and one receiver thread per link
// (the two adjacent segment drivers). abort() may be called from any
// thread to unblock both sides.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "fault/fault.h"

namespace qnn {

/// Link words one frame occupies on the wire — the exact rounding
/// CrossingStream::wire_mbps prices (ceil(values*bits / w) whole words).
[[nodiscard]] constexpr std::uint64_t link_frame_cycles(
    std::uint64_t values, int bits, int link_bits_per_cycle) {
  if (values == 0 || bits <= 0 || link_bits_per_cycle <= 0) return 1;
  const auto w = static_cast<std::uint64_t>(link_bits_per_cycle);
  return (values * static_cast<std::uint64_t>(bits) + w - 1) / w;
}

/// FNV-1a 64 over the sequence number and payload words.
[[nodiscard]] std::uint64_t link_frame_checksum(
    std::uint64_t seq, std::span<const std::int32_t> payload);

/// Thrown by send()/recv() once the link has escalated to dead (or was
/// killed externally). Catching this — as opposed to a generic Error — is
/// how the LinkedEngine distinguishes "fail over" from "fail".
class LinkDeadError : public Error {
 public:
  explicit LinkDeadError(const std::string& what) : Error(what) {}
};

struct LinkConfig {
  std::string name = "link";
  /// Element width of the carried stream (the boundary node's out_bits);
  /// only used for wire pricing — payload words travel as int32 in
  /// process, exactly like Stream's backing store.
  int bits = 32;
  /// MaxRing word width per fabric cycle; 38 bits at 105 MHz is the
  /// paper's 4 Gbps link. Matches PartitionConfig::link_bits_per_cycle.
  int link_bits_per_cycle = 38;
  double clock_hz = 105e6;
  /// Throttle transmissions to the modeled wire rate so live behaviour
  /// matches the D401 pricing. Off = in-process memcpy speed.
  bool pace = true;
  /// Sender watchdog: how long one transmission may wait for its
  /// arrival ack before it counts as lost. Acks are immediate on a
  /// healthy wire (arrival-acked), so this bounds wire loss only.
  std::int64_t ack_timeout_us = 20000;
  /// Retransmissions before the watchdog escalates to link death.
  int max_retransmits = 8;
  /// Patience bound for BOTH consumer-side stalls: how long recv() waits
  /// for any frame before declaring the upstream wedged, and how long a
  /// sender waits for delivery-queue room before declaring the consumer
  /// wedged. Orders of magnitude above the full retransmit budget, so a
  /// genuinely lossy link always escalates first and failover blames the
  /// right ordinal.
  std::int64_t recv_patience_us = 500000;
  /// Base backoff between retransmissions; doubles per attempt, jittered
  /// +-50% from `backoff_seed` so parallel links do not retry in lockstep.
  std::int64_t retransmit_backoff_us = 200;
  std::uint64_t backoff_seed = 1;
  /// Flow-control bound: delivered frames the consumer may leave unpopped
  /// before the sender blocks (under the patience bound above).
  std::size_t queue_frames = 8;
};

struct LinkStats {
  std::uint64_t frames_sent = 0;      // distinct frames accepted by send()
  std::uint64_t transmissions = 0;    // including retransmissions
  std::uint64_t frames_delivered = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t checksum_drops = 0;   // receiver rejected a corrupt frame
  std::uint64_t outage_drops = 0;     // wire ate the frame (fault site)
  std::uint64_t timeouts = 0;         // ack waits that expired
  std::uint64_t wire_cycles = 0;      // modeled link words shipped
  bool dead = false;
};

class MaxRingLink {
 public:
  explicit MaxRingLink(LinkConfig config);

  MaxRingLink(const MaxRingLink&) = delete;
  MaxRingLink& operator=(const MaxRingLink&) = delete;

  /// Attach the fault seam (may be nullptr). Call before the run starts;
  /// the site is consulted on the sender thread only.
  void set_fault(LinkFaultSite* site) { fault_ = site; }

  /// Reliably deliver one frame (sender thread). Blocks until the
  /// receiver acked it; throws LinkDeadError after the retransmit budget
  /// is exhausted, or Error if abort() was called.
  void send(std::span<const std::int32_t> payload);

  /// Reliably deliver the end-of-stream marker (sender thread).
  void close();

  /// Receive the next frame in order (receiver thread). Returns false on
  /// end-of-stream; throws LinkDeadError once the link is dead.
  [[nodiscard]] bool recv(std::vector<std::int32_t>& out);

  /// Unblock both sides with a non-failover Error (engine cancellation).
  void abort();

  [[nodiscard]] bool dead() const;
  /// Which watchdog declared the link dead (empty while it is alive): the
  /// ack budget, the receiver's patience, or the flow-control patience.
  [[nodiscard]] std::string dead_reason() const;
  [[nodiscard]] LinkStats stats() const;
  [[nodiscard]] const std::string& name() const { return config_.name; }

 private:
  struct WireFrame {
    std::uint64_t seq = 0;
    bool last = false;
    std::uint64_t checksum = 0;
    std::vector<std::int32_t> payload;
  };

  void reliable_send(WireFrame frame);
  /// One transmission attempt: price the wire cycles, pass the frame
  /// through the fault seam, and — when it arrives — verify the checksum
  /// and ack/nack at the receiving link layer. Caller holds mu_.
  void transmit_locked(const WireFrame& frame);
  [[noreturn]] void throw_dead_locked() const;

  LinkConfig config_;
  LinkFaultSite* fault_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable tx_cv_;  // sender waits for ack / nack
  std::condition_variable rx_cv_;  // receiver waits for wire frames
  std::deque<WireFrame> wire_;
  std::uint64_t next_seq_ = 0;  // sender-side
  std::uint64_t ack_seq_ = 0;   // receiver-side: next expected sequence
  bool nack_ = false;
  bool dead_ = false;
  bool aborted_ = false;
  std::string dead_reason_;
  LinkStats stats_;
  Rng backoff_rng_;
  std::chrono::steady_clock::time_point wire_epoch_;
};

}  // namespace qnn
