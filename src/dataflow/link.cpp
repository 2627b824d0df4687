#include "dataflow/link.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace qnn {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

std::uint64_t link_frame_checksum(std::uint64_t seq,
                                  std::span<const std::int32_t> payload) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t byte) {
    h ^= byte & 0xffU;
    h *= 0x100000001b3ULL;
  };
  for (int shift = 0; shift < 64; shift += 8) mix(seq >> shift);
  for (const std::int32_t v : payload) {
    const auto u = static_cast<std::uint32_t>(v);
    for (int shift = 0; shift < 32; shift += 8) mix(u >> shift);
  }
  return h;
}

MaxRingLink::MaxRingLink(LinkConfig config)
    : config_(std::move(config)),
      backoff_rng_(config_.backoff_seed),
      wire_epoch_(Clock::now()) {
  QNN_CHECK(config_.max_retransmits >= 0,
            "MaxRingLink: max_retransmits must be >= 0");
  QNN_CHECK(config_.ack_timeout_us > 0,
            "MaxRingLink: ack_timeout_us must be > 0");
  QNN_CHECK(config_.queue_frames >= 1,
            "MaxRingLink: queue_frames must be >= 1");
}

void MaxRingLink::throw_dead_locked() const {
  if (aborted_) throw Error("MaxRing link '" + config_.name + "' aborted");
  throw LinkDeadError("MaxRing link '" + config_.name +
                      "' is dead: " + dead_reason_);
}

void MaxRingLink::transmit_locked(const WireFrame& frame) {
  ++stats_.transmissions;
  // Every attempt occupies the wire whether or not it arrives — a frame
  // eaten by an outage still burned its cycles.
  const std::uint64_t cycles = link_frame_cycles(
      std::max<std::uint64_t>(frame.payload.size(), 1), config_.bits,
      config_.link_bits_per_cycle);
  stats_.wire_cycles += cycles;
  const LinkFaultSite::Fate fate =
      fault_ != nullptr ? fault_->filter(Clock::now())
                        : LinkFaultSite::Fate::kDeliver;
  WireFrame arrived;
  switch (fate) {
    case LinkFaultSite::Fate::kDropDead:
    case LinkFaultSite::Fate::kDropOutage:
      ++stats_.outage_drops;
      return;  // the wire ate it; the ack watchdog will notice
    case LinkFaultSite::Fate::kCorrupt:
      arrived = frame;
      if (arrived.payload.empty()) {
        arrived.checksum ^= 1;  // close frames have no payload bit to flip
      } else {
        arrived.payload[arrived.payload.size() / 2] ^= 1;
      }
      break;
    case LinkFaultSite::Fate::kDeliver:
      arrived = frame;
      break;
  }
  // Arrival at the receiving link layer: verify and ack HERE, not when
  // the consumer pops. Acks must reflect wire health alone — if they
  // waited on the consumer, a wedged downstream segment would time out
  // every upstream link's watchdog and failover would blame the wrong
  // link (the cascade, not the cause).
  if (arrived.checksum != link_frame_checksum(arrived.seq, arrived.payload)) {
    ++stats_.checksum_drops;
    nack_ = true;  // immediate retransmit instead of waiting out the ack
    return;
  }
  if (arrived.seq < ack_seq_) return;  // duplicate: already acked
  ack_seq_ = arrived.seq + 1;
  ++stats_.frames_delivered;
  wire_.push_back(std::move(arrived));
  rx_cv_.notify_one();
}

void MaxRingLink::reliable_send(WireFrame frame) {
  std::unique_lock<std::mutex> lock(mu_);
  if (dead_ || aborted_) throw_dead_locked();
  ++stats_.frames_sent;
  // Flow control, distinct from loss: a full delivery queue means the
  // consumer is slow, not that the wire is broken, so the wait here is
  // bounded by the (much longer) receiver patience rather than the ack
  // timeout. Only a consumer wedged beyond any retransmit budget
  // escalates — a genuinely lossy link always escalates first.
  const auto room_deadline =
      Clock::now() + std::chrono::microseconds(config_.recv_patience_us);
  const bool room = tx_cv_.wait_until(lock, room_deadline, [&] {
    return wire_.size() < config_.queue_frames || dead_ || aborted_;
  });
  if (dead_ || aborted_) throw_dead_locked();
  if (!room) {
    dead_ = true;
    stats_.dead = true;
    dead_reason_ = "consumer wedged: no queue room within " +
                   std::to_string(config_.recv_patience_us) + "us";
    rx_cv_.notify_all();
    tx_cv_.notify_all();
    throw LinkDeadError("MaxRing link '" + config_.name +
                        "' escalated: " + dead_reason_);
  }
  std::int64_t backoff_us = config_.retransmit_backoff_us;
  for (int attempt = 0; attempt <= config_.max_retransmits; ++attempt) {
    transmit_locked(frame);
    if (config_.pace && config_.clock_hz > 0) {
      // Sleep off any lead the wire model has over the wall clock, so a
      // fast in-process copy cannot outrun the priced 4 Gbps link.
      const auto wire_ns = static_cast<std::int64_t>(
          1e9 * static_cast<double>(stats_.wire_cycles) / config_.clock_hz);
      const auto target = wire_epoch_ + std::chrono::nanoseconds(wire_ns);
      const auto now = Clock::now();
      if (target > now + std::chrono::microseconds(100)) {
        lock.unlock();
        std::this_thread::sleep_until(target);
        lock.lock();
      }
    }
    const auto deadline =
        Clock::now() + std::chrono::microseconds(config_.ack_timeout_us);
    const bool signalled = tx_cv_.wait_until(lock, deadline, [&] {
      return ack_seq_ > frame.seq || nack_ || dead_ || aborted_;
    });
    if (dead_ || aborted_) throw_dead_locked();
    if (ack_seq_ > frame.seq) return;  // delivered
    if (nack_) {
      nack_ = false;
    } else if (!signalled) {
      ++stats_.timeouts;
    }
    if (attempt == config_.max_retransmits) break;
    ++stats_.retransmits;
    // Jittered exponential backoff: uniform in [b/2, 3b/2] so parallel
    // senders recovering from the same outage do not retry in lockstep.
    const std::int64_t jittered =
        backoff_us / 2 +
        static_cast<std::int64_t>(backoff_rng_.next_below(
            static_cast<std::uint64_t>(std::max<std::int64_t>(backoff_us, 1)) +
            1));
    backoff_us = std::min<std::int64_t>(backoff_us * 2, 100000);
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::microseconds(jittered));
    lock.lock();
    if (dead_ || aborted_) throw_dead_locked();
    if (ack_seq_ > frame.seq) return;  // ack landed during the backoff
  }
  // Escalation: the watchdog exhausted its budget. Mark the link dead and
  // wake the receiver so both segment drivers unwind into failover.
  dead_ = true;
  stats_.dead = true;
  dead_reason_ = "no ack for frame " + std::to_string(frame.seq) + " after " +
                 std::to_string(config_.max_retransmits) + " retransmits";
  rx_cv_.notify_all();
  tx_cv_.notify_all();
  throw LinkDeadError("MaxRing link '" + config_.name +
                      "' escalated: " + dead_reason_);
}

void MaxRingLink::send(std::span<const std::int32_t> payload) {
  WireFrame frame;
  frame.payload.assign(payload.begin(), payload.end());
  {
    const std::lock_guard<std::mutex> lock(mu_);
    frame.seq = next_seq_++;
  }
  frame.checksum = link_frame_checksum(frame.seq, frame.payload);
  reliable_send(std::move(frame));
}

void MaxRingLink::close() {
  WireFrame frame;
  frame.last = true;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    frame.seq = next_seq_++;
  }
  frame.checksum = link_frame_checksum(frame.seq, frame.payload);
  reliable_send(std::move(frame));
}

bool MaxRingLink::recv(std::vector<std::int32_t>& out) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto patience =
        Clock::now() + std::chrono::microseconds(config_.recv_patience_us);
    const bool signalled = rx_cv_.wait_until(lock, patience, [&] {
      return !wire_.empty() || dead_ || aborted_;
    });
    if (!signalled && wire_.empty() && !dead_ && !aborted_) {
      // Upstream went silent for longer than any retransmit budget: the
      // sender thread is wedged or gone. Escalate from the receiving side.
      dead_ = true;
      stats_.dead = true;
      dead_reason_ = "no frame from the sender within " +
                     std::to_string(config_.recv_patience_us) + "us";
      tx_cv_.notify_all();
      throw LinkDeadError("MaxRing link '" + config_.name +
                          "' escalated: " + dead_reason_);
    }
    if (wire_.empty()) throw_dead_locked();
    // Frames in the queue were checksum-verified and acked at arrival
    // (transmit_locked); popping just frees a flow-control slot.
    WireFrame frame = std::move(wire_.front());
    wire_.pop_front();
    tx_cv_.notify_one();
    if (frame.last) return false;
    out = std::move(frame.payload);
    return true;
  }
}

void MaxRingLink::abort() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (dead_) return;  // death (failover) outranks cancellation
  aborted_ = true;
  rx_cv_.notify_all();
  tx_cv_.notify_all();
}

bool MaxRingLink::dead() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

std::string MaxRingLink::dead_reason() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dead_reason_;
}

LinkStats MaxRingLink::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace qnn
