// A unidirectional wireless link: loss model + propagation delay +
// bit errors + receiver acceptance window (§II-B: "for the downlink, the
// remote entities locally specify delays as acceptable or as
// lost-messages"; uplink delays are handled the same way by the base
// station).
//
// A bit error is a communication outcome, not damaged bytes: the paper's
// checksum catches every bit error and the receiver discards the packet,
// so the Bernoulli draw alone decides it.  The packet still travels and
// is counted `corrupted` at its arrival instant.
//
// A fired bit-error draw is followed by one more 64-bit draw whose value
// goes unused.  It once picked the flipped bit of a byte frame: a
// rejection-sampled draw over the frame's bits (at most 448 for the
// pattern's event roots) that redraws with probability below 2^-55.
// Keeping it keeps every later draw of the link's random stream (jitter,
// duplication, the next packet's loss) where it was, so campaigns sample
// the same runs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/loss_model.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace ptecps::net {

struct ChannelConfig {
  sim::SimTime delay = 0.005;        // fixed propagation + MAC delay (s)
  sim::SimTime delay_jitter = 0.0;   // uniform extra delay in [0, jitter)
  double bit_error_prob = 0.0;       // P(a packet has a bit error)
  /// Maximum age a packet may have on arrival before the receiver treats
  /// it as lost; 0 disables the check.
  sim::SimTime acceptance_window = 0.5;
  /// P(a surviving packet is delivered twice) — at-least-once middleware
  /// and MAC-level retransmissions duplicate events in practice.  This is
  /// an EXTENSION beyond the paper's loss-only fault model; the design
  /// pattern's receivers are state-gated and tolerate duplicates (see
  /// test_pattern.cpp / test_adversarial.cpp).
  double duplicate_prob = 0.0;
  /// Extra delay of the duplicate copy (s).
  sim::SimTime duplicate_lag = 0.02;

  bool operator==(const ChannelConfig&) const = default;
};

struct ChannelStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;           // dropped by the loss model
  std::uint64_t corrupted = 0;      // bit error, discarded at arrival
  std::uint64_t rejected_late = 0;  // outside the acceptance window
  std::uint64_t duplicated = 0;     // extra copies delivered

  double delivery_ratio() const {
    return sent == 0 ? 1.0 : static_cast<double>(delivered) / static_cast<double>(sent);
  }
};

class Channel {
 public:
  using DeliveryFn = std::function<void(const Packet&)>;

  Channel(sim::Scheduler& scheduler, sim::Rng rng, std::unique_ptr<LossModel> loss,
          ChannelConfig config);

  void set_delivery(DeliveryFn fn);

  /// Transmit `packet`, stamped with the current time.  Loss, bit error,
  /// delay and duplication are drawn here, in that order; survivors
  /// arrive at the delivery callback after the delay unless late.
  void send(Packet packet);

  const ChannelStats& stats() const { return stats_; }
  const LossModel& loss_model() const { return *loss_; }
  /// Swap the loss model at runtime (scenario scripting).
  void set_loss_model(std::unique_ptr<LossModel> loss);

 private:
  sim::Scheduler& scheduler_;
  sim::Rng rng_;
  std::unique_ptr<LossModel> loss_;
  ChannelConfig config_;
  DeliveryFn delivery_;
  ChannelStats stats_;
};

}  // namespace ptecps::net
