// Star topology of a distributed sink-based wireless CPS (§II-B): one
// base station ξ0 and N remote entities ξ1..ξN, connected only through
// per-remote uplink/downlink channels (no remote-remote links — desirable
// for high-dependability wireless applications, per the paper).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/channel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace ptecps::net {

inline constexpr EntityId kBaseStation = 0;

class StarNetwork {
 public:
  /// Creates N uplinks and N downlinks with perfect links and default
  /// channel config; customize per link afterwards.
  StarNetwork(sim::Scheduler& scheduler, sim::Rng& rng, std::size_t n_remotes);

  std::size_t n_remotes() const { return n_remotes_; }

  /// Channel from remote i (1-based entity id) to the base station.
  Channel& uplink(EntityId remote);
  /// Channel from the base station to remote i.
  Channel& downlink(EntityId remote);

  /// Replace the loss model / config on one link.
  void configure_uplink(EntityId remote, std::unique_ptr<LossModel> loss,
                        ChannelConfig config);
  void configure_downlink(EntityId remote, std::unique_ptr<LossModel> loss,
                          ChannelConfig config);
  /// Apply one loss-model factory + config to all 2N links (the §V setup:
  /// a single interferer affecting every link).
  using LossFactory = std::function<std::unique_ptr<LossModel>()>;
  void configure_all(const LossFactory& factory, ChannelConfig config);

  /// The channel used for src → dst; throws for remote→remote pairs.
  Channel& channel_for(EntityId src, EntityId dst);

  /// Transmit event `label` from src to dst over the proper channel.
  void send_event(EntityId src, EntityId dst, hybrid::LabelId label);

  /// Aggregate statistics over all links.
  ChannelStats total_stats() const;
  /// Formatted per-link table (bench/example output); the only place
  /// links get names, uplink[xiI->xi0] and downlink[xi0->xiI].
  std::string describe() const;

 private:
  sim::Scheduler& scheduler_;
  std::size_t n_remotes_;
  std::vector<std::unique_ptr<Channel>> uplinks_;    // index 0 ↔ remote 1
  std::vector<std::unique_ptr<Channel>> downlinks_;
  sim::Rng* rng_;
};

}  // namespace ptecps::net
