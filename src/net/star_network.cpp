#include "net/star_network.hpp"

#include "util/require.hpp"
#include "util/table.hpp"
#include "util/text.hpp"

namespace ptecps::net {

StarNetwork::StarNetwork(sim::Scheduler& scheduler, sim::Rng& rng, std::size_t n_remotes)
    : scheduler_(scheduler), n_remotes_(n_remotes), rng_(&rng) {
  PTE_REQUIRE(n_remotes >= 1, "star network needs at least one remote");
  for (std::size_t i = 1; i <= n_remotes; ++i) {
    uplinks_.push_back(std::make_unique<Channel>(
        scheduler_, rng.fork(2 * i), std::make_unique<PerfectLink>(), ChannelConfig{}));
    downlinks_.push_back(std::make_unique<Channel>(
        scheduler_, rng.fork(2 * i + 1), std::make_unique<PerfectLink>(), ChannelConfig{}));
  }
}

Channel& StarNetwork::uplink(EntityId remote) {
  PTE_REQUIRE(remote >= 1 && remote <= n_remotes_, "uplink: remote id out of range");
  return *uplinks_[remote - 1];
}

Channel& StarNetwork::downlink(EntityId remote) {
  PTE_REQUIRE(remote >= 1 && remote <= n_remotes_, "downlink: remote id out of range");
  return *downlinks_[remote - 1];
}

void StarNetwork::configure_uplink(EntityId remote, std::unique_ptr<LossModel> loss,
                                   ChannelConfig config) {
  uplink(remote);  // range check
  uplinks_[remote - 1] =
      std::make_unique<Channel>(scheduler_, rng_->fork(100 + 2 * remote), std::move(loss), config);
}

void StarNetwork::configure_downlink(EntityId remote, std::unique_ptr<LossModel> loss,
                                     ChannelConfig config) {
  downlink(remote);  // range check
  downlinks_[remote - 1] =
      std::make_unique<Channel>(scheduler_, rng_->fork(101 + 2 * remote), std::move(loss), config);
}

void StarNetwork::configure_all(const LossFactory& factory, ChannelConfig config) {
  for (EntityId i = 1; i <= n_remotes_; ++i) {
    configure_uplink(i, factory(), config);
    configure_downlink(i, factory(), config);
  }
}

Channel& StarNetwork::channel_for(EntityId src, EntityId dst) {
  PTE_REQUIRE(src != dst, "self-directed packet");
  if (src == kBaseStation) return downlink(dst);
  PTE_REQUIRE(dst == kBaseStation,
              util::cat("no direct wireless link between remote entities xi", src, " and xi",
                        dst, " (sink-based topology, §II-B)"));
  return uplink(src);
}

void StarNetwork::send_event(EntityId src, EntityId dst, hybrid::LabelId label) {
  channel_for(src, dst).send(Packet{label, dst, 0.0});
}

ChannelStats StarNetwork::total_stats() const {
  ChannelStats total;
  auto fold = [&total](const Channel& c) {
    total.sent += c.stats().sent;
    total.delivered += c.stats().delivered;
    total.lost += c.stats().lost;
    total.corrupted += c.stats().corrupted;
    total.rejected_late += c.stats().rejected_late;
    total.duplicated += c.stats().duplicated;
  };
  for (const auto& c : uplinks_) fold(*c);
  for (const auto& c : downlinks_) fold(*c);
  return total;
}

std::string StarNetwork::describe() const {
  util::TextTable table({"link", "loss model", "sent", "delivered", "lost", "corrupt", "late"});
  for (std::size_t c = 2; c <= 6; ++c) table.set_right_align(c);
  auto row = [&table](std::string link, const Channel& ch) {
    table.add_row({std::move(link), ch.loss_model().describe(), std::to_string(ch.stats().sent),
                   std::to_string(ch.stats().delivered), std::to_string(ch.stats().lost),
                   std::to_string(ch.stats().corrupted),
                   std::to_string(ch.stats().rejected_late)});
  };
  for (std::size_t i = 1; i <= n_remotes_; ++i) {
    row(util::cat("uplink[xi", i, "->xi0]"), *uplinks_[i - 1]);
    row(util::cat("downlink[xi0->xi", i, "]"), *downlinks_[i - 1]);
  }
  return table.render();
}

}  // namespace ptecps::net
