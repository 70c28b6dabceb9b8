#include "net/channel.hpp"

#include "util/require.hpp"

namespace ptecps::net {

Channel::Channel(sim::Scheduler& scheduler, sim::Rng rng, std::unique_ptr<LossModel> loss,
                 ChannelConfig config)
    : scheduler_(scheduler), rng_(rng), loss_(std::move(loss)), config_(config) {
  PTE_REQUIRE(loss_ != nullptr, "channel needs a loss model");
  PTE_REQUIRE(config_.delay >= 0.0, "negative channel delay");
  PTE_REQUIRE(config_.delay_jitter >= 0.0, "negative delay jitter");
}

void Channel::set_delivery(DeliveryFn fn) {
  PTE_REQUIRE(fn != nullptr, "null delivery callback");
  delivery_ = std::move(fn);
}

void Channel::set_loss_model(std::unique_ptr<LossModel> loss) {
  PTE_REQUIRE(loss != nullptr, "channel needs a loss model");
  loss_ = std::move(loss);
}

void Channel::send(Packet packet) {
  PTE_REQUIRE(delivery_ != nullptr, "channel has no receiver");
  packet.send_time = scheduler_.now();
  ++stats_.sent;

  if (loss_->lose(scheduler_.now(), rng_)) {
    ++stats_.lost;
    return;
  }

  // A bit error dooms the packet at the receiver.  The unused draw after
  // it keeps the link's later draws in place (see the header).
  const bool corrupted =
      config_.bit_error_prob > 0.0 && rng_.bernoulli(config_.bit_error_prob);
  if (corrupted) rng_.next_u64();

  const sim::SimTime delay =
      config_.delay +
      (config_.delay_jitter > 0.0 ? rng_.uniform(0.0, config_.delay_jitter) : 0.0);

  auto arrive = [this, packet, corrupted](bool duplicate) {
    if (corrupted) {
      ++stats_.corrupted;
      return;
    }
    if (config_.acceptance_window > 0.0 &&
        scheduler_.now() - packet.send_time > config_.acceptance_window + sim::kTimeEps) {
      ++stats_.rejected_late;
      return;
    }
    ++stats_.delivered;
    if (duplicate) ++stats_.duplicated;
    delivery_(packet);
  };

  // At-least-once duplication (extension, see ChannelConfig): a second
  // copy arrives duplicate_lag later and goes through the same checks.
  if (config_.duplicate_prob > 0.0 && rng_.bernoulli(config_.duplicate_prob)) {
    scheduler_.schedule_in(delay + config_.duplicate_lag,
                           [arrive] { arrive(/*duplicate=*/true); });
  }
  scheduler_.schedule_in(delay, [arrive] { arrive(/*duplicate=*/false); });
}

}  // namespace ptecps::net
