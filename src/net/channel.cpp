#include "net/channel.hpp"

#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::net {

Channel::Channel(std::string name, sim::Scheduler& scheduler, sim::Rng rng,
                 std::unique_ptr<LossModel> loss, ChannelConfig config)
    : name_(std::move(name)), scheduler_(scheduler), rng_(rng), loss_(std::move(loss)),
      config_(config) {
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
  PTE_REQUIRE(delivery_ != nullptr, util::cat("channel '", name_, "' has no receiver"));
  packet.seq = next_seq_++;
  packet.send_time = scheduler_.now();
  ++stats_.sent;

  if (loss_->lose(scheduler_.now(), rng_)) {
    ++stats_.lost;
    return;
  }

  // Serialize now; in-flight corruption flips one random bit so that the
  // receiver's CRC check fires.
  std::vector<std::uint8_t> bytes = packet.serialize();
  if (config_.bit_error_prob > 0.0 && rng_.bernoulli(config_.bit_error_prob)) {
    const std::size_t bit = static_cast<std::size_t>(rng_.uniform_int(bytes.size() * 8));
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
  }

  const sim::SimTime delay =
      config_.delay +
      (config_.delay_jitter > 0.0 ? rng_.uniform(0.0, config_.delay_jitter) : 0.0);

  auto arrive = [this](const std::vector<std::uint8_t>& wire_bytes, bool duplicate) {
    std::optional<Packet> received = Packet::parse(wire_bytes);
    if (!received.has_value()) {
      ++stats_.corrupted;
      return;
    }
    if (config_.acceptance_window > 0.0 &&
        scheduler_.now() - received->send_time > config_.acceptance_window + sim::kTimeEps) {
      ++stats_.rejected_late;
      return;
    }
    ++stats_.delivered;
    if (duplicate) ++stats_.duplicated;
    delivery_(*received);
  };

  // At-least-once duplication (extension, see ChannelConfig): a second
  // copy arrives duplicate_lag later and goes through the same checks.
  if (config_.duplicate_prob > 0.0 && rng_.bernoulli(config_.duplicate_prob)) {
    scheduler_.schedule_in(delay + config_.duplicate_lag,
                           [arrive, bytes] { arrive(bytes, /*duplicate=*/true); });
  }
  scheduler_.schedule_in(delay, [arrive, bytes = std::move(bytes)] {
    arrive(bytes, /*duplicate=*/false);
  });
}

}  // namespace ptecps::net
