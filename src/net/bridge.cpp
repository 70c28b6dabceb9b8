#include "net/bridge.hpp"

#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::net {

NetEventRouter::NetEventRouter(StarNetwork& network,
                               std::vector<std::size_t> automaton_of_entity)
    : network_(network), automaton_of_entity_(std::move(automaton_of_entity)) {
  PTE_REQUIRE(automaton_of_entity_.size() == network.n_remotes() + 1,
              "need one automaton per entity (base station + remotes)");
}

void NetEventRouter::add_route(const std::string& event_root, EntityId src, EntityId dst) {
  PTE_REQUIRE(engine_ == nullptr,
              util::cat("route for event root '", event_root, "' added after attach()"));
  PTE_REQUIRE(routes_.emplace(event_root, EventRoute{src, dst}).second,
              util::cat("duplicate route for event root '", event_root, "'"));
  // Validate the topology early: throws on remote→remote.
  network_.channel_for(src, dst);
}

void NetEventRouter::attach(hybrid::Engine& engine) {
  PTE_REQUIRE(engine_ == nullptr, "attach() called twice");
  engine_ = &engine;
  // Re-index the routing table by the engine's interned label ids.  Roots
  // the engine never interned can never be emitted, so dropping them from
  // the dense table is safe.
  dense_routes_.assign(engine.labels().size(), DenseRoute{});
  for (const auto& [root, route] : routes_) {
    const hybrid::LabelId id = engine.label_id(root);
    if (id != hybrid::kNoLabel) dense_routes_[id] = DenseRoute{route, true};
  }
  for (EntityId r = 1; r <= network_.n_remotes(); ++r) {
    auto deliver = [this](const Packet& p) {
      PTE_CHECK(p.dst < automaton_of_entity_.size(), "packet for unknown entity");
      // The wire carries the root string (nodes built independently must
      // agree on meaning, not table order); intern once per arrival.
      engine_->deliver(automaton_of_entity_[p.dst], p.event_root);
    };
    network_.uplink(r).set_delivery(deliver);
    network_.downlink(r).set_delivery(deliver);
  }
}

void NetEventRouter::route(hybrid::Engine&, std::size_t src_automaton,
                           const hybrid::SyncLabel& label, hybrid::LabelId label_id) {
  PTE_CHECK(engine_ != nullptr && label_id < dense_routes_.size(),
            util::cat("event '", label.root,
                      "' routed before attach() or with a foreign label id"));
  const DenseRoute& dense = dense_routes_[label_id];
  if (!dense.active) return;  // internal event, no receivers
  const EventRoute& r = dense.route;
  PTE_CHECK(r.src < automaton_of_entity_.size() && automaton_of_entity_[r.src] == src_automaton,
            util::cat("event '", label.root, "' emitted by automaton #", src_automaton,
                      " but routed from entity xi", r.src));
  ++wireless_sends_;
  network_.send_event(r.src, r.dst, label.root);
}

}  // namespace ptecps::net
