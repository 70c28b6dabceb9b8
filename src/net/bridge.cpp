#include "net/bridge.hpp"

#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::net {

NetEventRouter::NetEventRouter(StarNetwork& network, hybrid::Engine& engine,
                               std::span<const Route> routes)
    : network_(network), engine_(engine), dense_routes_(engine.labels().size()) {
  PTE_REQUIRE(engine.num_automata() == network.n_remotes() + 1,
              "need one automaton per entity (base station + remotes)");
  for (const Route& r : routes) {
    network.channel_for(r.src, r.dst);  // throws on a pair without a link
    const hybrid::LabelId id = engine.label_id(r.root);
    if (id == hybrid::kNoLabel) continue;  // never emitted
    DenseRoute& dense = dense_routes_[id];
    PTE_REQUIRE(!dense.active, util::cat("duplicate route for event root '", r.root, "'"));
    dense = DenseRoute{r.src, r.dst, true};
  }
  for (EntityId r = 1; r <= network.n_remotes(); ++r) {
    auto deliver = [this](const Packet& p) { engine_.deliver(p.dst, p.label); };
    network.uplink(r).set_delivery(deliver);
    network.downlink(r).set_delivery(deliver);
  }
  engine.set_router(this);
}

void NetEventRouter::route(hybrid::Engine&, std::size_t src_automaton,
                           const hybrid::SyncLabel& label, hybrid::LabelId label_id) {
  PTE_CHECK(label_id < dense_routes_.size(),
            util::cat("event '", label.root, "' routed with a foreign label id"));
  const DenseRoute& r = dense_routes_[label_id];
  if (!r.active) return;  // internal event, no receivers
  PTE_CHECK(r.src == src_automaton,
            util::cat("event '", label.root, "' emitted by automaton #", src_automaton,
                      " but routed from entity xi", r.src));
  ++wireless_sends_;
  network_.send_event(r.src, r.dst, label_id);
}

}  // namespace ptecps::net
