// Bridge between the hybrid-automata engine and the wireless substrate.
//
// The formalism communicates through synchronization labels; the wireless
// CPS communicates through packets on the star network.  NetEventRouter
// implements hybrid::EventRouter with a routing table
//     event root  ->  (source entity, destination entity)
// Every routed emission becomes a packet on the proper uplink/downlink
// (and may be lost).  Unrouted roots are internal events without
// receivers (the paper's prefixless labels) and are dropped silently.
// Entity e runs the engine's automaton e (core/deployment.hpp), so a
// packet for entity e is delivered to automaton e.  Delivery goes by
// label id: the packet carries the id the router got from the engine,
// and its arrival calls Engine::deliver(dst, id) with no string lookup.
//
// The router is built in one step from its route list: construction
// checks every route, indexes it by the engine's label ids and wires the
// channels, and the table never changes afterwards.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "hybrid/engine.hpp"
#include "net/star_network.hpp"

namespace ptecps::net {

/// Event `root` travels from entity `src` to entity `dst`.
struct Route {
  std::string root;
  EntityId src = 0;
  EntityId dst = 0;
};

class NetEventRouter final : public hybrid::EventRouter {
 public:
  /// Route every entry of `routes` over `network`, index the routes by
  /// `engine`'s label ids, install delivery callbacks on every channel
  /// and become `engine`'s router (call before engine.init()).  Throws on
  /// a root routed twice or a pair the network has no link for (remote
  /// to remote, or a remote it lacks).  Roots no automaton uses can never
  /// be emitted and are dropped.  The engine must run one automaton per
  /// entity; the router keeps references to it and to the network.
  NetEventRouter(StarNetwork& network, hybrid::Engine& engine, std::span<const Route> routes);
  /// The channels and the engine hold this router's address.
  NetEventRouter(const NetEventRouter&) = delete;
  NetEventRouter& operator=(const NetEventRouter&) = delete;

  void route(hybrid::Engine& engine, std::size_t src_automaton,
             const hybrid::SyncLabel& label, hybrid::LabelId label_id) override;

  /// Number of wireless packets pushed through the network by this router.
  std::uint64_t wireless_sends() const { return wireless_sends_; }

 private:
  struct DenseRoute {
    EntityId src = 0;
    EntityId dst = 0;
    bool active = false;
  };

  StarNetwork& network_;
  hybrid::Engine& engine_;
  /// The routes indexed by the engine's interned LabelId: the
  /// per-emission lookup is an array index.
  std::vector<DenseRoute> dense_routes_;
  std::uint64_t wireless_sends_ = 0;
};

}  // namespace ptecps::net
