// Bridge between the hybrid-automata engine and the wireless substrate.
//
// The formalism communicates through synchronization labels; the wireless
// CPS communicates through packets on the star network.  NetEventRouter
// implements hybrid::EventRouter with a routing table
//     event root  ->  (source entity, destination entity)
// Every routed emission becomes a packet on the proper uplink/downlink
// (and may be lost).  Unrouted roots are internal events without
// receivers (the paper's prefixless labels) and are dropped silently.
// The table is fixed in two phases: add_route() every route, then
// attach() re-indexes it by the engine's label ids for the run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "hybrid/engine.hpp"
#include "net/star_network.hpp"

namespace ptecps::net {

struct EventRoute {
  EntityId src = 0;
  EntityId dst = 0;
};

class NetEventRouter final : public hybrid::EventRouter {
 public:
  /// `automaton_of_entity[e]` is the engine index of entity e's automaton.
  NetEventRouter(StarNetwork& network, std::vector<std::size_t> automaton_of_entity);

  /// Route `event_root` from entity `src` to entity `dst`.  Throws on a
  /// duplicate root, a remote-to-remote pair, or a call after attach().
  void add_route(const std::string& event_root, EntityId src, EntityId dst);

  /// Index the routes by the engine's label ids, install delivery
  /// callbacks on every network channel and remember the engine.  Must be
  /// called once, after the last add_route() and before the engine runs.
  void attach(hybrid::Engine& engine);

  void route(hybrid::Engine& engine, std::size_t src_automaton,
             const hybrid::SyncLabel& label, hybrid::LabelId label_id) override;

  /// Number of wireless packets pushed through the network by this router.
  std::uint64_t wireless_sends() const { return wireless_sends_; }

 private:
  struct DenseRoute {
    EventRoute route;
    bool active = false;
  };

  StarNetwork& network_;
  std::vector<std::size_t> automaton_of_entity_;
  std::map<std::string, EventRoute> routes_;
  /// routes_ re-indexed by the engine's interned LabelId (built in
  /// attach()): the per-emission lookup is an array index, not a
  /// string-keyed tree walk.
  std::vector<DenseRoute> dense_routes_;
  hybrid::Engine* engine_ = nullptr;
  std::uint64_t wireless_sends_ = 0;
};

}  // namespace ptecps::net
