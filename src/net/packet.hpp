// Wireless messages of the star-topology CPS (§II-B).
//
// A packet carries one synchronization event between the base station
// and a remote entity as the three values its receiver reads: the
// event's label id, the destination entity and the send time (the
// acceptance window measures a packet's age from it).  Every node of a
// run lives in one hybrid::Engine and shares its compiled label table,
// so the id alone names the event; no byte frame is built.
#pragma once

#include <cstdint>

#include "hybrid/label_table.hpp"
#include "sim/time.hpp"

namespace ptecps::net {

using EntityId = std::uint16_t;

struct Packet {
  hybrid::LabelId label = hybrid::kNoLabel;
  EntityId dst = 0;
  sim::SimTime send_time = 0.0;
};

}  // namespace ptecps::net
