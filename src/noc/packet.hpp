// Packets and flits of the on-chip network.
//
// I/O requests and responses are "encapsulated as packets using the
// communication protocol introduced in [Blueshell]" (paper assumption (ii)).
// A packet is serialized into head/body/tail flits; links move one flit per
// cycle; wormhole switching holds an output port from head to tail.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace ioguard::noc {

enum class PacketKind : std::uint8_t {
  kIoRequest,    ///< processor -> I/O (or hypervisor)
  kIoResponse,   ///< I/O -> processor
  kControl,      ///< hypervisor control traffic
  kBackground,   ///< synthetic background traffic (calibration)
};

/// A network packet. `tag` is opaque to the NoC and carries the upper
/// layers' identifiers (e.g. a job index).
struct Packet {
  std::uint64_t id = 0;
  NodeId src;
  NodeId dst;
  PacketKind kind = PacketKind::kIoRequest;
  std::uint32_t payload_bytes = 0;
  std::uint64_t tag = 0;

  Cycle injected_at = 0;   ///< set by the NIC on injection
  Cycle delivered_at = 0;  ///< set by the NIC on delivery

  [[nodiscard]] Cycle latency() const { return delivered_at - injected_at; }
};

/// One flow-control unit. The head flit carries the packet header (as in
/// hardware, where routing and reassembly information rides in the head).
struct Flit {
  std::uint64_t packet_id = 0;
  NodeId dst;
  bool head = false;
  bool tail = false;
  Packet header;  ///< meaningful only when head == true
};

/// Number of flits a packet of `payload_bytes` occupies for a given flit
/// width: one head flit plus enough body flits for the payload.
[[nodiscard]] std::size_t flits_for(std::uint32_t payload_bytes,
                                    std::uint32_t flit_bytes);

}  // namespace ioguard::noc
