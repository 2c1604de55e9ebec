// W x H mesh of routers with per-node network interfaces (NICs).
//
// The paper's platform is a 5x5 mesh-type open-source NoC (Blueshell) at
// 100 MHz hosting 16 MicroBlaze processors, memory and I/O peripherals.
// Nodes are indexed row-major: NodeId = y * width + x.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "noc/router.hpp"

namespace ioguard::noc {

struct MeshConfig {
  int width = 5;
  int height = 5;
  std::size_t fifo_depth = 8;
  std::uint32_t flit_bytes = 16;  ///< payload bytes per body flit
};

/// Per-node network interface: serializes packets to flits on the router's
/// local port and reassembles arriving flits into packets.
class Nic {
 public:
  Nic(NodeId node, std::uint32_t flit_bytes, std::size_t fifo_depth);

  /// Queues a packet for injection (unbounded software-side queue).
  void send(Packet packet, Cycle now);

  /// Handler invoked when a packet fully arrives.
  using DeliveryHandler = std::function<void(const Packet&, Cycle)>;
  void set_delivery_handler(DeliveryHandler handler) {
    on_delivery_ = std::move(handler);
  }

  void tick(Cycle now);

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] Link* to_router() { return &to_router_; }
  [[nodiscard]] Link* from_router() { return &from_router_; }
  [[nodiscard]] std::size_t fifo_depth() const { return fifo_depth_; }
  /// Nothing queued to send and no packet partly received.
  [[nodiscard]] bool idle() const {
    return tx_queue_.empty() && rx_partial_.empty();
  }
  /// Nothing to send and no flit arriving: ticks are no-ops until a send()
  /// or a flit from the router.
  [[nodiscard]] bool parkable() const {
    return tx_queue_.empty() && !from_router_.busy();
  }

 private:
  NodeId node_;
  std::uint32_t flit_bytes_;
  std::size_t fifo_depth_;

  Link to_router_;    // NIC -> router local input
  Link from_router_;  // router local output -> NIC
  std::uint32_t credits_;

  struct InFlight {
    Packet packet;
    std::size_t flits_left = 0;
    std::size_t flits_total = 0;
  };
  std::deque<InFlight> tx_queue_;
  std::vector<InFlight> rx_partial_;  // keyed linearly by packet id (small)

  DeliveryHandler on_delivery_;
};

/// The full mesh: routers, inter-router links and NICs, ticked as one unit.
/// A tick reaches only the routers and NICs that have work; idle ones park
/// until a flit or a send() wakes them (DESIGN.md §15.4).
class Mesh {
 public:
  explicit Mesh(const MeshConfig& config);
  // Routers, NIC delivery handlers and link wake flags point into this
  // object, so it can be neither copied nor moved.
  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  [[nodiscard]] NodeId node_at(int x, int y) const;
  [[nodiscard]] XY xy_of(NodeId node) const;
  [[nodiscard]] int width() const { return config_.width; }
  [[nodiscard]] int height() const { return config_.height; }
  [[nodiscard]] std::size_t node_count() const {
    return static_cast<std::size_t>(config_.width * config_.height);
  }

  /// Injects a packet at its source node's NIC.
  void send(Packet packet, Cycle now);

  /// Delivery callback for packets arriving at `node`.
  void set_delivery_handler(NodeId node, Nic::DeliveryHandler handler);

  /// Advances one cycle ending at `now`: the awake routers, then the awake
  /// NICs, each in node order.
  void tick(Cycle now);

  /// Minimal (uncontended) packet latency in cycles from src to dst:
  /// hops * (router + link) + serialization.
  [[nodiscard]] Cycle zero_load_latency(NodeId src, NodeId dst,
                                        std::uint32_t payload_bytes) const;

  /// Every router and NIC is idle.
  [[nodiscard]] bool idle() const {
    for (const auto& r : routers_)
      if (!r->idle()) return false;
    for (const auto& nic : nics_)
      if (!nic->idle()) return false;
    return true;
  }
  [[nodiscard]] std::uint64_t packets_delivered() const { return delivered_; }

  /// Attaches a fault injector to every router (not owned); router `i`
  /// becomes kLinkFlitLoss site `i`. Pass nullptr to detach.
  void set_fault_injector(faults::FaultInjector* injector);

  /// Packets eaten by injected link faults, summed over all routers.
  [[nodiscard]] std::uint64_t packets_dropped() const;

 private:
  MeshConfig config_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<std::unique_ptr<Link>> links_;
  // Wake flags, raised by Link::put for the receiving router or NIC and by
  // send() for the source NIC; tick() lowers them for parkable components.
  std::vector<std::uint8_t> router_awake_;
  std::vector<std::uint8_t> nic_awake_;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t delivered_ = 0;
};

}  // namespace ioguard::noc
