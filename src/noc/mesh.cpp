#include "noc/mesh.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ioguard::noc {

Nic::Nic(NodeId node, std::uint32_t flit_bytes, std::size_t fifo_depth)
    : node_(node), flit_bytes_(flit_bytes), fifo_depth_(fifo_depth),
      credits_(static_cast<std::uint32_t>(fifo_depth)) {}

void Nic::send(Packet packet, Cycle now) {
  packet.injected_at = now;
  InFlight f;
  f.flits_total = flits_for(packet.payload_bytes, flit_bytes_);
  f.flits_left = f.flits_total;
  f.packet = packet;
  tx_queue_.push_back(std::move(f));
}

void Nic::tick(Cycle now) {
  // Collect credits returned by the router's local input FIFO.
  credits_ += to_router_.take_credits(now);

  // Transmit: one flit per cycle when a credit is available.
  if (!tx_queue_.empty() && credits_ > 0 && !to_router_.busy()) {
    InFlight& f = tx_queue_.front();
    Flit flit;
    flit.packet_id = f.packet.id;
    flit.dst = f.packet.dst;
    flit.head = (f.flits_left == f.flits_total);
    flit.tail = (f.flits_left == 1);
    if (flit.head) flit.header = f.packet;
    to_router_.put(flit, now);
    --credits_;
    --f.flits_left;
    if (f.flits_left == 0) tx_queue_.pop_front();
  }

  // Receive: drain at most one flit per cycle from the router local output.
  if (auto flit = from_router_.take(now)) {
    from_router_.put_credit(now);
    if (flit->head) {
      InFlight f;
      f.packet = flit->header;  // header rides in the head flit
      f.flits_total = 0;        // unknown until tail
      rx_partial_.push_back(std::move(f));
    }
    // Find the partial packet this flit belongs to.
    auto it = std::find_if(rx_partial_.begin(), rx_partial_.end(),
                           [&](const InFlight& p) {
                             return p.packet.id == flit->packet_id;
                           });
    IOGUARD_CHECK_MSG(it != rx_partial_.end(), "body flit without head");
    if (flit->tail) {
      Packet done = it->packet;
      rx_partial_.erase(it);
      done.delivered_at = now;
      if (on_delivery_) on_delivery_(done, now);
    }
  }
}

Mesh::Mesh(const MeshConfig& config) : config_(config) {
  IOGUARD_CHECK(config.width > 0 && config.height > 0);
  const auto n = node_count();
  auto to_xy = [this](NodeId id) { return xy_of(id); };

  routers_.reserve(n);
  nics_.reserve(n);
  router_awake_.assign(n, 0);
  nic_awake_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    routers_.push_back(std::make_unique<Router>(
        xy_of(id), RouterConfig{config_.fifo_depth}, to_xy));
    nics_.push_back(
        std::make_unique<Nic>(id, config_.flit_bytes, config_.fifo_depth));
  }

  // Wire NIC <-> router local ports. The NIC owns both links.
  for (std::size_t i = 0; i < n; ++i) {
    Router& r = *routers_[i];
    Nic& nic = *nics_[i];
    r.connect_in(Port::kLocal, nic.to_router());
    r.connect_out(Port::kLocal, nic.from_router(),
                  static_cast<std::uint32_t>(nic.fifo_depth()));
    nic.to_router()->set_wake_flag(&router_awake_[i]);
    nic.from_router()->set_wake_flag(&nic_awake_[i]);
  }

  // Wire inter-router links (bidirectional neighbours).
  auto wire = [&](NodeId a, Port ap, NodeId b, Port bp) {
    links_.push_back(std::make_unique<Link>());
    Link* ab = links_.back().get();
    routers_[a.value]->connect_out(
        ap, ab, static_cast<std::uint32_t>(config_.fifo_depth));
    routers_[b.value]->connect_in(bp, ab);
    ab->set_wake_flag(&router_awake_[b.value]);
  };
  for (int y = 0; y < config_.height; ++y) {
    for (int x = 0; x < config_.width; ++x) {
      const NodeId here = node_at(x, y);
      if (x + 1 < config_.width) {
        const NodeId east = node_at(x + 1, y);
        wire(here, Port::kEast, east, Port::kWest);
        wire(east, Port::kWest, here, Port::kEast);
      }
      if (y + 1 < config_.height) {
        const NodeId south = node_at(x, y + 1);
        wire(here, Port::kSouth, south, Port::kNorth);
        wire(south, Port::kNorth, here, Port::kSouth);
      }
    }
  }

  // Default delivery handler counts the delivery.
  for (std::size_t i = 0; i < n; ++i)
    nics_[i]->set_delivery_handler(
        [this](const Packet&, Cycle) { ++delivered_; });
}

NodeId Mesh::node_at(int x, int y) const {
  IOGUARD_CHECK(x >= 0 && x < config_.width && y >= 0 && y < config_.height);
  return NodeId{static_cast<std::uint32_t>(y * config_.width + x)};
}

XY Mesh::xy_of(NodeId node) const {
  IOGUARD_CHECK(node.value < node_count());
  return XY{static_cast<int>(node.value) % config_.width,
            static_cast<int>(node.value) / config_.width};
}

void Mesh::send(Packet packet, Cycle now) {
  IOGUARD_CHECK(packet.src.value < node_count());
  IOGUARD_CHECK(packet.dst.value < node_count());
  if (packet.id == 0) packet.id = next_packet_id_++;
  nics_[packet.src.value]->send(packet, now);
  nic_awake_[packet.src.value] = 1;
}

void Mesh::set_delivery_handler(NodeId node, Nic::DeliveryHandler handler) {
  IOGUARD_CHECK(node.value < node_count());
  nics_[node.value]->set_delivery_handler(
      [this, handler = std::move(handler)](const Packet& p, Cycle now) {
        ++delivered_;
        handler(p, now);
      });
}

void Mesh::tick(Cycle now) {
  // Routers, then NICs, each in node order, as a dense tick of all of them
  // would go; a parked component's tick would change nothing (§15.4).
  const std::size_t n = node_count();
  for (std::size_t i = 0; i < n; ++i) {
    if (router_awake_[i] == 0) continue;
    Router& r = *routers_[i];
    r.tick(now);
    router_awake_[i] = !r.idle() || r.flit_inbound();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (nic_awake_[i] == 0) continue;
    Nic& nic = *nics_[i];
    nic.tick(now);
    nic_awake_[i] = !nic.parkable();
  }
}

Cycle Mesh::zero_load_latency(NodeId src, NodeId dst,
                              std::uint32_t payload_bytes) const {
  const XY a = xy_of(src);
  const XY b = xy_of(dst);
  const auto hops = static_cast<Cycle>(std::abs(a.x - b.x) + std::abs(a.y - b.y));
  const auto flits = static_cast<Cycle>(flits_for(payload_bytes, config_.flit_bytes));
  // Per hop: one link cycle + one router cycle; +1 NIC injection link,
  // +1 ejection; serialization adds (flits - 1).
  return 2 * (hops + 1) + (flits - 1);
}

void Mesh::set_fault_injector(faults::FaultInjector* injector) {
  for (std::size_t i = 0; i < routers_.size(); ++i)
    routers_[i]->set_fault_injector(injector, i);
}

std::uint64_t Mesh::packets_dropped() const {
  std::uint64_t total = 0;
  for (const auto& r : routers_) total += r->packets_dropped();
  return total;
}

}  // namespace ioguard::noc
