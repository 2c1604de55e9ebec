// Input-buffered wormhole router with XY dimension-order routing,
// round-robin output arbitration and credit-based flow control.
//
// Port model: five ports (N, E, S, W, Local). Each input port has a flit
// FIFO; each output port is allocated to at most one input from the head
// flit of a packet until its tail flit passes (wormhole). Credits track the
// downstream input FIFO's free space; a flit moves only when a credit is
// available. Links (including the local NIC link) add one cycle.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "faults/injector.hpp"
#include "noc/packet.hpp"

namespace ioguard::noc {

enum class Port : std::uint8_t { kNorth = 0, kEast, kSouth, kWest, kLocal };
inline constexpr std::size_t kPortCount = 5;

/// One-cycle link between an upstream output and a downstream input. Flits
/// written at cycle t become visible downstream at t+1. Credits travel the
/// same way in the opposite direction. The wire is free for the next flit
/// once downstream takes the last one, so the tick order of the two ends
/// decides whether upstream may send again in the same cycle.
class Link {
 public:
  /// Upstream writes a flit onto the wire at cycle `now` and raises the
  /// wake flag, if one is attached.
  void put(Flit flit, Cycle now);

  /// Flag put() raises for the component at the receiving end (owned by
  /// the Mesh, which parks idle routers and NICs; null when standalone).
  void set_wake_flag(std::uint8_t* flag) { wake_ = flag; }

  /// Downstream takes the flit if one arrived by `now`.
  [[nodiscard]] std::optional<Flit> take(Cycle now);

  /// Downstream returns a credit at cycle `now`.
  void put_credit(Cycle now);

  /// Upstream collects arrived credits (count).
  [[nodiscard]] std::uint32_t take_credits(Cycle now);

  [[nodiscard]] bool busy() const { return flit_.has_value(); }

 private:
  std::optional<Flit> flit_;
  std::uint8_t* wake_ = nullptr;
  Cycle flit_arrival_ = 0;
  // Credits in flight: (arrival cycle, count) pairs collapse to two buckets
  // because latency is exactly one cycle.
  std::uint32_t credits_now_ = 0;
  std::uint32_t credits_next_ = 0;
  Cycle credit_epoch_ = 0;
  void roll_credits(Cycle now);
};

/// Coordinates of a node in the mesh.
struct XY {
  int x = 0;
  int y = 0;
  friend bool operator==(XY, XY) = default;
};

/// XY dimension-order routing: returns the output port toward `dst`.
[[nodiscard]] Port route_xy(XY here, XY dst);

struct RouterConfig {
  std::size_t fifo_depth = 8;  ///< input FIFO capacity, flits
};

/// One mesh router. Wiring: for each port, an optional inbound Link (flits
/// toward us; we send credits back on it) and an optional outbound Link.
class Router {
 public:
  Router(XY position, const RouterConfig& config,
         std::function<XY(NodeId)> node_to_xy);

  /// Connects the inbound side of `port` (flits arrive here).
  void connect_in(Port port, Link* link);

  /// Connects the outbound side of `port`. `downstream_capacity` initializes
  /// the credit counter (the downstream input FIFO depth).
  void connect_out(Port port, Link* link, std::uint32_t downstream_capacity);

  void tick(Cycle now);

  [[nodiscard]] XY position() const { return pos_; }

  /// True when all FIFOs are empty and no output is mid-packet.
  [[nodiscard]] bool idle() const;

  /// A flit waits on an inbound wire for this router to take it.
  [[nodiscard]] bool flit_inbound() const;

  /// Attaches a fault injector (not owned); `site` keys this router's
  /// kLinkFlitLoss stream. A fired fault eats a *whole packet* on arrival
  /// (head through tail), returning upstream credits for every eaten flit --
  /// dropping only the head would wedge the wormhole behind orphaned body
  /// flits.
  void set_fault_injector(faults::FaultInjector* injector, std::size_t site) {
    injector_ = injector;
    fault_site_ = site;
  }

  [[nodiscard]] std::uint64_t packets_dropped() const {
    return packets_dropped_;
  }

 private:
  struct Input {
    Link* link = nullptr;
    RingBuffer<Flit> fifo;
    bool dropping = false;  ///< mid-drop: eat flits until this packet's tail
    explicit Input(std::size_t depth) : fifo(depth) {}
  };
  struct Output {
    Link* link = nullptr;
    std::uint32_t credits = 0;
    std::optional<std::size_t> owner;  ///< input index holding the port
    std::size_t rr_next = 0;           ///< round-robin scan start
  };

  [[nodiscard]] Port output_for(const Flit& flit) const;

  XY pos_;
  std::function<XY(NodeId)> node_to_xy_;
  std::vector<Input> inputs_;
  std::array<Output, kPortCount> outputs_;
  faults::FaultInjector* injector_ = nullptr;
  std::size_t fault_site_ = 0;
  std::uint64_t packets_dropped_ = 0;

  void drop_flit(Input& in, const Flit& flit, Cycle now);
};

}  // namespace ioguard::noc
