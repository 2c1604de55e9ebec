// Unit tests for the cycle-level wormhole mesh NoC.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "faults/injector.hpp"
#include "golden.hpp"
#include "noc/mesh.hpp"
#include "noc/packet.hpp"
#include "noc/router.hpp"

namespace ioguard::noc {
namespace {

TEST(Packet, FlitCount) {
  EXPECT_EQ(flits_for(0, 16), 1u);    // head only
  EXPECT_EQ(flits_for(1, 16), 2u);
  EXPECT_EQ(flits_for(16, 16), 2u);
  EXPECT_EQ(flits_for(17, 16), 3u);
  EXPECT_EQ(flits_for(1500, 16), 1u + 94u);
}

TEST(Routing, XyDimensionOrder) {
  EXPECT_EQ(route_xy({1, 1}, {3, 1}), Port::kEast);
  EXPECT_EQ(route_xy({1, 1}, {0, 2}), Port::kWest);  // x first
  EXPECT_EQ(route_xy({1, 1}, {1, 3}), Port::kSouth);
  EXPECT_EQ(route_xy({1, 1}, {1, 0}), Port::kNorth);
  EXPECT_EQ(route_xy({2, 2}, {2, 2}), Port::kLocal);
}

TEST(Link, OneCycleDelay) {
  Link link;
  Flit f;
  f.packet_id = 7;
  link.put(f, 10);
  EXPECT_FALSE(link.take(10).has_value());  // not visible same cycle
  auto got = link.take(11);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->packet_id, 7u);
  EXPECT_FALSE(link.take(12).has_value());  // consumed
}

TEST(Link, CreditsArriveNextCycle) {
  Link link;
  link.put_credit(5);
  link.put_credit(5);
  EXPECT_EQ(link.take_credits(5), 0u);
  EXPECT_EQ(link.take_credits(6), 2u);
  EXPECT_EQ(link.take_credits(7), 0u);
}

// Routers, NIC handlers and link wake flags point back into the mesh.
static_assert(!std::is_move_constructible_v<noc::Mesh>);
static_assert(!std::is_copy_constructible_v<noc::Mesh>);

class MeshFixture : public ::testing::Test {
 protected:
  MeshConfig cfg_{};
  void run(Mesh& mesh, Cycle cycles) {
    for (Cycle c = 0; c < cycles; ++c) mesh.tick(c);
  }
};

TEST_F(MeshFixture, SinglePacketDelivered) {
  Mesh mesh(cfg_);
  bool delivered = false;
  Packet seen;
  mesh.set_delivery_handler(mesh.node_at(4, 4),
                            [&](const Packet& p, Cycle) {
                              delivered = true;
                              seen = p;
                            });
  Packet p;
  p.src = mesh.node_at(0, 0);
  p.dst = mesh.node_at(4, 4);
  p.payload_bytes = 64;
  p.tag = 123;
  mesh.send(p, 0);
  run(mesh, 200);
  ASSERT_TRUE(delivered);
  EXPECT_EQ(seen.tag, 123u);
  EXPECT_GT(seen.latency(), 0u);
  EXPECT_TRUE(mesh.idle());
}

TEST_F(MeshFixture, ZeroLoadLatencyMatchesModel) {
  Mesh mesh(cfg_);
  Cycle measured = 0;
  mesh.set_delivery_handler(mesh.node_at(3, 2), [&](const Packet& p, Cycle) {
    measured = p.latency();
  });
  Packet p;
  p.src = mesh.node_at(0, 0);
  p.dst = mesh.node_at(3, 2);
  p.payload_bytes = 32;
  mesh.send(p, 0);
  run(mesh, 300);
  ASSERT_GT(measured, 0u);
  const Cycle predicted = mesh.zero_load_latency(p.src, p.dst, 32);
  // The closed form tracks the simulated pipeline within a couple of cycles.
  EXPECT_NEAR(static_cast<double>(measured), static_cast<double>(predicted),
              3.0);
}

TEST_F(MeshFixture, LocalDeliveryWorks) {
  Mesh mesh(cfg_);
  int count = 0;
  mesh.set_delivery_handler(mesh.node_at(2, 2),
                            [&](const Packet&, Cycle) { ++count; });
  Packet p;
  p.src = mesh.node_at(2, 2);
  p.dst = mesh.node_at(2, 2);
  p.payload_bytes = 4;
  mesh.send(p, 0);
  run(mesh, 50);
  EXPECT_EQ(count, 1);
}

TEST_F(MeshFixture, NoLossUnderRandomTraffic) {
  Mesh mesh(cfg_);
  Rng rng(99);
  std::map<std::uint64_t, int> outstanding;
  for (int n = 0; n < static_cast<int>(mesh.node_count()); ++n)
    mesh.set_delivery_handler(NodeId{static_cast<std::uint32_t>(n)},
                              [&](const Packet& p, Cycle) {
                                --outstanding[p.tag];
                              });
  std::uint64_t tag = 0;
  Cycle now = 0;
  for (int burst = 0; burst < 20; ++burst) {
    for (int i = 0; i < 10; ++i) {
      Packet p;
      p.src = NodeId{static_cast<std::uint32_t>(rng.index(mesh.node_count()))};
      p.dst = NodeId{static_cast<std::uint32_t>(rng.index(mesh.node_count()))};
      p.payload_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 256));
      p.tag = ++tag;
      ++outstanding[p.tag];
      mesh.send(p, now);
    }
    for (int c = 0; c < 50; ++c) mesh.tick(now++);
  }
  for (int c = 0; c < 5000 && !mesh.idle(); ++c) mesh.tick(now++);
  EXPECT_TRUE(mesh.idle());
  EXPECT_EQ(mesh.packets_delivered(), 200u);
  for (const auto& [t, n] : outstanding) EXPECT_EQ(n, 0) << "tag " << t;
}

TEST_F(MeshFixture, PerFlowOrderingPreserved) {
  // Wormhole + fixed XY routing: packets of one src->dst flow arrive in
  // injection order.
  Mesh mesh(cfg_);
  std::vector<std::uint64_t> arrivals;
  mesh.set_delivery_handler(mesh.node_at(4, 0), [&](const Packet& p, Cycle) {
    arrivals.push_back(p.tag);
  });
  Cycle now = 0;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    Packet p;
    p.src = mesh.node_at(0, 0);
    p.dst = mesh.node_at(4, 0);
    p.payload_bytes = 48;
    p.tag = i;
    mesh.send(p, now);
  }
  for (int c = 0; c < 2000; ++c) mesh.tick(now++);
  ASSERT_EQ(arrivals.size(), 10u);
  for (std::uint64_t i = 0; i < arrivals.size(); ++i)
    EXPECT_EQ(arrivals[i], i + 1);
}

TEST_F(MeshFixture, ContentionIncreasesLatency) {
  // Many flows crossing the mesh center raise latency above zero-load.
  Mesh idle_mesh(cfg_), busy_mesh(cfg_);
  Cycle now = 0;

  Packet probe;
  probe.src = idle_mesh.node_at(0, 2);
  probe.dst = idle_mesh.node_at(4, 2);
  probe.payload_bytes = 64;
  Cycle idle_lat = 0;
  idle_mesh.set_delivery_handler(
      probe.dst, [&](const Packet& p, Cycle) { idle_lat = p.latency(); });
  idle_mesh.send(probe, 0);
  for (int c = 0; c < 500; ++c) idle_mesh.tick(now++);
  ASSERT_GT(idle_lat, 0u);

  now = 0;
  Cycle busy_max = 0;
  busy_mesh.set_delivery_handler(probe.dst, [&](const Packet& p, Cycle) {
    busy_max = std::max(busy_max, p.latency());
  });
  // Background flows sharing the row-2 links.
  for (int i = 0; i < 12; ++i) {
    Packet bg;
    bg.src = busy_mesh.node_at(0, 2);
    bg.dst = busy_mesh.node_at(4, 2);
    bg.payload_bytes = 256;
    busy_mesh.send(bg, 0);
  }
  busy_mesh.send(probe, 0);
  for (int c = 0; c < 5000; ++c) busy_mesh.tick(now++);
  EXPECT_GT(busy_max, idle_lat * 3);
}

TEST(MeshConfigTest, NonSquareMeshWorks) {
  MeshConfig cfg;
  cfg.width = 3;
  cfg.height = 2;
  Mesh mesh(cfg);
  int got = 0;
  mesh.set_delivery_handler(mesh.node_at(2, 1),
                            [&](const Packet&, Cycle) { ++got; });
  Packet p;
  p.src = mesh.node_at(0, 0);
  p.dst = mesh.node_at(2, 1);
  p.payload_bytes = 8;
  mesh.send(p, 0);
  for (Cycle c = 0; c < 100; ++c) mesh.tick(c);
  EXPECT_EQ(got, 1);
}

/// One 5x5 run under kLinkFlitLoss: bursts of random traffic separated by
/// quiet stretches, so routers drop whole packets mid-wormhole, contend,
/// drain and sit idle. Each cycle sends that cycle's packets in the order
/// they were drawn, then ticks the mesh, then counts the cycle busy or
/// quiescent by whether the mesh is idle. Returns the mesh's counters as
/// text, then the latency samples and the delivery log (cycle, node, packet
/// id) that the delivery handlers record.
std::string flit_loss_run_bytes() {
  Mesh mesh(MeshConfig{});
  std::vector<Cycle> latencies;
  std::ostringstream deliveries;
  for (std::uint32_t n = 0; n < mesh.node_count(); ++n)
    mesh.set_delivery_handler(NodeId{n}, [&, n](const Packet& p, Cycle now) {
      latencies.push_back(p.latency());
      deliveries << "delivery " << now << ' ' << n << ' ' << p.id << '\n';
    });
  faults::FaultPlan plan;
  plan.events.push_back({faults::FaultKind::kLinkFlitLoss, 0.04, 0});
  faults::FaultInjector injector(plan, /*trial_seed=*/23);
  mesh.set_fault_injector(&injector);

  constexpr Cycle kLastCycle = 20000;
  std::vector<std::vector<Packet>> sends(kLastCycle + 1);
  Rng rng(4242);
  for (Cycle burst = 0; burst < 12; ++burst) {
    for (int i = 0; i < 60; ++i) {
      Packet p;
      p.src = NodeId{static_cast<std::uint32_t>(rng.index(mesh.node_count()))};
      p.dst = NodeId{static_cast<std::uint32_t>(rng.index(mesh.node_count()))};
      p.payload_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 200));
      (void)rng.index(4);  // unused draw, kept so the golden stream holds
      sends.at(burst * 1500 + rng.index(300)).push_back(p);
    }
  }
  std::uint64_t busy = 0;
  std::uint64_t quiescent = 0;
  for (Cycle c = 0; c <= kLastCycle; ++c) {
    for (const Packet& p : sends[c]) mesh.send(p, c);
    mesh.tick(c);
    if (mesh.idle()) {
      ++quiescent;
    } else {
      ++busy;
    }
  }

  std::ostringstream os;
  os << std::hexfloat << "delivered " << mesh.packets_delivered()
     << " dropped " << mesh.packets_dropped() << " idle " << mesh.idle()
     << '\n';
  os << "busy " << busy << " stall 0 quiescent " << quiescent << "\nlatency";
  for (const Cycle x : latencies) os << ' ' << static_cast<double>(x);
  os << '\n' << deliveries.str();
  return os.str();
}

TEST(MeshGolden, FlitLossRunCountersAndLatencies) {
  // Covers the router drop path (whole-packet loss with credit return) under
  // round-robin arbitration; pins the bytes across mesh optimisations.
  const std::string bytes = "round-robin\n" + flit_loss_run_bytes();
  ioguard::testing::expect_matches_golden("mesh_flit_loss_golden.txt", bytes);
}

/// Relay chains on a 5x5 mesh, in two bursts with a quiet stretch between:
/// each delivery sends its chain's next packet from inside the delivery
/// callback, from a node before or after the delivering one in node order.
/// Returns the delivery log (cycle, node, tag) and the latency samples.
std::string relay_run_bytes() {
  Mesh mesh(MeshConfig{});
  const auto nodes = static_cast<std::uint32_t>(mesh.node_count());
  std::ostringstream os;
  std::vector<Cycle> latencies;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    mesh.set_delivery_handler(
        NodeId{n},
        [&mesh, &os, &latencies, n, nodes](const Packet& p, Cycle now) {
          latencies.push_back(p.latency());
          os << now << ' ' << n << ' ' << p.tag << '\n';
          if (p.tag % 16 == 0) return;  // end of the chain
          Packet next;
          next.src =
              NodeId{static_cast<std::uint32_t>((n + 7 + p.tag) % nodes)};
          next.dst =
              NodeId{static_cast<std::uint32_t>((n * 3 + p.tag) % nodes)};
          next.payload_bytes = static_cast<std::uint32_t>(16 * (p.tag % 5));
          next.tag = p.tag - 1;
          mesh.send(next, now);
        });
  }
  Cycle now = 0;
  for (std::uint64_t chain = 0; chain < 6; ++chain) {
    if (chain == 3) {
      for (; now < 3000; ++now) mesh.tick(now);
    }
    Packet first;
    first.src = NodeId{static_cast<std::uint32_t>((chain * 11) % nodes)};
    first.dst = NodeId{static_cast<std::uint32_t>((chain * 5 + 3) % nodes)};
    first.payload_bytes = 48;
    first.tag = chain * 16 + 15;
    mesh.send(first, now);
  }
  for (; now < 6000; ++now) mesh.tick(now);
  os << std::hexfloat << "delivered " << mesh.packets_delivered() << " idle "
     << mesh.idle() << "\nlatency";
  for (const Cycle x : latencies) os << ' ' << static_cast<double>(x);
  os << '\n';
  return os.str();
}

TEST(MeshGolden, RelaySendsFromDeliveryCallbacks) {
  ioguard::testing::expect_matches_golden("mesh_relay_golden.txt",
                                          relay_run_bytes());
}

}  // namespace
}  // namespace ioguard::noc
