// EXP-UARCH -- micro-benchmarks of the hypervisor building blocks and the
// NoC substrate: priority-queue operations, scheduler decisions, sbf table
// construction, and cycle-level mesh packet latency under load.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/gsched.hpp"
#include "core/io_pool.hpp"
#include "core/priority_queue.hpp"
#include "noc/mesh.hpp"
#include "sched/sbf.hpp"
#include "sched/slot_table.hpp"

namespace {

using namespace ioguard;

workload::Job make_job(std::uint32_t id, Slot deadline, Slot wcet) {
  workload::Job j;
  j.id = JobId{id};
  j.task = TaskId{id};
  j.vm = VmId{0};
  j.device = DeviceId{0};
  j.absolute_deadline = deadline;
  j.wcet = wcet;
  j.payload_bytes = 16;
  return j;
}

void BM_PriorityQueueInsertRemove(benchmark::State& state) {
  const auto cap = static_cast<std::size_t>(state.range(0));
  core::HwPriorityQueue q(cap);
  Rng rng(1);
  std::uint32_t id = 0;
  for (auto _ : state) {
    if (q.full()) {
      const auto h = q.peek_earliest();
      q.remove(*h);
    }
    benchmark::DoNotOptimize(
        q.insert(make_job(id++, rng.uniform_int(1, 1 << 20), 1)));
  }
}
BENCHMARK(BM_PriorityQueueInsertRemove)->Arg(8)->Arg(32)->Arg(128);

void BM_PriorityQueuePeek(benchmark::State& state) {
  const auto cap = static_cast<std::size_t>(state.range(0));
  core::HwPriorityQueue q(cap);
  Rng rng(2);
  for (std::size_t i = 0; i < cap; ++i)
    (void)q.insert(make_job(static_cast<std::uint32_t>(i),
                            rng.uniform_int(1, 1 << 20), 1));
  for (auto _ : state) benchmark::DoNotOptimize(q.peek_earliest());
}
BENCHMARK(BM_PriorityQueuePeek)->Arg(8)->Arg(32)->Arg(128);

void BM_GschedPick(benchmark::State& state) {
  const auto vms = static_cast<std::size_t>(state.range(0));
  std::vector<sched::ServerParams> servers(vms, {16, 2});
  core::GSched g(servers);
  std::vector<core::ShadowRegister> shadows(vms);
  Rng rng(3);
  for (std::size_t i = 0; i < vms; ++i) {
    shadows[i].valid = true;
    shadows[i].absolute_deadline = rng.uniform_int(1, 1 << 20);
  }
  const std::uint64_t all = vms == 64 ? ~0ULL : (1ULL << vms) - 1;
  Slot now = 0;
  for (auto _ : state) benchmark::DoNotOptimize(g.pick(now++, shadows, all));
}
BENCHMARK(BM_GschedPick)->Arg(4)->Arg(16)->Arg(64);

void BM_SbfQuery(benchmark::State& state) {
  sched::TimeSlotTable t(static_cast<Slot>(state.range(0)));
  Rng rng(4);
  for (Slot s = 0; s < t.hyperperiod(); ++s)
    if (rng.bernoulli(0.4)) t.reserve(s, TaskId{0});
  sched::TableSupply supply(t);
  Slot q = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(supply.sbf(q));
    q = (q * 7 + 1) % (4 * t.hyperperiod());
  }
}
BENCHMARK(BM_SbfQuery)->Arg(100)->Arg(10000);

void BM_MeshPacket(benchmark::State& state) {
  noc::MeshConfig cfg;
  noc::Mesh mesh(cfg);
  Cycle now = 0;
  bool delivered = false;
  mesh.set_delivery_handler(mesh.node_at(4, 4),
                            [&](const noc::Packet&, Cycle) { delivered = true; });
  for (auto _ : state) {
    delivered = false;
    noc::Packet p;
    p.src = mesh.node_at(0, 0);
    p.dst = mesh.node_at(4, 4);
    p.payload_bytes = static_cast<std::uint32_t>(state.range(0));
    mesh.send(p, now);
    while (!delivered) mesh.tick(now++);
  }
  state.counters["cycles/packet"] = benchmark::Counter(
      static_cast<double>(now) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_MeshPacket)->Arg(16)->Arg(256)->Arg(1500);

void print_latency_table() {
  std::cout << "=== NoC latency vs background load (cycle-level mesh) ===\n";
  TextTable table({"background flows", "probe latency p50 (cycles)",
                   "p99 (cycles)", "max"});
  for (int flows : {0, 4, 8, 16}) {
    noc::MeshConfig cfg;
    noc::Mesh mesh(cfg);
    Rng rng(7);
    SampleSet probe_lat;
    mesh.set_delivery_handler(mesh.node_at(4, 2),
                              [&](const noc::Packet& p, Cycle) {
                                probe_lat.add(static_cast<double>(p.latency()));
                              });
    Cycle now = 0;
    for (int rep = 0; rep < 60; ++rep) {
      for (int f = 0; f < flows; ++f) {
        noc::Packet bg;
        bg.src = mesh.node_at(static_cast<int>(rng.index(5)),
                              static_cast<int>(rng.index(5)));
        bg.dst = mesh.node_at(static_cast<int>(rng.index(5)),
                              static_cast<int>(rng.index(5)));
        bg.kind = noc::PacketKind::kBackground;
        bg.payload_bytes = 256;
        mesh.send(bg, now);
      }
      noc::Packet probe;
      probe.src = mesh.node_at(0, 2);
      probe.dst = mesh.node_at(4, 2);
      probe.payload_bytes = 64;
      mesh.send(probe, now);
      for (int c = 0; c < 400; ++c) mesh.tick(now++);
    }
    table.add(flows, fmt_double(probe_lat.percentile(50), 0),
              fmt_double(probe_lat.percentile(99), 0),
              fmt_double(probe_lat.max(), 0));
  }
  table.render(std::cout);
  std::cout << "(the contention tail that motivates I/O-GUARD's dedicated "
               "processor-hypervisor links)\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  print_latency_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
