#include "system/cosim.hpp"

#include <map>
#include <memory>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "noc/mesh.hpp"
#include "system/runner.hpp"
#include "system/stages.hpp"
#include "workload/arrivals.hpp"

namespace ioguard::sys {

CosimResult run_cosim(const CosimConfig& config) {
  // ---- Workload (same builder as the analytic runner). -------------------
  const TrialSeeds seeds =
      seed_trial(config.kind, config.workload, config.seed);
  const auto wl = workload::build_case_study(seeds.workload);

  workload::ArrivalConfig arr;
  arr.horizon = config.horizon_slots;
  arr.seed = seeds.arrival_seed;
  const auto trace = workload::generate_trace(wl.tasks, arr);

  std::vector<workload::TaskClass> task_class(wl.tasks.size());
  for (const auto& t : wl.tasks.tasks()) task_class[t.id.value] = t.cls;
  auto is_critical = [&](TaskId id) {
    return task_class[id.value] != workload::TaskClass::kSynthetic;
  };

  // ---- Platform: 5x5 mesh; VMs row-major from node 0, devices on the last
  // row (nodes 20..23), mirroring the paper's floorplan. -------------------
  noc::MeshConfig mesh_cfg;
  noc::Mesh mesh(mesh_cfg);
  const std::size_t num_vms = seeds.workload.num_vms;
  IOGUARD_CHECK_MSG(num_vms <= 16, "co-sim floorplan hosts up to 16 VMs");
  auto vm_node = [&](VmId vm) {
    return NodeId{static_cast<std::uint32_t>(vm.value)};
  };
  auto device_node = [&](DeviceId dev) {
    return NodeId{static_cast<std::uint32_t>(20 + dev.value)};
  };

  const Calibration& cal = config.cal;
  const Cycle cps = cal.cycles_per_slot;

  // ---- Back-ends, built as run_trial builds them. -------------------------
  // The FIFO bank sits behind the device nodes; only the baselines send it
  // request packets.
  iodev::FifoBank fifos = fifo_bank(cal, nullptr);
  std::unique_ptr<core::Hypervisor> hyp;
  if (config.kind == SystemKind::kIoGuard)
    hyp = std::make_unique<core::Hypervisor>(wl,
                                             hypervisor_config(cal, num_vms));

  std::vector<IssueStage> issue;
  for (std::size_t v = 0; v < num_vms; ++v)
    issue.emplace_back(issue_cycles(cal, config.kind), cps);
  std::unique_ptr<VmmStage> vmm;
  if (config.kind == SystemKind::kRtXen)
    vmm = std::make_unique<VmmStage>(cal, num_vms, config.seed ^ 0xabc);

  // ---- Accounting. --------------------------------------------------------
  CosimResult result;
  struct Outcome {
    Slot deadline = 0;
    bool counted = false;
    bool critical = false;
    bool on_time = false;
    Slot release = 0;
  };
  std::vector<Outcome> outcomes(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& j = trace[i];
    const bool pchannel_job = hyp && hyp->pchannel_task(j.task);
    outcomes[i].deadline = j.absolute_deadline;
    outcomes[i].counted =
        !pchannel_job && j.absolute_deadline <= config.horizon_slots;
    outcomes[i].critical = is_critical(j.task);
    outcomes[i].release = j.release;
  }
  auto record_final = [&](const workload::Job& j, Slot finish) {
    if (j.id.value >= outcomes.size()) return;  // P-channel synthetic id
    Outcome& o = outcomes[j.id.value];
    if (!o.counted) return;
    if (finish <= o.deadline) o.on_time = true;
    if (o.critical)
      result.response_slots.add(static_cast<double>(finish - o.release));
  };

  // In-flight jobs keyed by packet tag (== trace job id).
  std::map<std::uint64_t, workload::Job> in_flight;

  // Request packets deliver into their job's device FIFO (a request travels
  // to its job's device node) / pending response packets deliver back to
  // the VM nodes.
  for (std::size_t d = 0; d < workload::kCaseStudyDeviceCount; ++d) {
    mesh.set_delivery_handler(
        device_node(DeviceId{static_cast<std::uint32_t>(d)}),
        [&](const noc::Packet& p, Cycle now) {
          if (p.kind != noc::PacketKind::kIoRequest) return;
          result.request_latency_cycles.add(static_cast<double>(p.latency()));
          const auto it = in_flight.find(p.tag);
          IOGUARD_CHECK(it != in_flight.end());
          const Slot slot = now / cps;
          if (!fifos.submit(it->second, slot)) ++result.dropped;
        });
  }
  for (std::size_t v = 0; v < num_vms; ++v) {
    mesh.set_delivery_handler(
        vm_node(VmId{static_cast<std::uint32_t>(v)}),
        [&](const noc::Packet& p, Cycle now) {
          if (p.kind != noc::PacketKind::kIoResponse) return;
          const auto it = in_flight.find(p.tag);
          IOGUARD_CHECK(it != in_flight.end());
          record_final(it->second, now / cps + 1);
          in_flight.erase(it);
        });
  }

  // ---- Main cycle loop. ----------------------------------------------------
  Rng bg_rng(config.seed ^ 0x5151);
  std::vector<workload::Job> issued, vmm_done;
  std::vector<iodev::Completion> completions;
  std::size_t next_release = 0;
  const Cycle horizon_cycles = static_cast<Cycle>(config.horizon_slots) * cps;

  // Every cycle runs: (d) makes one Bernoulli draw per VM node per cycle, so
  // skipping cycles would shift bg_rng's stream and change the result bytes.
  // The mesh parks its own idle routers and NICs (DESIGN.md §15.4).
  // IOGUARD_LINT_ALLOW(LNT009: one background draw per VM node per cycle; skipped cycles would change the RNG stream and so the bytes)
  for (Cycle now = 0; now < horizon_cycles; ++now) {
    if (now % cps == 0) {
      const Slot slot = now / cps;

      // (a) releases into the per-VM issue stages.
      while (next_release < trace.size() &&
             trace[next_release].release <= slot) {
        const auto& j = trace[next_release++];
        const bool pchannel_job = hyp && hyp->pchannel_task(j.task);
        if (!pchannel_job) issue[j.vm.value].push(j);
      }

      // (b) issue; requests become packets (baselines) or direct submits.
      issued.clear();
      for (auto& stage : issue) stage.tick_slot(issued);
      if (vmm) {
        for (const auto& j : issued) vmm->push(j, slot);
        issued.clear();
        vmm->tick_slot(slot, issued);
      }
      for (const auto& j : issued) {
        if (hyp) {
          if (!hyp->submit(j, slot)) ++result.dropped;
        } else {
          in_flight[j.id.value] = j;
          noc::Packet p;
          p.src = vm_node(j.vm);
          p.dst = device_node(j.device);
          p.kind = noc::PacketKind::kIoRequest;
          p.payload_bytes = 32;  // command descriptor
          p.tag = j.id.value;
          mesh.send(p, now);
        }
      }

      // (c) back-ends advance one slot; completions return as packets
      //     (baselines) or complete directly (I/O-GUARD's pass-through
      //     response channel + dedicated link).
      completions.clear();
      if (hyp) {
        hyp->tick_slot(slot, completions);
        for (const auto& done : completions)
          record_final(done.job, done.completed_at);
      } else {
        fifos.tick_slot(slot, completions);
        for (const auto& done : completions) {
          noc::Packet p;
          p.src = device_node(done.job.device);
          p.dst = vm_node(done.job.vm);
          p.kind = noc::PacketKind::kIoResponse;
          p.payload_bytes = done.job.payload_bytes;
          p.tag = done.job.id.value;
          mesh.send(p, now);
        }
      }
    }

    // (d) background traffic (memory/kernel packets sharing the mesh).
    if (config.background_rate > 0.0) {
      for (std::uint32_t n = 0; n < num_vms; ++n) {
        if (bg_rng.bernoulli(config.background_rate)) {
          noc::Packet p;
          p.src = NodeId{n};
          p.dst = NodeId{static_cast<std::uint32_t>(
              16 + bg_rng.index(4))};  // memory nodes on row 3
          p.kind = noc::PacketKind::kBackground;
          p.payload_bytes = 64;
          mesh.send(p, now);
        }
      }
    }

    mesh.tick(now);
  }

  // ---- Tally. ---------------------------------------------------------------
  for (const auto& o : outcomes) {
    if (!o.counted) continue;
    ++result.jobs_counted;
    if (o.on_time) {
      ++result.jobs_on_time;
    } else if (o.critical) {
      ++result.critical_misses;
    }
  }
  result.noc_packets_delivered = mesh.packets_delivered();
  return result;
}

}  // namespace ioguard::sys
