// Automotive case-study task database (Sec. V-C).
//
// The paper selects 20 safety tasks from the Renesas automotive use-case
// database and 20 function tasks from the EEMBC AutoBench suite, with WCETs
// obtained by hybrid measurement. Those parameter tables are not published;
// this module reconstructs them from the suites' public characteristics
// (automotive rate classes 1..1000 ms, payload sizes of the named kernels)
// with deterministic values, so experiments are reproducible byte-for-byte.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "workload/task.hpp"

namespace ioguard::workload {

/// Canonical device roles in the case study. Raw input data arrives via
/// Ethernet (1 Gbps) and results leave via FlexRay (10 Mbps); safety I/O
/// also touches CAN and SPI peripherals.
enum class CaseStudyDevice : std::uint32_t {
  kEthernet = 0,
  kFlexRay = 1,
  kCan = 2,
  kSpi = 3,
};
inline constexpr std::size_t kCaseStudyDeviceCount = 4;

[[nodiscard]] constexpr DeviceId device_id(CaseStudyDevice d) {
  return DeviceId{static_cast<std::uint32_t>(d)};
}

/// One row of the reconstructed benchmark table.
struct AutomotiveEntry {
  std::string_view name;
  TaskClass cls;
  CaseStudyDevice device;
  std::uint32_t period_ms;      ///< automotive rate class
  std::uint32_t io_demand_us;   ///< per-job I/O service demand
  std::uint32_t payload_bytes;  ///< payload moved per job
};

/// The 20 safety + 20 function entries (40 total), in a stable order.
[[nodiscard]] const std::vector<AutomotiveEntry>& automotive_entries();

}  // namespace ioguard::workload
