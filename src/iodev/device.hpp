// Physical I/O devices as the hypervisor sees them.
//
// The case study's data plane matches the paper: raw inputs arrive over
// Ethernet and results leave over FlexRay; safety peripherals sit on CAN /
// SPI. A job's service demand comes from the task table (the automotive
// database's io_demand_us, in slots), not from a model of the device's
// link, so a device carries only its name.
#pragma once

#include <string>

namespace ioguard::iodev {

struct DeviceSpec {
  std::string name;  ///< e.g. "eth0"; names the device in diagnostics
};

}  // namespace ioguard::iodev
