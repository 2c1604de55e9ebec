#include "workload/automotive.hpp"

namespace ioguard::workload {

namespace {

// Period classes follow automotive rate groups; I/O demand is the slot-level
// device occupancy per job (in microseconds; 1 slot = 10 us at the default
// mapping, so demands are multiples of 10 us).
//
// Safety tasks (Renesas automotive use cases): watchdog, CRC integrity,
// cryptographic attestation, sensor guards -- short payloads on
// CAN / SPI / FlexRay.
//
// Function tasks (EEMBC AutoBench): signal-processing kernels fed by the
// 1 Gbps Ethernet stream, larger payloads.
const std::vector<AutomotiveEntry> kEntries = {
    // --- 20 safety tasks (Renesas) ------------------------------------
    {"crc32_frame_guard", TaskClass::kSafety, CaseStudyDevice::kCan, 5, 40, 64},
    {"rsa32_attest", TaskClass::kSafety, CaseStudyDevice::kSpi, 100, 800, 128},
    {"aes128_mac", TaskClass::kSafety, CaseStudyDevice::kSpi, 50, 400, 128},
    {"secure_watchdog", TaskClass::kSafety, CaseStudyDevice::kSpi, 10, 30, 8},
    {"brake_pressure_guard", TaskClass::kSafety, CaseStudyDevice::kCan, 5, 50, 32},
    {"steer_angle_guard", TaskClass::kSafety, CaseStudyDevice::kCan, 5, 50, 32},
    {"airbag_arm_check", TaskClass::kSafety, CaseStudyDevice::kCan, 10, 60, 16},
    {"battery_cell_monitor", TaskClass::kSafety, CaseStudyDevice::kSpi, 20, 120, 64},
    {"lidar_sync_pulse", TaskClass::kSafety, CaseStudyDevice::kSpi, 10, 40, 16},
    {"radar_self_test", TaskClass::kSafety, CaseStudyDevice::kSpi, 100, 500, 256},
    {"ecu_heartbeat", TaskClass::kSafety, CaseStudyDevice::kFlexRay, 10, 110, 32},
    {"flexray_sync_guard", TaskClass::kSafety, CaseStudyDevice::kFlexRay, 20, 160, 64},
    {"door_lock_confirm", TaskClass::kSafety, CaseStudyDevice::kCan, 50, 90, 16},
    {"seatbelt_sensor_poll", TaskClass::kSafety, CaseStudyDevice::kCan, 25, 70, 16},
    {"throttle_plausibility", TaskClass::kSafety, CaseStudyDevice::kCan, 5, 60, 32},
    {"abs_wheel_pulse", TaskClass::kSafety, CaseStudyDevice::kCan, 5, 50, 16},
    {"esc_yaw_guard", TaskClass::kSafety, CaseStudyDevice::kCan, 10, 80, 32},
    {"fuel_cutoff_check", TaskClass::kSafety, CaseStudyDevice::kSpi, 50, 200, 32},
    {"crash_recorder_flush", TaskClass::kSafety, CaseStudyDevice::kSpi, 100, 600, 512},
    {"temp_overrun_guard", TaskClass::kSafety, CaseStudyDevice::kSpi, 25, 100, 16},

    // --- 20 function tasks (EEMBC AutoBench) ---------------------------
    {"fft_radar_256", TaskClass::kFunction, CaseStudyDevice::kEthernet, 10, 250, 1024},
    {"ifft_radar_256", TaskClass::kFunction, CaseStudyDevice::kEthernet, 10, 250, 1024},
    {"fir_lane_filter", TaskClass::kFunction, CaseStudyDevice::kEthernet, 5, 120, 512},
    {"iir_suspension", TaskClass::kFunction, CaseStudyDevice::kEthernet, 10, 150, 512},
    {"speed_calc", TaskClass::kFunction, CaseStudyDevice::kEthernet, 5, 80, 256},
    {"angle_to_time", TaskClass::kFunction, CaseStudyDevice::kEthernet, 5, 70, 128},
    {"tooth_to_spark", TaskClass::kFunction, CaseStudyDevice::kEthernet, 5, 100, 128},
    {"road_speed_lookup", TaskClass::kFunction, CaseStudyDevice::kEthernet, 10, 90, 256},
    {"table_interp_engine", TaskClass::kFunction, CaseStudyDevice::kEthernet, 10, 110, 512},
    {"can_msg_router", TaskClass::kFunction, CaseStudyDevice::kCan, 5, 60, 64},
    {"matrix_ctrl_3x3", TaskClass::kFunction, CaseStudyDevice::kEthernet, 20, 200, 1024},
    {"pointer_chase_diag", TaskClass::kFunction, CaseStudyDevice::kEthernet, 50, 300, 1500},
    {"pulse_width_mod", TaskClass::kFunction, CaseStudyDevice::kSpi, 10, 100, 64},
    {"bit_manip_status", TaskClass::kFunction, CaseStudyDevice::kEthernet, 20, 150, 256},
    {"cache_buster_log", TaskClass::kFunction, CaseStudyDevice::kEthernet, 100, 400, 1500},
    {"idct_video_8x8", TaskClass::kFunction, CaseStudyDevice::kEthernet, 20, 250, 1500},
    {"rgb_to_yiq_conv", TaskClass::kFunction, CaseStudyDevice::kEthernet, 25, 250, 1500},
    {"infotainment_mix", TaskClass::kFunction, CaseStudyDevice::kEthernet, 50, 300, 1500},
    {"telemetry_pack", TaskClass::kFunction, CaseStudyDevice::kFlexRay, 25, 260, 128},
    {"diag_result_tx", TaskClass::kFunction, CaseStudyDevice::kFlexRay, 50, 420, 256},
};

}  // namespace

const std::vector<AutomotiveEntry>& automotive_entries() { return kEntries; }

}  // namespace ioguard::workload
