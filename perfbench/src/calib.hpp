// A fixed reference computation that host-time metrics are scaled by.
//
// On the host this benchmark was built on, the simulator slows by up to half
// for seconds to minutes at a time, per processor and across the machine,
// while simple loops barely move. This switch-dispatch interpreter (48
// opcodes over a 32 KiB bytecode table and a 64 KiB data array) slows with
// those phases in part: window correlation about 0.9 with the simulator, and
// half of the run-to-run drift. It is frozen: it shares no code with the
// simulator, so a simulator change moves the scaled metrics as much as the
// raw ones, and changing this loop would rescale every host metric.
#pragma once

namespace perfbench {

/// About the steps per second the reference loop ran at on that host. Host
/// metrics are reported as if every window had run at this rate.
inline constexpr double kReferenceRate = 50e6;

/// Steps per second of the reference loop on the calling thread now (about
/// 4 ms of work).
double calibration_rate();

}  // namespace perfbench
