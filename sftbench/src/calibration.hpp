// Machine-speed probe for the host clock.
//
// A shared host's speed drifts by tens of percent over minutes (other
// tenants, frequency changes), which swamps the differences host metrics
// exist to show. The benchmark times this fixed probe beside its runs and
// scales each run's host times by kReferenceProbeS / (the probe's time
// right before and after that run), so a drift of the machine cancels
// while a change in the program does not. The probe shares no code with the program: making the program
// faster never makes the probe faster.
#pragma once

namespace sftbench {

/// The probe's time on the reference machine (a 4-core 2.0 GHz Xeon VM
/// with sha_ni, pclmulqdq and avx2); scaled host times are in that
/// machine's seconds.
inline constexpr double kReferenceProbeS = 0.009;

/// Runs one pass of the probe (hash-shaped word mixing, byte-table lookups
/// and a pointer chase through 8 MB) and returns its wall time in seconds.
[[nodiscard]] double probe_pass_s();

}  // namespace sftbench
