// Output of one benchmark invocation: a readable table per metric group,
// a facts line (manifest, build, host), and the final one-line JSON result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sftbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Printed beside the value (clock, source, sample count or base).
  std::string note;
};

/// Prints `metrics` as an aligned table under `title`.
void print_table(const std::string& title, const std::vector<Metric>& metrics);

/// {"compiler":..,"build_type":..,"cxx_flags":..}: facts from the build
/// system that compiled this binary.
[[nodiscard]] std::string build_facts_json();

/// {"cpu_model":..,"nproc":..,"sha_ni":..,"pclmulqdq":..,"avx2":..}, read
/// from /proc/cpuinfo.
[[nodiscard]] std::string host_facts_json();

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

/// `text` as a JSON string literal.
[[nodiscard]] std::string json_string(const std::string& text);

}  // namespace sftbench
