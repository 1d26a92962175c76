#include "report.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace sftbench {

namespace {

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

bool has_flag(const std::string& flags, const std::string& flag) {
  std::istringstream words(flags);
  std::string word;
  while (words >> word) {
    if (word == flag) return true;
  }
  return false;
}

}  // namespace

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("-- %s --\n", title.c_str());
  for (const Metric& metric : metrics) {
    std::printf("  %-34s %16.6g %-6s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
  }
}

std::string build_facts_json() {
  return std::string("{\"compiler\":") + json_string(SFTBENCH_COMPILER) +
         ",\"build_type\":" + json_string(SFTBENCH_BUILD_TYPE) +
         ",\"cxx_flags\":" + json_string(SFTBENCH_CXX_FLAGS) + "}";
}

std::string host_facts_json() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  std::string model = "unknown";
  std::string flags;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = value;
    if (key == "flags" && flags.empty()) flags = value;
  }
  const auto flag = [&](const char* name) {
    return has_flag(flags, name) ? "true" : "false";
  };
  return "{\"cpu_model\":" + json_string(model) +
         ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"sha_ni\":" + flag("sha_ni") + ",\"pclmulqdq\":" + flag("pclmulqdq") +
         ",\"avx2\":" + flag("avx2") + "}";
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_string(metrics[i].name) +
           ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace sftbench
