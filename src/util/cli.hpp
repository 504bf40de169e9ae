// Minimal command-line flag parsing for the examples and table benches.
//
// Supports flags of the form `--name value` and `--name=value`; anything
// else is rejected with InputError so typos surface immediately.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rbpc {

class CliArgs {
 public:
  /// Parses argv; throws InputError on malformed flags.
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& default_value) const;
  std::int64_t get_int(const std::string& name, std::int64_t default_value) const;
  std::uint64_t get_uint(const std::string& name,
                         std::uint64_t default_value) const;
  double get_double(const std::string& name, double default_value) const;
  bool get_bool(const std::string& name, bool default_value) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace rbpc
