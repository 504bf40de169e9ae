#include "util/cli.hpp"

#include <charconv>
#include <cstdlib>

#include "util/error.hpp"

namespace rbpc {

CliArgs::CliArgs(int argc, const char* const* argv) {
  require(argc >= 1, "CliArgs: argc must be at least 1");
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw InputError("unexpected positional argument: " + arg);
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";  // bare flag
    }
  }
}

bool CliArgs::has(const std::string& name) const { return values_.contains(name); }

std::string CliArgs::get_string(const std::string& name,
                                const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  std::int64_t out = 0;
  const auto& s = it->second;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    throw InputError("flag --" + name + " expects an integer, got '" + s + "'");
  }
  return out;
}

std::uint64_t CliArgs::get_uint(const std::string& name,
                                std::uint64_t default_value) const {
  std::int64_t v = get_int(name, static_cast<std::int64_t>(default_value));
  if (v < 0) throw InputError("flag --" + name + " expects a non-negative integer");
  return static_cast<std::uint64_t>(v);
}

double CliArgs::get_double(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const auto& s = it->second;
  char* end = nullptr;
  double out = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || s.empty()) {
    throw InputError("flag --" + name + " expects a number, got '" + s + "'");
  }
  return out;
}

bool CliArgs::get_bool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const auto& s = it->second;
  if (s == "true" || s == "1" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "no") return false;
  throw InputError("flag --" + name + " expects a boolean, got '" + s + "'");
}

}  // namespace rbpc
