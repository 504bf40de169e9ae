#include "util/error.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace rbpc {

namespace {

std::string locate(const std::source_location& loc) {
  std::ostringstream os;
  os << loc.file_name() << ':' << loc.line() << " (" << loc.function_name() << ')';
  return os.str();
}

}  // namespace

void fail_precondition(std::string_view what, std::source_location loc) {
  throw PreconditionError(std::string(what) + " [at " + locate(loc) + "]");
}

void fail_internal(const char* expr, std::source_location loc) {
  // Internal invariants are programming errors: report and abort rather than
  // unwind, so the broken state is visible in a debugger/core dump.
  std::cerr << "RBPC internal invariant violated: " << expr << " at "
            << locate(loc) << std::endl;
  std::abort();
}

}  // namespace rbpc
