// Error types and precondition helpers shared across the RBPC libraries.
//
// Following the project convention, recoverable API misuse and invalid input
// raise exceptions derived from rbpc::Error; internal invariants use
// RBPC_ASSERT. Every check — require() and RBPC_ASSERT alike — is active in
// every build type. Both are inline compares that branch to an out-of-line
// reporter only on failure, so the per-node accessors the restoration hot
// path calls (ShortestPathTree, Graph) keep their checks at the cost of a
// compare each.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rbpc {

/// Base class for all exceptions thrown by the RBPC libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public Error {
 public:
  explicit PreconditionError(const std::string& what) : Error(what) {}
};

/// Thrown when input data (topology file, CLI argument, ...) is malformed.
class InputError : public Error {
 public:
  explicit InputError(const std::string& what) : Error(what) {}
};

/// Thrown when a requested route does not exist (e.g. graph disconnected
/// by failures and no restoration path can be found).
class NoRouteError : public Error {
 public:
  explicit NoRouteError(const std::string& what) : Error(what) {}
};

/// Throws PreconditionError for a failed require(): `what` followed by
/// " [at file:line (function)]" naming `loc`. Out of line and cold, so an
/// inline require() costs its callers one compare and a never-taken branch.
[[noreturn]] void fail_precondition(std::string_view what,
                                    std::source_location loc);

/// Throws PreconditionError with location info when `cond` is false. Every
/// check is active in every build type. Inline: a passing check is a
/// compare, with no call and no allocation; the default argument resolves
/// `loc` at the caller, so the message names the call site.
inline void require(bool cond, const std::string& what,
                    std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] fail_precondition(what, loc);
}

/// Literal-message overload: the message string is only materialized on
/// failure, so a passing check performs no heap allocation. String-literal
/// call sites resolve here, which is what keeps require() admissible on the
/// allocation-free restoration hot path (bench/micro_perf's zero-alloc
/// gate).
inline void require(bool cond, const char* what,
                    std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] fail_precondition(what, loc);
}

[[noreturn]] void fail_internal(
    const char* expr, std::source_location loc = std::source_location::current());

}  // namespace rbpc

/// Internal invariant check; active in every build type.
#define RBPC_ASSERT(expr) \
  ((expr) ? static_cast<void>(0) : ::rbpc::fail_internal(#expr))
