#include "spf/metric.hpp"

namespace rbpc::spf {

const char* to_string(TiebreakPolicy policy) {
  switch (policy) {
    case TiebreakPolicy::Arbitrary:
      return "arbitrary";
    case TiebreakPolicy::Lexicographic:
      return "lexicographic";
    case TiebreakPolicy::Restorable:
      return "restorable";
  }
  return "unknown";
}

}  // namespace rbpc::spf
