// gtest expectations over restoration-service route tables, shared by the
// service and persistence suites. Benches use service_harness.hpp alone.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/restoration.hpp"

namespace rbpc::testing {

/// Every demand's backup route and decomposition in `got` equal `want`'s.
inline void expect_identical_tables(const std::vector<core::Restoration>& want,
                                    const std::vector<core::Restoration>& got,
                                    const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::string ctx = context + " demand " + std::to_string(i);
    EXPECT_EQ(want[i].backup, got[i].backup) << ctx << ": backup differs";
    EXPECT_EQ(want[i].decomposition, got[i].decomposition)
        << ctx << ": decomposition differs";
  }
}

}  // namespace rbpc::testing
