#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace stalecert::testutil {

/// A path under ::testing::TempDir() that no other test process shares.
/// ctest runs every discovered test case as its own process, in parallel
/// under -j, so a fixed file name there lets one case truncate an archive
/// that another case is still reading.
inline std::string unique_temp_path(const std::string& name) {
  return ::testing::TempDir() + "stalecert_" + std::to_string(::getpid()) +
         "_" + name;
}

}  // namespace stalecert::testutil
