/**
 * @file
 * A fresh temp directory per test, named after the running test and the
 * process id, so concurrent runs (ctest --repeat, two build trees, a
 * sanitizer matrix) never share a directory or delete each other's
 * files. The directory is removed when the object goes out of scope.
 */
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>

namespace neo::testing {

class ScopedTempDir
{
  public:
    ScopedTempDir()
    {
        const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = std::string("neo_") + info->test_suite_name() +
                           "_" + info->name() + "_" +
                           std::to_string(::getpid());
        std::replace(name.begin(), name.end(), '/', '_');
        path_ = std::filesystem::temp_directory_path() / name;
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~ScopedTempDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }

    ScopedTempDir(const ScopedTempDir&) = delete;
    ScopedTempDir& operator=(const ScopedTempDir&) = delete;

    const std::filesystem::path& path() const { return path_; }
    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

}  // namespace neo::testing
