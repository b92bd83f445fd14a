// Scratch-file paths for tests.
//
// gtest_discover_tests registers every test as its own ctest entry, and
// `ctest -j` runs those processes concurrently. A fixed name under
// TempDir() is therefore shared by every test of a fixture: one test's
// TearDown deletes the file another test's SetUp just wrote. TestPath
// makes each name unique to the process and the running test.

#ifndef DBS_TESTS_TEST_PATHS_H_
#define DBS_TESTS_TEST_PATHS_H_

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace dbs::test {

// TempDir()/dbs_<pid>_<suite>.<test>_<name>. Characters outside
// [A-Za-z0-9._-] in the test name (parameterized names carry '/', spaces
// and commas) become '_', so the path is safe to pass through a shell.
// Call it while a test runs: from the test body, the fixture's constructor
// or SetUp.
inline std::string TestPath(const std::string& name) {
  std::string tag = "dbs_" + std::to_string(::getpid());
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  if (info != nullptr) {
    tag += '_';
    tag += info->test_suite_name();
    tag += '.';
    tag += info->name();
  }
  tag += '_';
  tag += name;
  for (char& c : tag) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    if (!keep) c = '_';
  }
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + tag;
}

}  // namespace dbs::test

#endif  // DBS_TESTS_TEST_PATHS_H_
