// Non-finite and huge values for every floating-point flag of the CLI
// tools (binaries injected by CMake as DBS_SAMPLE_BIN, DBS_OUTLIERS_BIN,
// DBS_MERGE_BIN and DBS_GEN_BIN).
//
// Each flag gets nan, inf, -inf and 1e308 on a dbs_gen file of 2,640 rows,
// one run at a time under a 60 s kill timeout. A run passes when it either
// exits 0 with no nan or inf on stdout, or exits 1-127 with a message on
// stderr. A run killed by a signal (a failed DBS_CHECK aborts) or by the
// timeout fails.

#include <sys/wait.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "tests/test_paths.h"

namespace dbs {
namespace {

struct SweepCase {
  const char* name;  // test-name suffix
  const char* bin;
  const char* args;  // fixed flags, relative to the run directory
  const char* flag;  // the swept double flag
};

#define DBS_SAMPLE_ARGS "in=in.dbsf out=s.dbsf kernels=64 size=200 mode="
#define DBS_OUTLIERS_ARGS "in=in.dbsf kernels=64 mode="

const SweepCase kCases[] = {
    {"sample_twopass_a", DBS_SAMPLE_BIN, DBS_SAMPLE_ARGS "twopass", "a"},
    {"sample_twopass_bandwidth_scale", DBS_SAMPLE_BIN,
     DBS_SAMPLE_ARGS "twopass", "bandwidth_scale"},
    {"sample_onepass_a", DBS_SAMPLE_BIN, DBS_SAMPLE_ARGS "onepass", "a"},
    {"sample_onepass_bandwidth_scale", DBS_SAMPLE_BIN,
     DBS_SAMPLE_ARGS "onepass", "bandwidth_scale"},
    {"sample_stream_a", DBS_SAMPLE_BIN, DBS_SAMPLE_ARGS "stream", "a"},
    {"sample_stream_bandwidth_scale", DBS_SAMPLE_BIN,
     DBS_SAMPLE_ARGS "stream", "bandwidth_scale"},
    {"sample_uniform_a", DBS_SAMPLE_BIN, DBS_SAMPLE_ARGS "uniform", "a"},
    {"sample_uniform_bandwidth_scale", DBS_SAMPLE_BIN,
     DBS_SAMPLE_ARGS "uniform", "bandwidth_scale"},
    {"outliers_approx_k", DBS_OUTLIERS_BIN, DBS_OUTLIERS_ARGS "approx", "k"},
    {"outliers_approx_bandwidth_scale", DBS_OUTLIERS_BIN,
     DBS_OUTLIERS_ARGS "approx", "bandwidth_scale"},
    {"outliers_approx_slack", DBS_OUTLIERS_BIN, DBS_OUTLIERS_ARGS "approx",
     "slack"},
    {"outliers_exact_k", DBS_OUTLIERS_BIN, DBS_OUTLIERS_ARGS "exact", "k"},
    {"outliers_estimate_k", DBS_OUTLIERS_BIN, DBS_OUTLIERS_ARGS "estimate",
     "k"},
    {"outliers_estimate_bandwidth_scale", DBS_OUTLIERS_BIN,
     DBS_OUTLIERS_ARGS "estimate", "bandwidth_scale"},
    {"outliers_estimate_slack", DBS_OUTLIERS_BIN,
     DBS_OUTLIERS_ARGS "estimate", "slack"},
    {"merge_bandwidth_scale", DBS_MERGE_BIN,
     "in=in.dbsf out=out.dbsk kernels=64", "bandwidth_scale"},
    {"gen_clusters_noise", DBS_GEN_BIN,
     "out=gen.dbsf points=2000 kind=clusters", "noise"},
    {"gen_clusters_size_ratio", DBS_GEN_BIN,
     "out=gen.dbsf points=2000 kind=clusters", "size_ratio"},
    {"gen_cure_noise", DBS_GEN_BIN, "out=gen.dbsf points=2000 kind=cure",
     "noise"},
};

#undef DBS_SAMPLE_ARGS
#undef DBS_OUTLIERS_ARGS

void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

std::string ReadText(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// True when `text` holds a word printf writes for a NaN or an infinity
// ("nan", "-nan", "inf", "infinity"; any case).
bool PrintsNonFinite(const std::string& text) {
  std::string lower = text;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  auto is_alpha = [&](size_t pos) {
    return pos < lower.size() &&
           std::isalpha(static_cast<unsigned char>(lower[pos])) != 0;
  };
  for (const std::string word : {"nan", "inf", "infinity"}) {
    for (size_t pos = lower.find(word); pos != std::string::npos;
         pos = lower.find(word, pos + 1)) {
      if ((pos == 0 || !is_alpha(pos - 1)) && !is_alpha(pos + word.size())) {
        return true;
      }
    }
  }
  return false;
}

class ToolsOptionSweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override {
    dir_ = test::TestPath("sweep");
    std::filesystem::create_directories(dir_);
    const std::string gen = std::string("cd ") + dir_ + " && " + DBS_GEN_BIN +
                            " out=in.dbsf points=2400 dim=2 clusters=4 "
                            "noise=0.1 seed=3 > /dev/null";
    ASSERT_EQ(std::system(gen.c_str()), 0);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_P(ToolsOptionSweepTest, ExitsCleanlyOrWithAMessage) {
  const SweepCase& c = GetParam();
  for (const char* value : {"nan", "inf", "-inf", "1e308"}) {
    const std::string flag = std::string(c.flag) + "=" + value;
    SCOPED_TRACE(flag);
    const std::string cmd = "cd " + dir_ + " && timeout -s KILL 60 " +
                            c.bin + " " + c.args + " " + flag +
                            " > out.txt 2> err.txt";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << "shell killed by a signal";
    const int code = WEXITSTATUS(status);
    ASSERT_LT(code, 128) << "killed by a signal or the timeout";
    const std::string out = ReadText(dir_ + "/out.txt");
    if (code == 0) {
      EXPECT_FALSE(PrintsNonFinite(out)) << out;
    } else {
      EXPECT_FALSE(ReadText(dir_ + "/err.txt").empty())
          << "exit " << code << " without a message";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Flags, ToolsOptionSweepTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<SweepCase>& param) {
      return std::string(param.param.name);
    });

}  // namespace
}  // namespace dbs
