// `cavenet trace` must emit exactly the mobility trace a Table-I protocol
// run uses: same NaS seed stream, boundary and delta offset. Runs the CLI
// binary and byte-compares its ns-2 output with
// write_ns2(make_table1_trace(...)) at the same seed and slowdown p.
#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "scenario/table1.h"
#include "trace/ns2_format.h"

#ifndef CAVENET_CLI
#error "CAVENET_CLI must name the cavenet binary"
#endif

namespace cavenet::scenario {
namespace {

/// Stdout of `command`; fails the test when it cannot run or exits != 0.
std::string capture(const std::string& command) {
  std::string out;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "cannot run " << command;
    return out;
  }
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    out.append(buffer, n);
  }
  EXPECT_EQ(pclose(pipe), 0) << command;
  return out;
}

TEST(CliTraceTest, TraceMatchesTheTableOneTrace) {
  const std::string cli =
      capture(std::string("\"") + CAVENET_CLI + "\" trace --p 0.7 --seed 3");

  TableIConfig config;
  config.seed = 3;
  config.slowdown_p = 0.7;
  std::ostringstream expected;
  trace::write_ns2(make_table1_trace(config), expected);

  ASSERT_FALSE(cli.empty());
  EXPECT_TRUE(cli == expected.str())
      << "cavenet trace output (" << cli.size()
      << " bytes) differs from the Table-I trace (" << expected.str().size()
      << " bytes)";
}

}  // namespace
}  // namespace cavenet::scenario
