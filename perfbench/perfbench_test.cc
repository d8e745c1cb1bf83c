// The benchmark's own checks: virtual metrics are a pure function of the
// seed, the clock ledger balances, the seed reaches the inputs, reference
// units stay out of host time, and the sfs_bulk_rw workload reproduces
// Figure 9's committed SFS row.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

// Each workload, shrunk so the whole suite runs in seconds.
RepResult Bulk(uint64_t seed, bool trace = false) {
  BulkParams p = BulkParams::FromSeed(seed);
  p.file_bytes = (p.file_bytes / 8) / 8192 * 8192;
  return RunBulkRw(p, trace);
}
RepResult Small(uint64_t seed, bool trace = false) {
  SmallParams p = SmallParams::FromSeed(seed);
  p.files = 120;
  return RunSmallFiles(p, trace);
}
RepResult Fleet(uint64_t seed, bool trace = false) {
  FleetParams p = FleetParams::FromSeed(seed);
  p.clients = 96;
  return RunFleet(p, trace);
}
RepResult Login(uint64_t seed, bool trace = false) {
  LoginParams p = LoginParams::FromSeed(seed);
  p.users = 3;
  p.logins = 12;
  p.srp_every = 4;
  return RunLogin(p, trace);
}

using Runner = RepResult (*)(uint64_t, bool);

class WorkloadTest : public ::testing::TestWithParam<Runner> {};

TEST_P(WorkloadTest, SameSeedGivesIdenticalVirtualMetrics) {
  const RepResult a = GetParam()(7, false);
  const RepResult b = GetParam()(7, false);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_GT(a.ops, 0u);
  EXPECT_EQ(a.op_virt_ns, b.op_virt_ns);
  EXPECT_EQ(a.virt_ns, b.virt_ns);
  EXPECT_EQ(a.read_virt_ns, b.read_virt_ns);
  EXPECT_EQ(a.write_virt_ns, b.write_virt_ns);
}

TEST_P(WorkloadTest, TracedRunsRepeatAndDropNoSpans) {
  const RepResult a = GetParam()(7, true);
  const RepResult b = GetParam()(7, true);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(a.op_virt_ns, b.op_virt_ns);
  EXPECT_EQ(a.layers.at("span.dropped"), 0);
}

TEST_P(WorkloadTest, ClockCategoriesSumToNow) {
  EXPECT_TRUE(GetParam()(3, false).ledger_ok);
  EXPECT_TRUE(GetParam()(3, true).ledger_ok);
}

TEST_P(WorkloadTest, DifferentSeedChangesTheRun) {
  EXPECT_NE(GetParam()(1, false).op_virt_ns, GetParam()(2, false).op_virt_ns);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::Values(&Bulk, &Small, &Fleet, &Login));

TEST(InputsTest, DifferentSeedChangesInputs) {
  EXPECT_NE(BulkParams::FromSeed(1).size_seed, BulkParams::FromSeed(2).size_seed);
  EXPECT_NE(SmallParams::FromSeed(1).input_seed, SmallParams::FromSeed(2).input_seed);
  EXPECT_NE(FleetParams::FromSeed(1).input_seed, FleetParams::FromSeed(2).input_seed);
  EXPECT_NE(LoginParams::FromSeed(1).input_seed, LoginParams::FromSeed(2).input_seed);
  EXPECT_EQ(BulkParams::FromSeed(5).file_bytes, BulkParams::FromSeed(5).file_bytes);
}

TEST(ReferenceTest, UnitsAreCountedAndLeftOutOfHostTime) {
  const ReferenceTally before = Reference();
  const double host0 = HostSeconds();
  for (int i = 0; i < 20; ++i) {
    RunReferenceUnit();
  }
  const ReferenceTally after = Reference();
  EXPECT_EQ(after.units - before.units, 20u);
  EXPECT_GT(after.cpu_s, before.cpu_s);
  // The loop's own bookkeeping is all that HostSeconds may see.
  EXPECT_LT(HostSeconds() - host0, 0.1 * (after.cpu_s - before.cpu_s));
  const double scale = ReferenceScale(before, after);
  EXPECT_DOUBLE_EQ(scale, kReferenceUnitS * 20 / (after.cpu_s - before.cpu_s));
  EXPECT_EQ(ReferenceScale(after, after), 1.0);
}

// The committed counter `name` of the SFS row, as the JSON spells it.
std::string CommittedSfsCounter(const std::string& name) {
  std::ifstream in(std::string(SFS_ROOT_DIR) + "/BENCH_fig9_lfs_large.json");
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"label\": \"SFS\"") == std::string::npos) {
      continue;
    }
    const std::string key = "\"" + name + "\": ";
    const size_t at = line.find(key);
    if (at == std::string::npos) {
      return "";
    }
    const size_t from = at + key.size();
    return line.substr(from, line.find_first_of(",}", from) - from);
  }
  return "";
}

std::string Seconds(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(ns) * 1e-9);
  return buf;
}

TEST(Figure9Test, BulkWorkloadReproducesCommittedSfsRow) {
  BulkPhases phases;
  const RepResult r = RunBulkRw(BulkParams::Figure9(), false, &phases);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(Seconds(phases.seq_write_ns), CommittedSfsCounter("seq_write_s"));
  EXPECT_EQ(Seconds(phases.seq_read_ns), CommittedSfsCounter("seq_read_s"));
  EXPECT_EQ(Seconds(phases.rand_write_ns), CommittedSfsCounter("rand_write_s"));
  EXPECT_EQ(Seconds(phases.rand_read_ns), CommittedSfsCounter("rand_read_s"));
}

}  // namespace
}  // namespace perfbench
