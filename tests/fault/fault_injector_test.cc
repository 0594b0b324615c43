// FaultInjector contract: spec parsing (and its failure modes), the three
// firing modes' exact semantics, determinism of the (scope, count) decision,
// counter bookkeeping, and the disarmed fast path. Tests within one binary
// share the process-wide injector, so every armed test uses ScopedFault.

#include "bagcpd/fault/fault_injector.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace bagcpd {
namespace fault {
namespace {

TEST(FaultInjectorTest, ParsesEveryPointName) {
  const char* const names[] = {"emd.solve",  "sinkhorn.iterate", "arena.alloc",
                               "spill.write", "spill.read",      "ckpt.import",
                               "detector.push"};
  for (std::size_t i = 0; i < kFaultPointCount; ++i) {
    Result<FaultPoint> point = ParseFaultPoint(names[i]);
    ASSERT_TRUE(point.ok()) << names[i];
    EXPECT_EQ(static_cast<std::size_t>(point.ValueOrDie()), i);
    EXPECT_STREQ(FaultPointName(point.ValueOrDie()), names[i]);
  }
  EXPECT_FALSE(ParseFaultPoint("emd_solve").ok());
  EXPECT_FALSE(ParseFaultPoint("").ok());
}

TEST(FaultInjectorTest, ValidateSpecAcceptsAndRejectsWithoutArming) {
  FaultInjector::Global().Disarm();
  EXPECT_TRUE(FaultInjector::ValidateSpec("emd.solve:nth:3").ok());
  EXPECT_TRUE(FaultInjector::ValidateSpec("spill.read:every-n:10").ok());
  EXPECT_TRUE(FaultInjector::ValidateSpec("detector.push:seeded-p:0.5").ok());
  EXPECT_TRUE(
      FaultInjector::ValidateSpec("detector.push:seeded-p:0.5:42").ok());
  // Malformed specs: wrong shape, unknown point/mode, bad arguments.
  EXPECT_FALSE(FaultInjector::ValidateSpec("").ok());
  EXPECT_FALSE(FaultInjector::ValidateSpec("emd.solve").ok());
  EXPECT_FALSE(FaultInjector::ValidateSpec("emd.solve:nth").ok());
  EXPECT_FALSE(FaultInjector::ValidateSpec("no.such.point:nth:1").ok());
  EXPECT_FALSE(FaultInjector::ValidateSpec("emd.solve:sometimes:1").ok());
  EXPECT_FALSE(FaultInjector::ValidateSpec("emd.solve:nth:0").ok());
  EXPECT_FALSE(FaultInjector::ValidateSpec("emd.solve:nth:-1").ok());
  EXPECT_FALSE(FaultInjector::ValidateSpec("emd.solve:nth:1:2").ok());
  EXPECT_FALSE(FaultInjector::ValidateSpec("emd.solve:every-n:x").ok());
  EXPECT_FALSE(FaultInjector::ValidateSpec("emd.solve:seeded-p:1.5").ok());
  EXPECT_FALSE(FaultInjector::ValidateSpec("emd.solve:seeded-p:nan").ok());
  EXPECT_FALSE(
      FaultInjector::ValidateSpec("emd.solve:seeded-p:0.5:1:2").ok());
  // Counts past 2^64 - 1 are out of range, never wrapped to a small count.
  for (const char* spec : {"emd.solve:nth:18446744073709551616",
                           "emd.solve:nth:18446744073709551617",
                           "emd.solve:seeded-p:0.5:18446744073709551616"}) {
    const Status status = FaultInjector::ValidateSpec(spec);
    EXPECT_FALSE(status.ok()) << spec;
    EXPECT_NE(status.message().find("out of range"), std::string::npos)
        << status.message();
  }
  EXPECT_TRUE(
      FaultInjector::ValidateSpec("emd.solve:nth:18446744073709551615").ok());
  // The probability is a spec number: no hex, no '+', no whitespace.
  EXPECT_FALSE(FaultInjector::ValidateSpec("emd.solve:seeded-p:0x1p-1").ok());
  EXPECT_FALSE(FaultInjector::ValidateSpec("emd.solve:seeded-p:+0.5").ok());
  EXPECT_FALSE(FaultInjector::ValidateSpec("emd.solve:seeded-p: 0.5").ok());
  EXPECT_FALSE(FaultInjector::ValidateSpec("emd.solve:seeded-p:0.5 ").ok());
  // Validation never arms.
  EXPECT_FALSE(FaultInjector::Global().armed());
}

TEST(FaultInjectorTest, MalformedArmLeavesPreviousSpecArmed) {
  ScopedFault armed("emd.solve:nth:5");
  ASSERT_TRUE(armed.status().ok());
  EXPECT_FALSE(FaultInjector::Global().ArmFromSpec("bogus").ok());
  EXPECT_TRUE(FaultInjector::Global().armed());
  EXPECT_EQ(FaultInjector::Global().armed_spec(), "emd.solve:nth:5");
}

TEST(FaultInjectorTest, DisarmedNeverFires) {
  FaultInjector::Global().Disarm();
  FaultInjector::Global().ResetCounters();
  for (std::uint64_t count = 1; count <= 100; ++count) {
    EXPECT_FALSE(FaultFires(FaultPoint::kEmdSolve, 7, count));
  }
  EXPECT_EQ(FaultInjector::Global().fired_count(), 0u);
}

TEST(FaultInjectorTest, NthFiresExactlyOnThatOccurrence) {
  ScopedFault armed("detector.push:nth:4");
  ASSERT_TRUE(armed.status().ok());
  for (std::uint64_t count = 1; count <= 10; ++count) {
    EXPECT_EQ(FaultFires(FaultPoint::kDetectorPush, 1, count), count == 4);
  }
  // The armed point does not leak onto other points.
  EXPECT_FALSE(FaultFires(FaultPoint::kEmdSolve, 1, 4));
  EXPECT_EQ(armed.fired(), 1u);
  EXPECT_EQ(FaultInjector::Global().fired_count(FaultPoint::kDetectorPush),
            1u);
  EXPECT_EQ(FaultInjector::Global().fired_count(FaultPoint::kEmdSolve), 0u);
}

TEST(FaultInjectorTest, EveryNFiresOnMultiples) {
  ScopedFault armed("spill.write:every-n:3");
  ASSERT_TRUE(armed.status().ok());
  std::vector<std::uint64_t> fired;
  for (std::uint64_t count = 1; count <= 9; ++count) {
    if (FaultFires(FaultPoint::kSpillWrite, 0, count)) fired.push_back(count);
  }
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{3, 6, 9}));
}

TEST(FaultInjectorTest, SeededPIsDeterministicPerScopeCountPair) {
  std::vector<bool> first;
  for (int run = 0; run < 2; ++run) {
    ScopedFault armed("emd.solve:seeded-p:0.3:11");
    ASSERT_TRUE(armed.status().ok());
    std::vector<bool> outcomes;
    for (std::uint64_t scope = 0; scope < 4; ++scope) {
      for (std::uint64_t count = 1; count <= 50; ++count) {
        outcomes.push_back(FaultFires(FaultPoint::kEmdSolve, scope, count));
      }
    }
    if (run == 0) {
      first = outcomes;
      // P = 0.3 over 200 draws: some fire, some do not.
      EXPECT_GT(armed.fired(), 0u);
      EXPECT_LT(armed.fired(), 200u);
    } else {
      EXPECT_EQ(outcomes, first);  // Bitwise-reproducible decisions.
    }
  }
}

TEST(FaultInjectorTest, SeededPZeroNeverFiresAndOneAlwaysFires) {
  {
    ScopedFault never("ckpt.import:seeded-p:0");
    ASSERT_TRUE(never.status().ok());
    for (std::uint64_t count = 1; count <= 64; ++count) {
      EXPECT_FALSE(FaultFires(FaultPoint::kCkptImport, count, count));
    }
  }
  {
    ScopedFault always("ckpt.import:seeded-p:1");
    ASSERT_TRUE(always.status().ok());
    for (std::uint64_t count = 1; count <= 64; ++count) {
      EXPECT_TRUE(FaultFires(FaultPoint::kCkptImport, count, count));
    }
  }
}

TEST(FaultInjectorTest, SeededPSeedChangesTheDrawStream) {
  std::vector<bool> a;
  {
    ScopedFault armed("arena.alloc:seeded-p:0.5:1");
    for (std::uint64_t count = 1; count <= 100; ++count) {
      a.push_back(FaultFires(FaultPoint::kArenaAlloc, 9, count));
    }
  }
  std::vector<bool> b;
  {
    ScopedFault armed("arena.alloc:seeded-p:0.5:2");
    for (std::uint64_t count = 1; count <= 100; ++count) {
      b.push_back(FaultFires(FaultPoint::kArenaAlloc, 9, count));
    }
  }
  EXPECT_NE(a, b);
}

TEST(FaultInjectorTest, ScopedFaultDisarmsOnDestruction) {
  {
    ScopedFault armed("emd.solve:every-n:1");
    ASSERT_TRUE(armed.status().ok());
    EXPECT_TRUE(FaultInjector::Global().armed());
  }
  EXPECT_FALSE(FaultInjector::Global().armed());
  EXPECT_TRUE(FaultInjector::Global().armed_spec().empty());
}

TEST(FaultInjectorTest, InjectedErrorIsTaggedInternal) {
  const Status error = InjectedFaultError(FaultPoint::kSpillRead);
  EXPECT_EQ(error.code(), StatusCode::kInternal);
  EXPECT_NE(error.message().find("fault-injected: spill.read"),
            std::string::npos);
}

}  // namespace
}  // namespace fault
}  // namespace bagcpd
