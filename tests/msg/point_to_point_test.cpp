// Point-to-point messaging semantics: matching, ordering, any-source,
// typed transfers, and instrumentation counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hpfcg/check/check.hpp"
#include "hpfcg/msg/process.hpp"
#include "hpfcg/msg/runtime.hpp"
#include "hpfcg/race/race.hpp"
#include "spmd_test_util.hpp"

using hpfcg::msg::Process;
using hpfcg_test::run_spmd;

namespace {

/// Ranks 1..3 each send one value to rank 0, which drains them with
/// any-source receives: a deliberate wildcard race between the senders.
void any_source_drain(Process& p) {
  if (p.rank() == 0) {
    bool seen[4] = {true, false, false, false};
    for (int k = 0; k < 3; ++k) {
      int src = -1;
      const auto v = p.recv_any<int>(5, src);
      ASSERT_EQ(v.size(), 1u);
      EXPECT_EQ(v[0], src * 11);
      seen[src] = true;
    }
    EXPECT_TRUE(seen[1] && seen[2] && seen[3]);
  } else {
    p.send_value<int>(0, 5, p.rank() * 11);
  }
}

TEST(PointToPoint, ScalarRoundTrip) {
  run_spmd(2, [](Process& p) {
    if (p.rank() == 0) {
      p.send_value<double>(1, 7, 3.25);
      const double back = p.recv_value<double>(1, 8);
      EXPECT_DOUBLE_EQ(back, 6.5);
    } else {
      const double v = p.recv_value<double>(0, 7);
      p.send_value<double>(0, 8, v * 2);
    }
  });
}

TEST(PointToPoint, VectorTransferPreservesContents) {
  run_spmd(2, [](Process& p) {
    if (p.rank() == 0) {
      std::vector<std::int32_t> data(1000);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::int32_t>(i * i % 9973);
      }
      p.send<std::int32_t>(1, 1, data);
    } else {
      const auto got = p.recv<std::int32_t>(0, 1);
      ASSERT_EQ(got.size(), 1000u);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], static_cast<std::int32_t>(i * i % 9973));
      }
    }
  });
}

TEST(PointToPoint, FifoPerSourceAndTag) {
  run_spmd(2, [](Process& p) {
    if (p.rank() == 0) {
      for (int i = 0; i < 50; ++i) p.send_value<int>(1, 3, i);
    } else {
      for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(p.recv_value<int>(0, 3), i);
      }
    }
  });
}

TEST(PointToPoint, TagsSelectMessagesOutOfOrder) {
  run_spmd(2, [](Process& p) {
    if (p.rank() == 0) {
      p.send_value<int>(1, 10, 100);
      p.send_value<int>(1, 20, 200);
    } else {
      // Receive the later tag first.
      EXPECT_EQ(p.recv_value<int>(0, 20), 200);
      EXPECT_EQ(p.recv_value<int>(0, 10), 100);
    }
  });
}

TEST(PointToPoint, AnySourceReportsSender) {
  // The race is deliberate; with checking on the teardown audit would
  // reject it (see CheckedAnySourceRaceIsNamedAtTeardown).
  hpfcg::check::ScopedEnable no_check(false);
  run_spmd(4, any_source_drain);
}

TEST(PointToPoint, CheckedAnySourceRaceIsNamedAtTeardown) {
  // The other side of the pin above: with checking and race detection on,
  // the teardown audit rejects the same workload and names the race.
  if (!hpfcg::check::kCompiled || !hpfcg::race::kCompiled) {
    GTEST_SKIP() << "check or race compiled out";
  }
  hpfcg::race::ScopedEnable race_on;
  hpfcg::check::ScopedEnable check_on;
  hpfcg::msg::Runtime rt(4);
  std::string message;
  try {
    rt.run(any_source_drain);
    ADD_FAILURE() << "expected the teardown audit to reject the race";
  } catch (const hpfcg::util::Error& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("teardown audit failed"), std::string::npos)
      << message;
  EXPECT_NE(message.find("wildcard"), std::string::npos) << message;
}

TEST(PointToPoint, SelfSendIsAllowed) {
  run_spmd(1, [](Process& p) {
    p.send_value<int>(0, 9, 42);
    EXPECT_EQ(p.recv_value<int>(0, 9), 42);
  });
}

TEST(PointToPoint, StatsCountMessagesAndBytes) {
  auto rt = run_spmd(2, [](Process& p) {
    if (p.rank() == 0) {
      std::vector<double> data(100, 1.0);
      p.send<double>(1, 1, data);
    } else {
      (void)p.recv<double>(0, 1);
    }
  });
  EXPECT_EQ(rt->stats(0).messages_sent, 1u);
  EXPECT_EQ(rt->stats(0).bytes_sent, 800u);
  EXPECT_EQ(rt->stats(1).messages_received, 1u);
  EXPECT_EQ(rt->stats(1).bytes_received, 800u);
  // Sender pays start-up, receiver pays transfer.
  EXPECT_GT(rt->stats(0).modeled_comm_seconds, 0.0);
  EXPECT_GT(rt->stats(1).modeled_comm_seconds, 0.0);
}

TEST(PointToPoint, FlopsAccounting) {
  auto rt = run_spmd(2, [](Process& p) { p.add_flops(12345); });
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(rt->stats(r).flops, 12345u);
    EXPECT_DOUBLE_EQ(rt->stats(r).modeled_compute_seconds,
                     12345 * rt->cost().params().t_flop);
  }
}

TEST(Runtime, ExceptionInOneRankPropagatesAndUnblocksOthers) {
  hpfcg::msg::Runtime rt(3);
  EXPECT_THROW(
      rt.run([](Process& p) {
        if (p.rank() == 0) {
          throw hpfcg::util::Error("deliberate failure");
        }
        // Other ranks block forever on a message that never arrives; the
        // abort must wake them.
        (void)p.recv_value<int>(0, 99);
      }),
      hpfcg::util::Error);
}

TEST(Runtime, LeftoverMessagesAreAnError) {
  hpfcg::msg::Runtime rt(2);
  EXPECT_THROW(rt.run([](Process& p) {
                 if (p.rank() == 0) p.send_value<int>(1, 1, 5);
                 // rank 1 never receives.
               }),
               hpfcg::util::Error);
}

TEST(Runtime, ModeledMakespanIsMaxOverRanks) {
  auto rt = run_spmd(2, [](Process& p) {
    if (p.rank() == 1) p.add_flops(1000);
  });
  EXPECT_DOUBLE_EQ(rt->modeled_makespan(),
                   1000 * rt->cost().params().t_flop);
}

TEST(Runtime, ResetStatsClearsCounters) {
  hpfcg::msg::Runtime rt(2);
  rt.run([](Process& p) { p.add_flops(10); });
  rt.reset_stats();
  EXPECT_EQ(rt.total_stats().flops, 0u);
  EXPECT_DOUBLE_EQ(rt.total_stats().modeled_seconds(), 0.0);
}

}  // namespace
