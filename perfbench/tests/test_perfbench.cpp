/// Tests of the benchmark's own arithmetic and input generation: the
/// percentile helper, span self time, the publish-log accounting of
/// applied/coalesced/dropped messages, the reference oracle, and seed
/// determinism of every generated input.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "inputs.hpp"
#include "ledger.hpp"
#include "oracle.hpp"
#include "serve/fleet_engine.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, HighestResolvedLeavesTenSamplesBeyond) {
  EXPECT_EQ(highest_resolved_percentile(1000), 99.0);
  EXPECT_EQ(highest_resolved_percentile(999), 90.0);
  EXPECT_EQ(highest_resolved_percentile(100), 90.0);
  EXPECT_EQ(highest_resolved_percentile(20), 50.0);
  EXPECT_EQ(highest_resolved_percentile(19), 0.0);
  EXPECT_EQ(highest_resolved_percentile(10000), 99.9);
  EXPECT_EQ(highest_resolved_percentile(100, 1), 99.0);
}

TEST(Percentile, MedianAndQuartilesMatchInclusiveQuantiles) {
  // Python: statistics.quantiles([1, 2, 3, 4], n=4, method="inclusive")
  // == [1.75, 2.5, 3.25].
  const Summary s = summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.q1, 1.75);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);
  EXPECT_DOUBLE_EQ(s.q3, 3.25);
  EXPECT_FALSE(s.p99_resolved);
  const Summary odd = summarize({5.0, 3.0, 1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(odd.p50, 3.0);
  EXPECT_DOUBLE_EQ(odd.q1, 2.0);
  EXPECT_DOUBLE_EQ(odd.q3, 4.0);
}

TEST(Percentile, P99OfAThousandSamples) {
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const Summary s = summarize(v);
  EXPECT_TRUE(s.p99_resolved);
  EXPECT_DOUBLE_EQ(s.p99, 0.99 * 999.0);
  EXPECT_DOUBLE_EQ(s.p50, 499.5);
  EXPECT_THROW(summarize({}), std::invalid_argument);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfClippedChildren) {
  // Children overlap each other and one sticks out of the parent.
  EXPECT_EQ(self_time_ns(0, 100, {{10, 30}, {20, 40}, {90, 120}}), 60);
  EXPECT_EQ(self_time_ns(0, 100, {}), 100);
  EXPECT_EQ(self_time_ns(0, 100, {{0, 100}}), 0);
  EXPECT_EQ(self_time_ns(50, 100, {{0, 60}, {200, 300}}), 40);
}

TEST(Spans, RecorderNestsAndStopsAtCapacity) {
  SpanRecorder rec(2);
  {
    const ScopedSpan parent(&rec, "parent");
    const ScopedSpan child(&rec, "child", parent.id());
    const ScopedSpan dropped(&rec, "dropped", parent.id());
    EXPECT_EQ(dropped.id(), -1);
  }
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  const std::vector<std::int64_t> self = rec.self_times();
  const Span& p = rec.spans()[0];
  const Span& c = rec.spans()[1];
  EXPECT_EQ(self[0], (p.end_ns - p.start_ns) - (c.end_ns - c.start_ns));
  EXPECT_EQ(self[1], c.end_ns - c.start_ns);
}

TEST(Ledger, LatestMessagePerCellDecidesTheDrain) {
  KindLedger<int> ledger(8);
  ledger.publish(1, 10, true);
  ledger.publish(1, 11, false);  // supersedes 10: cell 1 drains invalid
  ledger.publish(2, 20, true);
  ledger.publish(3, 30, false);
  ledger.publish(2, 21, true);  // supersedes 20
  EXPECT_EQ(ledger.pending(), 3u);
  std::vector<std::pair<std::size_t, int>> applied;
  ledger.drain([&](std::size_t cell, int v) { applied.emplace_back(cell, v); });
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0], (std::pair<std::size_t, int>{2, 21}));
  EXPECT_EQ(ledger.tally().published, 5u);
  EXPECT_EQ(ledger.tally().coalesced, 2u);
  EXPECT_EQ(ledger.tally().dropped, 2u);
  EXPECT_EQ(ledger.tally().applied, 1u);
  // The next interval starts clean: cell 1 may publish again uncoalesced.
  const IngestTally before = ledger.tally();
  ledger.publish(1, 12, true);
  ledger.drain([&](std::size_t cell, int v) { applied.emplace_back(cell, v); });
  const IngestTally delta = ledger.tally().since(before);
  EXPECT_EQ(delta.published, 1u);
  EXPECT_EQ(delta.coalesced, 0u);
  EXPECT_EQ(delta.applied, 1u);
  EXPECT_EQ(applied.back(), (std::pair<std::size_t, int>{1, 12}));
}

TEST(Ledger, PredictsTheEngineDropCountsAndTheOracleItsState) {
  constexpr std::size_t kCells = 96;
  const sp::core::TwoBranchNet net = make_net(kModelSeedA);
  sp::serve::FleetConfig config;
  config.threads = 2;
  const std::vector<sp::serve::CellMode> modes = cell_modes(kCells, 8, 3);
  sp::serve::FleetEngine engine(net, kCells, config);
  engine.set_cell_modes(modes);
  engine.init_from_sensors(sensor_rows(kCells, 3));
  const sp::nn::Matrix rows = workload_rows(kCells, 3);
  std::vector<std::size_t> all(kCells);
  std::vector<std::size_t> physics;
  for (std::size_t c = 0; c < kCells; ++c) {
    all[c] = c;
    if (modes[c] == sp::serve::CellMode::kPhysicsOnly) physics.push_back(c);
  }
  // A high non-finite share so coalescing and drops both occur.
  MessageStream streams[3] = {
      MessageStream(MsgKind::kSensors, all, 1.0, 0.3, 5),
      MessageStream(MsgKind::kWorkload, all, 1.0, 0.3, 5),
      MessageStream(MsgKind::kParams, physics, 1.0, 0.3, 5)};
  std::vector<KindLedger<Message>> ledgers(3, KindLedger<Message>(kCells));
  FleetMirror mirror(modes, sp::core::CellParams{});
  sp::core::InferenceWorkspace ws;
  for (std::uint64_t tick = 0; tick < 20; ++tick) {
    for (int k = 0; k < 3; ++k) {
      for (int i = 0; i < 40; ++i) {
        const Message m = streams[k].next();
        const MsgKind kind = streams[k].kind();
        if (kind == MsgKind::kSensors) {
          engine.mailbox().publish_sensors(m.cell, {m.a, m.b, m.c});
        } else if (kind == MsgKind::kWorkload) {
          engine.mailbox().publish_workload(m.cell, {m.a, m.b, m.c});
        } else {
          engine.mailbox().publish_params(m.cell, {m.a, m.b, m.c});
        }
        ledgers[k].publish(m.cell, m, drain_accepts(kind, m));
      }
    }
    const std::vector<double> before(engine.soc().begin(), engine.soc().end());
    engine.step(rows);
    for (int k = 0; k < 3; ++k) {
      ledgers[k].drain([&](std::size_t, const Message& m) {
        mirror.apply(streams[k].kind(), m, tick);
      });
    }
    const sp::serve::IngestStats got = engine.ingest_stats();
    ASSERT_EQ(got.dropped_sensor_reports, ledgers[0].tally().dropped);
    ASSERT_EQ(got.dropped_workload_overrides, ledgers[1].tally().dropped);
    ASSERT_EQ(got.dropped_param_updates, ledgers[2].tally().dropped);
    for (std::size_t c = 0; c < kCells; ++c) {
      ASSERT_NEAR(engine.soc()[c],
                  mirror.expected(net, ws, c, before[c], rows, tick), kTolF64)
          << "cell " << c << " tick " << tick;
    }
  }
  for (const auto& l : ledgers) {
    EXPECT_GT(l.tally().dropped, 0u);
    EXPECT_GT(l.tally().coalesced, 0u);
  }
}

TEST(Oracle, RolloutReferenceMatchesTheEngineAndCatchesAnError) {
  const sp::core::TwoBranchNet net = make_net(kModelSeedA);
  RolloutInputs in = rollout_inputs(32, 2, 4);
  const auto schedules =
      sp::data::build_workload_schedules(in.traces, kRolloutHorizonS);
  std::vector<sp::data::ReanchorPlan> plans(in.traces.size());
  std::vector<sp::serve::RolloutLane> lanes(in.traces.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (in.closed_loop[i] != 0) {
      plans[i] = sp::data::build_reanchor_plan(in.traces[i], kRolloutHorizonS,
                                               kReanchorEvery);
    }
    lanes[i] = {&schedules[i], in.kinds[i], in.params[i],
                in.closed_loop[i] != 0 ? &plans[i] : nullptr};
  }
  sp::serve::RolloutConfig config;
  config.threads = 2;
  sp::serve::RolloutEngine engine(net, config);
  std::vector<sp::core::Rollout> out(lanes.size());
  engine.run_into(lanes, out);
  sp::core::InferenceWorkspace ws;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    EXPECT_TRUE(rollout_matches(net, ws, lanes[i], out[i], kTolF64)) << i;
  }
  out[5].soc[3] += 1e-6;
  EXPECT_FALSE(rollout_matches(net, ws, lanes[5], out[5], kTolF64));
}

bool same(const sp::nn::Matrix& a, const sp::nn::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (a(r, c) != b(r, c)) return false;
    }
  }
  return true;
}

std::vector<double> stream_values(std::uint64_t seed) {
  std::vector<double> v;
  MessageStream s(MsgKind::kSensors, {0, 1, 2, 3, 4, 5, 6, 7}, 10.0, 0.1,
                  seed);
  for (int i = 0; i < 200; ++i) {
    const Message m = s.next();
    for (const double x : {static_cast<double>(m.cell), m.a, m.b, m.c}) {
      // NaN != NaN: compare non-finite fields through a sentinel.
      v.push_back(std::isfinite(x) ? x : -1e300);
    }
  }
  return v;
}

TEST(Seeds, SameSeedSameInputsDifferentSeedDifferentInputs) {
  EXPECT_TRUE(same(workload_rows(64, 7), workload_rows(64, 7)));
  EXPECT_FALSE(same(workload_rows(64, 7), workload_rows(64, 8)));
  EXPECT_TRUE(same(sensor_rows(64, 7), sensor_rows(64, 7)));
  EXPECT_FALSE(same(sensor_rows(64, 7), sensor_rows(64, 8)));
  EXPECT_EQ(cell_modes(256, 8, 7), cell_modes(256, 8, 7));
  EXPECT_NE(cell_modes(256, 8, 7), cell_modes(256, 8, 8));
  EXPECT_EQ(stream_values(7), stream_values(7));
  EXPECT_NE(stream_values(7), stream_values(8));

  const RolloutInputs a = rollout_inputs(64, 2, 7);
  const RolloutInputs b = rollout_inputs(64, 2, 7);
  const RolloutInputs c = rollout_inputs(64, 2, 8);
  ASSERT_EQ(a.traces.size(), 64u);
  bool all_equal = true;
  bool any_differs = false;
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    all_equal = all_equal && a.traces[i].voltages() == b.traces[i].voltages() &&
                a.kinds[i] == b.kinds[i] && a.params[i] == b.params[i];
    any_differs = any_differs || a.traces[i].size() != c.traces[i].size() ||
                  a.traces[i].voltages() != c.traces[i].voltages();
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_differs);
}

TEST(Seeds, RolloutShardsCarryTheSameWorkForEverySeed) {
  // Per shard, the multiset of (length, kind, closed-loop) is seed-free,
  // so per-shard work does not change with the seed.
  auto shard_mix = [](std::uint64_t seed, std::size_t shard) {
    const RolloutInputs in = rollout_inputs(128, 2, seed);
    std::vector<std::tuple<std::size_t, int, int>> mix;
    for (std::size_t i = shard * 64; i < (shard + 1) * 64; ++i) {
      mix.emplace_back(in.traces[i].size(), static_cast<int>(in.kinds[i]),
                       in.closed_loop[i]);
    }
    std::sort(mix.begin(), mix.end());
    return mix;
  };
  for (std::size_t shard = 0; shard < 2; ++shard) {
    EXPECT_EQ(shard_mix(1, shard), shard_mix(2, shard));
  }
  EXPECT_EQ(shard_mix(1, 0), shard_mix(1, 1));
}

}  // namespace
}  // namespace perfbench
