/// \file bench_inference_micro.cpp
/// Micro-benchmarks backing the paper's efficiency claims (Sec. III-A and
/// Table I): per-inference latency of each branch, the full cascade, an
/// autoregressive rollout step, and the sequence baselines — plus the
/// analytic cost model (2,322 params ~ 9 kB, ~1150 MACs per branch vs
/// ~4 Mb / ~300 M ops for the LSTM of [17]).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "battery/coulomb.hpp"
#include "bench_support.hpp"
#include "core/net_snapshot.hpp"
#include "nn/aligned.hpp"
#include "nn/lstm.hpp"
#include "nn/panel_dispatch.hpp"
#include "util/timer.hpp"

namespace {

using namespace socpinn;
using benchsupport::shared_net;

/// Raw Branch-2 inputs staged as the serve engines stage them: a 4 x batch
/// feature-major panel (f64 Matrix and its f32 image).
struct PanelFixture {
  nn::Matrix cols;        ///< 4 x batch, f64
  nn::MatrixT<float> f32; ///< 4 x batch, converted once
};

PanelFixture branch2_panel(std::size_t batch, std::uint64_t seed) {
  util::Rng rng(seed);
  const nn::Matrix rows = socpinn::testing::random_branch2(batch, rng);
  PanelFixture fx;
  fx.cols = nn::Matrix(4, batch);
  fx.f32.resize(4, batch);
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      fx.cols(c, r) = rows(r, c);
      fx.f32(c, r) = static_cast<float>(rows(r, c));
    }
  }
  return fx;
}

/// Median-of-5 wall time of `reps` calls to `body`, in seconds. Every
/// BENCH_inference.json number is measured through this: CI runners are
/// noisy enough that a single timed run regularly eats a scheduler hiccup,
/// and the median keeps the committed thresholds tight without flaking.
template <typename F>
double median5_seconds(int reps, F&& body) {
  double t[5];
  for (double& rep : t) {
    util::WallTimer timer;
    for (int i = 0; i < reps; ++i) body();
    rep = timer.seconds();
  }
  std::sort(std::begin(t), std::end(t));
  return t[2];
}

void BM_Branch1Estimate(benchmark::State& state) {
  core::TwoBranchNet& net = shared_net();
  double v = 3.81;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.estimate_soc(v, -2.0, 24.0));
    v += 1e-9;  // defeat value memoization
  }
}
BENCHMARK(BM_Branch1Estimate);

void BM_Branch2Predict(benchmark::State& state) {
  core::TwoBranchNet& net = shared_net();
  double soc = 0.8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.predict_soc(soc, -3.0, 25.0, 30.0));
    soc = soc > 0.2 ? soc - 1e-9 : 0.8;
  }
}
BENCHMARK(BM_Branch2Predict);

void BM_FullCascade(benchmark::State& state) {
  core::TwoBranchNet& net = shared_net();
  for (auto _ : state) {
    const double soc = net.estimate_soc(3.81, -2.0, 24.0);
    benchmark::DoNotOptimize(net.predict_soc(soc, -3.0, 25.0, 30.0));
  }
}
BENCHMARK(BM_FullCascade);

void BM_AutoregressiveRollout(benchmark::State& state) {
  // One Branch-1 call plus `steps` Branch-2 steps — the Fig. 2 pattern.
  core::TwoBranchNet& net = shared_net();
  const auto steps = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    double soc = net.estimate_soc(3.81, -2.0, 24.0);
    for (std::size_t i = 0; i < steps; ++i) {
      soc = net.predict_soc(soc, -3.0, 25.0, 30.0);
    }
    benchmark::DoNotOptimize(soc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_AutoregressiveRollout)->Arg(10)->Arg(100);

using benchsupport::random_sensors;
using benchsupport::random_workload;

void BM_CascadeBatched(benchmark::State& state) {
  // The refactor's one true forward path: full cascade for a whole batch
  // through a reused workspace — allocation-free after warm-up.
  core::TwoBranchNet& net = shared_net();
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  const nn::Matrix sensors = random_sensors(batch, rng);
  const nn::Matrix workload = random_workload(batch, rng);
  core::InferenceWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.cascade_batch(sensors, workload, ws)(0, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_CascadeBatched)->Arg(64)->Arg(256)->Arg(1024);

void BM_CascadePerSampleLoop(benchmark::State& state) {
  // The pre-refactor pattern: one scalar cascade per sample in a loop.
  core::TwoBranchNet& net = shared_net();
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  const nn::Matrix sensors = random_sensors(batch, rng);
  const nn::Matrix workload = random_workload(batch, rng);
  core::InferenceWorkspace ws;
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t r = 0; r < batch; ++r) {
      const double soc = net.estimate_soc(sensors(r, 0), sensors(r, 1),
                                          sensors(r, 2), ws);
      acc += net.predict_soc(soc, workload(r, 0), workload(r, 1),
                             workload(r, 2), ws);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_CascadePerSampleLoop)->Arg(256);

void BM_PredictPanelF64(benchmark::State& state) {
  // The serve seam at f64: one Branch-2 feature-major panel forward, the
  // per-step hot path of RolloutEngine/FleetEngine.
  core::TwoBranchNet& net = shared_net();
  const auto batch = static_cast<std::size_t>(state.range(0));
  const PanelFixture fx = branch2_panel(batch, 7);
  core::InferenceWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.predict_batch_columns(fx.cols, ws)(0, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_PredictPanelF64)->Arg(64)->Arg(256)->Arg(1024);

void BM_PredictPanelF32(benchmark::State& state) {
  // The same panel through the f32 snapshot: twice the SIMD lanes per
  // register at identical layout.
  core::TwoBranchNet& net = shared_net();
  const core::TwoBranchSnapshotF32 snapshot(net);
  const auto batch = static_cast<std::size_t>(state.range(0));
  const PanelFixture fx = branch2_panel(batch, 7);
  core::InferenceWorkspaceT<float> ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(snapshot.predict_columns(fx.f32, ws)(0, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_PredictPanelF32)->Arg(64)->Arg(256)->Arg(1024);

void BM_CoulombPredict(benchmark::State& state) {
  // The Physics-Only step, for scale: Eq. 1 is three flops.
  double soc = 0.9;
  for (auto _ : state) {
    soc = battery::coulomb_predict_clamped(soc, -3.0, 30.0, 3.0);
    benchmark::DoNotOptimize(soc);
    if (soc < 0.1) soc = 0.9;
  }
}
BENCHMARK(BM_CoulombPredict);

void BM_LstmEstimate(benchmark::State& state) {
  // Sequence baseline at the given hidden size over a 30-sample window.
  const auto hidden = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  nn::LstmRegressor model(3, hidden, rng);
  std::vector<nn::Matrix> window(30, nn::Matrix(1, 3, 0.1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(window));
  }
}
BENCHMARK(BM_LstmEstimate)->Arg(32)->Arg(128);

void report_cost_model() {
  core::TwoBranchNet& net = shared_net();
  const nn::ModelCost ours = net.cost();
  const nn::ModelCost lstm = nn::lstm_cost(3, 512, 30);
  std::printf("--- cost model (Sec. III-A / Table I) ---\n");
  std::printf("two-branch: %zu params, %s, %s MACs per cascade inference\n",
              ours.params, ours.mem_str().c_str(), ours.ops_str().c_str());
  std::printf("LSTM [17] published scale: %zu params, %s, %s MACs\n",
              lstm.params, lstm.mem_str().c_str(), lstm.ops_str().c_str());
  std::printf("memory ratio: %.0fx, ops ratio: %.0fx\n",
              static_cast<double>(lstm.bytes_f32) /
                  static_cast<double>(ours.bytes_f32),
              static_cast<double>(lstm.macs) /
                  static_cast<double>(ours.macs));
  std::printf(
      "paper reference: 2,322 params / ~9 kB / ~1150 ops vs ~4 Mb / "
      "~300 M ops (400x memory, 260kx ops)\n");
}

/// 1 on an x86 build whose TUs lack __AVX2__ (SOCPINN_NATIVE=OFF) — the
/// build flavor the x86 simd_* floors in bench/thresholds.json are set
/// for, by the same rule as perfbench's build_flavor(). On a native build
/// the scalar reference is already ISA-wide and those floors do not apply.
#if (defined(__x86_64__) || defined(__i386__)) && !defined(__AVX2__)
constexpr int kBuildPortable = 1;
#else
constexpr int kBuildPortable = 0;
#endif

/// Measures the batched-vs-per-sample comparison directly (wall clock +
/// allocation counter) and writes BENCH_inference.json for machine
/// consumption by CI and later scaling PRs.
void emit_bench_json(const char* path, const int kReps) {
  core::TwoBranchNet& net = shared_net();
  constexpr std::size_t kBatch = 256;
  util::Rng rng(7);
  const nn::Matrix sensors = random_sensors(kBatch, rng);
  const nn::Matrix workload = random_workload(kBatch, rng);
  core::InferenceWorkspace ws;
  const double samples = static_cast<double>(kBatch) * kReps;
  double acc = 0.0;

  // Batched cascade through the reused workspace. The allocation counter
  // spans all 5 repetitions (the per-forward number divides by 5 * kReps).
  for (int i = 0; i < 10; ++i) {
    acc += net.cascade_batch(sensors, workload, ws)(0, 0);  // warm-up
  }
  const std::size_t allocs_before = benchsupport::alloc_count();
  const double batched_ns =
      median5_seconds(kReps,
                      [&] {
                        acc += net.cascade_batch(sensors, workload, ws)(0, 0);
                      }) *
      1e9 / samples;
  const std::size_t batched_allocs =
      benchsupport::alloc_count() - allocs_before;

  // Per-sample loop over the workspace-backed scalar wrappers.
  const double scalar_ns =
      median5_seconds(kReps / 10,
                      [&] {
                        for (std::size_t r = 0; r < kBatch; ++r) {
                          const double soc = net.estimate_soc(
                              sensors(r, 0), sensors(r, 1), sensors(r, 2), ws);
                          acc += net.predict_soc(soc, workload(r, 0),
                                                 workload(r, 1),
                                                 workload(r, 2), ws);
                        }
                      }) *
      1e9 / (samples / 10.0);

  // The seed's per-sample path: allocating layer-by-layer forward.
  const double legacy_ns =
      median5_seconds(kReps / 10,
                      [&] {
                        for (std::size_t r = 0; r < kBatch; ++r) {
                          double f1[3] = {sensors(r, 0), sensors(r, 1),
                                          sensors(r, 2)};
                          net.scaler1().transform_row(f1);
                          const double soc = net.branch1().predict_scalar(f1);
                          double f2[4] = {soc, workload(r, 0), workload(r, 1),
                                          workload(r, 2)};
                          net.scaler2().transform_row(f2);
                          acc += net.branch2().predict_scalar(f2);
                        }
                      }) *
      1e9 / (samples / 10.0);

  // f32 serve backend vs the f64 panel at the serve seam, batch 64 and
  // 256 — the ROADMAP's "2x SIMD width" claim, measured. Both paths run
  // the identical feature-major Branch-2 forward (standardize + 4 panels).
  const core::TwoBranchSnapshotF32 snapshot(net);
  core::InferenceWorkspaceT<float> ws32;
  double panel_ns[2][2] = {};   // [batch index][0 = f64, 1 = f32]
  const std::size_t panel_batches[2] = {64, 256};
  const int panel_reps = kReps * 4;
  for (int bi = 0; bi < 2; ++bi) {
    const std::size_t batch = panel_batches[bi];
    const PanelFixture fx = branch2_panel(batch, 11);
    for (int i = 0; i < 10; ++i) {  // warm-up both workspaces
      acc += net.predict_batch_columns(fx.cols, ws)(0, 0);
      acc += static_cast<double>(snapshot.predict_columns(fx.f32, ws32)(0, 0));
    }
    panel_ns[bi][0] =
        median5_seconds(panel_reps,
                        [&] {
                          acc += net.predict_batch_columns(fx.cols, ws)(0, 0);
                        }) *
        1e9 / (static_cast<double>(batch) * panel_reps);
    panel_ns[bi][1] =
        median5_seconds(panel_reps,
                        [&] {
                          acc += static_cast<double>(
                              snapshot.predict_columns(fx.f32, ws32)(0, 0));
                        }) *
        1e9 / (static_cast<double>(batch) * panel_reps);
  }
  // Accuracy of the reduced-precision panel against f64 on one batch.
  double f32_max_abs_diff = 0.0;
  {
    const PanelFixture fx = branch2_panel(256, 11);
    const nn::Matrix& ref = net.predict_batch_columns(fx.cols, ws);
    const nn::MatrixT<float>& got = snapshot.predict_columns(fx.f32, ws32);
    for (std::size_t j = 0; j < ref.cols(); ++j) {
      const double diff =
          std::fabs(ref(0, j) - static_cast<double>(got(0, j)));
      if (diff > f32_max_abs_diff) f32_max_abs_diff = diff;
    }
  }

  // --- explicit SIMD panel kernels: per-ISA speedup vs the scalar ---
  // Raw simd::panel_kernels tables on the serve forward's layer shapes
  // (a 4->16 then a 16->16 panel at batch 256 — the Branch-2 hidden stack)
  // for every ISA this binary + host supports, against the scalar reference
  // template. Results are identical across ISAs by construction (f64
  // bitwise — tests/nn/test_simd_dispatch.cpp), so only throughput is
  // compared. The simd_supported_* gates let check_bench_regression.py
  // skip ISAs a runner cannot execute without weakening those it can.
  constexpr std::size_t kIsaBatch = 256;
  constexpr std::size_t kMaxF = 16;
  util::Rng isa_rng(13);
  nn::AlignedVector<double> ia64(kMaxF * kIsaBatch), iw64(kMaxF * kMaxF),
      ib64(kMaxF), io64(kMaxF * kIsaBatch);
  for (auto& v : ia64) v = isa_rng.uniform(-1.0, 1.0);
  for (auto& v : iw64) v = isa_rng.uniform(-1.0, 1.0);
  for (auto& v : ib64) v = isa_rng.uniform(-1.0, 1.0);
  nn::AlignedVector<float> ia32(ia64.begin(), ia64.end()),
      iw32(iw64.begin(), iw64.end()), ib32(ib64.begin(), ib64.end()),
      io32(kMaxF * kIsaBatch);
  const std::size_t layer_shapes[2][2] = {{4, 16}, {16, 16}};
  const int isa_reps = kReps * 4;
  int isa_supported[nn::simd::kNumIsas] = {};
  double isa_spd[nn::simd::kNumIsas][2] = {};  // [isa][0 = f32, 1 = f64]
  double scalar_kernel_s[2] = {};              // [0 = f32, 1 = f64]
  for (int i = 0; i < nn::simd::kNumIsas; ++i) {
    const auto isa = static_cast<nn::simd::Isa>(i);
    if (!nn::simd::isa_supported(isa)) continue;
    isa_supported[i] = 1;
    const nn::simd::PanelKernels& k = nn::simd::panel_kernels(isa);
    const auto run_f32 = [&] {
      for (const auto& s : layer_shapes) {
        k.f32(ia32.data(), iw32.data(), ib32.data(), io32.data(), s[0], s[1],
              kIsaBatch, false);
      }
      acc += static_cast<double>(io32[0]);
    };
    const auto run_f64 = [&] {
      for (const auto& s : layer_shapes) {
        k.f64(ia64.data(), iw64.data(), ib64.data(), io64.data(), s[0], s[1],
              kIsaBatch, false);
      }
      acc += io64[0];
    };
    run_f32();
    run_f64();  // touch caches before timing
    const double f32_s = median5_seconds(isa_reps, run_f32);
    const double f64_s = median5_seconds(isa_reps, run_f64);
    if (isa == nn::simd::Isa::kScalar) {
      // kScalar is index 0 and always supported: the reference is in place
      // before any explicit ISA divides by it.
      scalar_kernel_s[0] = f32_s;
      scalar_kernel_s[1] = f64_s;
      isa_spd[i][0] = isa_spd[i][1] = 1.0;
    } else {
      isa_spd[i][0] = scalar_kernel_s[0] / f32_s;
      isa_spd[i][1] = scalar_kernel_s[1] / f64_s;
    }
  }

  const nn::ModelCost cost = net.cost();
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "emit_bench_json: cannot open %s\n", path);
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"cascade_inference\",\n");
  std::fprintf(out, "  \"batch\": %zu,\n", kBatch);
  std::fprintf(out, "  \"params\": %zu,\n", cost.params);
  std::fprintf(out, "  \"macs_per_cascade\": %zu,\n", cost.macs);
  std::fprintf(out, "  \"batched_ns_per_sample\": %.1f,\n", batched_ns);
  std::fprintf(out, "  \"batched_samples_per_sec\": %.0f,\n",
               1e9 / batched_ns);
  std::fprintf(out, "  \"per_sample_workspace_ns_per_sample\": %.1f,\n",
               scalar_ns);
  std::fprintf(out, "  \"per_sample_legacy_ns_per_sample\": %.1f,\n",
               legacy_ns);
  std::fprintf(out, "  \"speedup_batched_vs_workspace_loop\": %.2f,\n",
               scalar_ns / batched_ns);
  std::fprintf(out, "  \"speedup_batched_vs_legacy_loop\": %.2f,\n",
               legacy_ns / batched_ns);
  std::fprintf(out, "  \"steady_state_allocs_per_batched_forward\": %.3f,\n",
               static_cast<double>(batched_allocs) / (5.0 * kReps));
  std::fprintf(out, "  \"f64_panel_ns_per_sample_b64\": %.2f,\n",
               panel_ns[0][0]);
  std::fprintf(out, "  \"f32_panel_ns_per_sample_b64\": %.2f,\n",
               panel_ns[0][1]);
  std::fprintf(out, "  \"speedup_f32_vs_f64_panel_b64\": %.2f,\n",
               panel_ns[0][0] / panel_ns[0][1]);
  std::fprintf(out, "  \"f64_panel_ns_per_sample_b256\": %.2f,\n",
               panel_ns[1][0]);
  std::fprintf(out, "  \"f32_panel_ns_per_sample_b256\": %.2f,\n",
               panel_ns[1][1]);
  std::fprintf(out, "  \"speedup_f32_vs_f64_panel_b256\": %.2f,\n",
               panel_ns[1][0] / panel_ns[1][1]);
  std::fprintf(out, "  \"f32_vs_f64_max_abs_diff\": %.3e,\n",
               f32_max_abs_diff);
  std::fprintf(out, "  \"simd_active_isa\": \"%s\",\n",
               nn::simd::isa_name(nn::simd::active_isa()));
  std::fprintf(out, "  \"build_portable\": %d,\n", kBuildPortable);
  for (int i = 0; i < nn::simd::kNumIsas; ++i) {
    std::fprintf(out, "  \"simd_supported_%s\": %d,\n",
                 nn::simd::isa_name(static_cast<nn::simd::Isa>(i)),
                 isa_supported[i]);
  }
  for (int i = 1; i < nn::simd::kNumIsas; ++i) {
    if (!isa_supported[i]) continue;  // never emit an unmeasured number
    const char* name = nn::simd::isa_name(static_cast<nn::simd::Isa>(i));
    std::fprintf(out, "  \"simd_%s_speedup_f32_vs_scalar_b256\": %.2f,\n",
                 name, isa_spd[i][0]);
    std::fprintf(out, "  \"simd_%s_speedup_f64_vs_scalar_b256\": %.2f,\n",
                 name, isa_spd[i][1]);
  }
  std::fprintf(out, "  \"checksum\": %.6f\n", acc);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("--- batched vs per-sample (batch %zu) ---\n", kBatch);
  std::printf(
      "batched %.0f ns/sample, workspace loop %.0f ns/sample (%.1fx), "
      "legacy loop %.0f ns/sample (%.1fx), %.3f allocs per batched forward\n",
      batched_ns, scalar_ns, scalar_ns / batched_ns, legacy_ns,
      legacy_ns / batched_ns,
      static_cast<double>(batched_allocs) / kReps);
  std::printf(
      "--- f32 serve backend (Branch-2 panel) ---\n"
      "batch 64:  f64 %.1f ns/sample, f32 %.1f ns/sample (%.2fx)\n"
      "batch 256: f64 %.1f ns/sample, f32 %.1f ns/sample (%.2fx), "
      "max |f32 - f64| = %.2e\n",
      panel_ns[0][0], panel_ns[0][1], panel_ns[0][0] / panel_ns[0][1],
      panel_ns[1][0], panel_ns[1][1], panel_ns[1][0] / panel_ns[1][1],
      f32_max_abs_diff);
  std::printf("--- explicit SIMD panel kernels (batch %zu, vs scalar) ---\n",
              kIsaBatch);
  for (int i = 0; i < nn::simd::kNumIsas; ++i) {
    const auto isa = static_cast<nn::simd::Isa>(i);
    if (isa_supported[i]) {
      std::printf("%s%s: f32 %.2fx, f64 %.2fx\n", nn::simd::isa_name(isa),
                  isa == nn::simd::active_isa() ? " [active]" : "",
                  isa_spd[i][0], isa_spd[i][1]);
    } else {
      std::printf("%s: not supported on this binary/host\n",
                  nn::simd::isa_name(isa));
    }
  }
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: CI smoke mode — skip the Google Benchmark sweep and emit the
  // JSON from a short measured run.
  std::vector<char*> argv_rest;
  const bool smoke = benchsupport::strip_smoke_flag(argc, argv, argv_rest);
  report_cost_model();
  // Smoke mode still executes the scalar cascade, one batched body, and
  // both precisions of the serve panel.
  benchsupport::run_benchmarks(argc, argv_rest, smoke,
                               "BM_FullCascade|BM_CascadeBatched/256$|"
                               "BM_PredictPanelF64/256$|"
                               "BM_PredictPanelF32/256$");
  // Reps are per repetition; every section runs 5 repetitions and keeps
  // the median, so the totals match the pre-median build (200 / 2000).
  emit_bench_json("BENCH_inference.json", smoke ? 40 : 400);
  return 0;
}
