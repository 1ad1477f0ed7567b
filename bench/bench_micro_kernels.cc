// Google-benchmark microbenchmarks for the tensor kernels and the MViT /
// ViT estimators. These quantify the building blocks behind Table 5 and
// Figure 8; the table/figure reproductions live in the bench_table* /
// bench_fig* binaries.

#include <benchmark/benchmark.h>

#include "core/estimator.h"
#include "core/unet.h"
#include "tensor/nn.h"
#include "tensor/ops.h"
#include "tensor/ops_internal.h"

namespace dot {
namespace {

void BM_Gemm(benchmark::State& state) {
  int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  std::vector<float> a(static_cast<size_t>(m * k), 0.5f);
  std::vector<float> b(static_cast<size_t>(k * n), 0.25f);
  std::vector<float> c(static_cast<size_t>(m * n));
  for (auto _ : state) {
    internal::Gemm(a.data(), b.data(), c.data(), m, k, n, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_Gemm)->Args({16, 144, 4096})->Args({64, 576, 256});

void BM_Conv2dForward(benchmark::State& state) {
  NoGradGuard guard;
  Rng rng(1);
  int64_t l = state.range(0);
  Tensor x = Tensor::Randn({8, 16, l, l}, &rng);
  Tensor w = Tensor::Randn({16, 16, 3, 3}, &rng);
  for (auto _ : state) {
    Tensor y = Conv2d(x, w, Tensor(), 1, 1);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(16)->Arg(24);

void BM_Conv2dForwardBatched(benchmark::State& state) {
  // Per-sample amortization of the batched implicit-GEMM lowering (one
  // GEMM over B*OH*OW columns gathered panel by panel from the input):
  // compare items_per_second across B at a fixed spatial size.
  NoGradGuard guard;
  Rng rng(5);
  int64_t b = state.range(0), l = state.range(1);
  Tensor x = Tensor::Randn({b, 16, l, l}, &rng);
  Tensor w = Tensor::Randn({16, 16, 3, 3}, &rng);
  for (auto _ : state) {
    Tensor y = Conv2d(x, w, Tensor(), 1, 1);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * b);
}
// arg0: batch size; arg1: L_G.
BENCHMARK(BM_Conv2dForwardBatched)
    ->Args({1, 16})
    ->Args({4, 16})
    ->Args({16, 16});

void BM_UnetForward(benchmark::State& state) {
  NoGradGuard guard;
  Rng rng(2);
  UnetConfig cfg;
  cfg.base_channels = 16;
  cfg.levels = 2;
  cfg.cond_dim = 64;
  cfg.max_steps = 200;
  UnetDenoiser unet(cfg, &rng);
  int64_t b = state.range(0);
  Tensor x = Tensor::Randn({b, 3, 16, 16}, &rng);
  Tensor cond = Tensor::Randn({b, 5}, &rng);
  std::vector<int64_t> steps(static_cast<size_t>(b), 10);
  for (auto _ : state) {
    Tensor y = unet.PredictNoise(x, steps, cond);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_UnetForward)->Arg(1)->Arg(8);

Pit SparsePit(int64_t grid, int64_t visited) {
  Pit pit(grid);
  for (int64_t i = 0; i < std::min(grid, visited); ++i) {
    pit.Set(kPitMask, i, i, 1.0f);
    pit.Set(kPitTimeOfDay, i, i, 0.1f);
    pit.Set(kPitTimeOffset, i, i, 0.0f);
  }
  return pit;
}

void BM_EstimatorForward(benchmark::State& state) {
  NoGradGuard guard;
  Rng rng(3);
  bool masked = state.range(0) == 1;
  int64_t grid = state.range(1);
  EstimatorConfig cfg;
  cfg.grid_size = grid;
  cfg.embed_dim = 64;
  cfg.layers = 2;
  TransformerEstimator est(cfg, masked, &rng);
  std::vector<Pit> batch(8, SparsePit(grid, grid));
  for (auto _ : state) {
    Tensor y = est.ForwardBatch(batch, {});
    benchmark::DoNotOptimize(y.data());
  }
}
// arg0: 1 = MViT (masked), 0 = vanilla ViT; arg1: L_G.
BENCHMARK(BM_EstimatorForward)
    ->Args({1, 16})
    ->Args({0, 16})
    ->Args({1, 24})
    ->Args({0, 24});

void BM_MultiheadAttention(benchmark::State& state) {
  NoGradGuard guard;
  Rng rng(4);
  int64_t tokens = state.range(0);
  nn::MultiheadAttention att(64, 4, &rng);
  Tensor x = Tensor::Randn({1, tokens, 64}, &rng);
  for (auto _ : state) {
    Tensor y = att.Forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MultiheadAttention)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
}  // namespace dot

BENCHMARK_MAIN();
