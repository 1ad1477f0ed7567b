// Differential test for the implicit-GEMM convolution (gemm::RunConv).
//
// The reference is the materialized lowering, written out here so it does
// not share code with the engine: im2col into a [C*KH*KW, B*OH*OW] column
// buffer, one gemm::RunEx product into a [OC, B*OH*OW] staging buffer with
// the same kernel and precision, then a scatter into [B, OC, OH*OW] that
// adds the bias (0.0f when there is none). The implicit route packs the
// same values in the same k order and runs the same microkernel, so the
// two must agree byte for byte: every comparison below is memcmp, not a
// tolerance. The grid straddles samples inside an NR-wide tile (OH*OW of
// 400, 25, 9 and odd sizes with NR = 8 or 32), has output rows of up to
// 16, up to 32 and over 32 floats, spans several KC = 256 blocks (C*KH*KW
// up to 576), and covers stride 1/2, pad 0/1, 1x1 and 3x3 kernels, batch
// 1..5, partial MR row tiles and bias/no bias. The backward pass (dX, dW,
// db) is checked against the same reference.

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace dot {
namespace {

// A multi-worker pool before the global pool is first touched, so the
// parallel panel packing and scatter partitions are exercised.
const bool kForceThreads = [] {
  setenv("DOT_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

struct ConvCase {
  int64_t n, c, oc, h, w, kernel, stride, pad;
  bool with_bias;
};

std::string CaseName(const ::testing::TestParamInfo<ConvCase>& info) {
  const ConvCase& p = info.param;
  return "n" + std::to_string(p.n) + "c" + std::to_string(p.c) + "o" +
         std::to_string(p.oc) + "h" + std::to_string(p.h) + "w" +
         std::to_string(p.w) + "k" + std::to_string(p.kernel) + "s" +
         std::to_string(p.stride) + "p" + std::to_string(p.pad) +
         (p.with_bias ? "b" : "nb");
}

gemm::ConvGeom GeomOf(const ConvCase& p) {
  gemm::ConvGeom g;
  g.n = p.n;
  g.c = p.c;
  g.h = p.h;
  g.w = p.w;
  g.oc = p.oc;
  g.kh = p.kernel;
  g.kw = p.kernel;
  g.stride = p.stride;
  g.pad = p.pad;
  g.oh = (p.h + 2 * p.pad - p.kernel) / p.stride + 1;
  g.ow = (p.w + 2 * p.pad - p.kernel) / p.stride + 1;
  return g;
}

Tensor RandomTensor(std::vector<int64_t> shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Rand(std::move(shape), &rng, -1.0f, 1.0f);
}

/// The materialized column matrix, element by element.
std::vector<float> RefIm2Col(const gemm::ConvGeom& g, const float* x) {
  const int64_t cols = g.cols();
  std::vector<float> col(static_cast<size_t>(g.ckk() * cols));
  for (int64_t c = 0; c < g.c; ++c) {
    for (int64_t ki = 0; ki < g.kh; ++ki) {
      for (int64_t kj = 0; kj < g.kw; ++kj) {
        const int64_t row = (c * g.kh + ki) * g.kw + kj;
        for (int64_t b = 0; b < g.n; ++b) {
          for (int64_t oh = 0; oh < g.oh; ++oh) {
            for (int64_t ow = 0; ow < g.ow; ++ow) {
              const int64_t ih = oh * g.stride + ki - g.pad;
              const int64_t iw = ow * g.stride + kj - g.pad;
              const bool in = ih >= 0 && ih < g.h && iw >= 0 && iw < g.w;
              col[static_cast<size_t>(row * cols + b * g.ohw() + oh * g.ow +
                                      ow)] =
                  in ? x[((b * g.c + c) * g.h + ih) * g.w + iw] : 0.0f;
            }
          }
        }
      }
    }
  }
  return col;
}

/// Materialize -> one RunEx product -> scatter with the bias.
std::vector<float> RefForward(gemm::Kernel kernel, gemm::Precision precision,
                              const gemm::ConvGeom& g, const float* w,
                              const float* x, const float* bias) {
  const int64_t cols = g.cols();
  std::vector<float> col = RefIm2Col(g, x);
  std::vector<float> tmp(static_cast<size_t>(g.oc * cols));
  gemm::RunEx(kernel, precision, gemm::Layout::kNN, w, col.data(), tmp.data(),
              g.oc, g.ckk(), cols, /*accumulate=*/false);
  std::vector<float> out(static_cast<size_t>(g.n * g.oc * g.ohw()));
  for (int64_t b = 0; b < g.n; ++b) {
    for (int64_t o = 0; o < g.oc; ++o) {
      const float bv = bias ? bias[o] : 0.0f;
      for (int64_t j = 0; j < g.ohw(); ++j) {
        out[static_cast<size_t>((b * g.oc + o) * g.ohw() + j)] =
            tmp[static_cast<size_t>(o * cols + b * g.ohw() + j)] + bv;
      }
    }
  }
  return out;
}

bool BitwiseEqual(const std::vector<float>& a, const float* b) {
  return std::memcmp(a.data(), b, a.size() * sizeof(float)) == 0;
}

struct KernelPin {
  gemm::Kernel prev = gemm::ActiveKernel();
  ~KernelPin() { gemm::SetKernel(prev); }
};

const gemm::Kernel kKernels[] = {gemm::Kernel::kNaive, gemm::Kernel::kBlocked,
                                 gemm::Kernel::kSimd};

class ConvDifferential : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvDifferential, RunConvMatchesMaterializedLowering) {
  const ConvCase p = GetParam();
  const gemm::ConvGeom g = GeomOf(p);
  Tensor x = RandomTensor({p.n, p.c, p.h, p.w}, 11);
  Tensor w = RandomTensor({p.oc, p.c, p.kernel, p.kernel}, 12);
  Tensor bias = RandomTensor({p.oc}, 13);
  const float* bp = p.with_bias ? bias.data() : nullptr;
  // Both precisions: fp32 takes the implicit route on blocked/simd, int8
  // the materialized one; each must equal the reference under its own
  // precision.
  for (gemm::Precision precision :
       {gemm::Precision::kFp32, gemm::Precision::kInt8}) {
    for (gemm::Kernel kernel : kKernels) {
      std::vector<float> want =
          RefForward(kernel, precision, g, w.data(), x.data(), bp);
      std::vector<float> got(want.size(), -7.0f);
      gemm::RunConv(kernel, precision, g, w.data(), x.data(), bp, got.data());
      EXPECT_TRUE(BitwiseEqual(want, got.data()))
          << gemm::KernelName(kernel) << "/" << gemm::PrecisionName(precision);
    }
  }
}

TEST_P(ConvDifferential, Conv2dForwardMatchesUnderActivePrecision) {
  const ConvCase p = GetParam();
  const gemm::ConvGeom g = GeomOf(p);
  Tensor x = RandomTensor({p.n, p.c, p.h, p.w}, 21);
  Tensor w = RandomTensor({p.oc, p.c, p.kernel, p.kernel}, 22);
  Tensor bias = p.with_bias ? RandomTensor({p.oc}, 23) : Tensor();
  KernelPin pin;
  NoGradGuard no_grad;  // serving forward: DOT_GEMM_PRECISION applies
  for (gemm::Kernel kernel : kKernels) {
    kernel = gemm::SetKernel(kernel);
    Tensor y = Conv2d(x, w, bias, p.stride, p.pad);
    std::vector<float> want =
        RefForward(kernel, gemm::ActivePrecision(), g, w.data(), x.data(),
                   p.with_bias ? bias.data() : nullptr);
    ASSERT_EQ(y.numel(), static_cast<int64_t>(want.size()));
    EXPECT_TRUE(BitwiseEqual(want, y.data())) << gemm::KernelName(kernel);
  }
}

TEST_P(ConvDifferential, BackwardMatchesMaterializedLowering) {
  const ConvCase p = GetParam();
  const gemm::ConvGeom g = GeomOf(p);
  const int64_t cols = g.cols();
  KernelPin pin;
  for (gemm::Kernel kernel : kKernels) {
    kernel = gemm::SetKernel(kernel);
    Tensor x = RandomTensor({p.n, p.c, p.h, p.w}, 31);
    Tensor w = RandomTensor({p.oc, p.c, p.kernel, p.kernel}, 32);
    Tensor bias = p.with_bias ? RandomTensor({p.oc}, 33) : Tensor();
    Tensor gy = RandomTensor({p.n, p.oc, g.oh, g.ow}, 34);
    x.set_requires_grad(true);
    w.set_requires_grad(true);
    if (p.with_bias) bias.set_requires_grad(true);
    // d(sum(y * gy))/dy = 1 * gy exactly, so the conv backward sees gy.
    Sum(Mul(Conv2d(x, w, bias, p.stride, p.pad), gy)).Backward();

    // Reference: gather gy into [OC, cols], dW = gy * col^T, dcol = W^T *
    // gy, col2im in (channel, kh, kw, oh, ow) order, db = row sums.
    std::vector<float> gall(static_cast<size_t>(g.oc * cols));
    for (int64_t b = 0; b < g.n; ++b)
      for (int64_t o = 0; o < g.oc; ++o)
        std::memcpy(&gall[static_cast<size_t>(o * cols + b * g.ohw())],
                    gy.data() + (b * g.oc + o) * g.ohw(),
                    static_cast<size_t>(g.ohw()) * sizeof(float));
    std::vector<float> col = RefIm2Col(g, x.data());
    std::vector<float> dw(static_cast<size_t>(w.numel()), 0.0f);
    gemm::Run(kernel, gemm::Layout::kTB, gall.data(), col.data(), dw.data(),
              g.oc, cols, g.ckk(), /*accumulate=*/true);
    EXPECT_TRUE(BitwiseEqual(dw, w.grad())) << "dW " << gemm::KernelName(kernel);

    std::vector<float> gcol(static_cast<size_t>(g.ckk() * cols));
    gemm::Run(kernel, gemm::Layout::kTA, w.data(), gall.data(), gcol.data(),
              g.ckk(), g.oc, cols, /*accumulate=*/false);
    std::vector<float> dx(static_cast<size_t>(x.numel()), 0.0f);
    for (int64_t b = 0; b < g.n; ++b) {
      for (int64_t c = 0; c < g.c; ++c) {
        for (int64_t ki = 0; ki < g.kh; ++ki) {
          for (int64_t kj = 0; kj < g.kw; ++kj) {
            const int64_t row = (c * g.kh + ki) * g.kw + kj;
            for (int64_t oh = 0; oh < g.oh; ++oh) {
              for (int64_t ow = 0; ow < g.ow; ++ow) {
                const int64_t ih = oh * g.stride + ki - g.pad;
                const int64_t iw = ow * g.stride + kj - g.pad;
                if (ih < 0 || ih >= g.h || iw < 0 || iw >= g.w) continue;
                dx[static_cast<size_t>(((b * g.c + c) * g.h + ih) * g.w + iw)] +=
                    gcol[static_cast<size_t>(row * cols + b * g.ohw() +
                                             oh * g.ow + ow)];
              }
            }
          }
        }
      }
    }
    EXPECT_TRUE(BitwiseEqual(dx, x.grad())) << "dX " << gemm::KernelName(kernel);

    if (p.with_bias) {
      std::vector<float> db(static_cast<size_t>(g.oc), 0.0f);
      for (int64_t o = 0; o < g.oc; ++o) {
        float acc = 0;
        for (int64_t i = 0; i < cols; ++i)
          acc += gall[static_cast<size_t>(o * cols + i)];
        db[static_cast<size_t>(o)] += acc;
      }
      EXPECT_TRUE(BitwiseEqual(db, bias.grad()))
          << "db " << gemm::KernelName(kernel);
    }
  }
}

TEST(ConvDifferential, Im2ColMatchesReferenceOnEveryCase) {
  for (const ConvCase& p : {ConvCase{3, 5, 4, 7, 6, 3, 2, 1, false},
                            ConvCase{2, 3, 4, 5, 5, 3, 1, 0, false},
                            ConvCase{4, 2, 4, 3, 3, 3, 1, 1, false}}) {
    const gemm::ConvGeom g = GeomOf(p);
    Tensor x = RandomTensor({p.n, p.c, p.h, p.w}, 41);
    std::vector<float> want = RefIm2Col(g, x.data());
    std::vector<float> got(want.size(), -7.0f);
    gemm::Im2Col(g, x.data(), got.data());
    EXPECT_TRUE(BitwiseEqual(want, got.data()));
  }
}

// Products of 1e-30 and -1e-30 underflow to -0, so every sum the GEMM
// forms is -0. A bias-less conv still adds 0.0f, which makes them +0 on
// every route, including tiles that straddle samples (OH*OW = 9).
TEST(ConvDifferential, BiaslessConvTurnsNegativeZeroPositive) {
  const ConvCase p{5, 8, 12, 3, 3, 3, 1, 1, false};
  const gemm::ConvGeom g = GeomOf(p);
  Tensor x = Tensor::Full({p.n, p.c, p.h, p.w}, 1e-30f);
  Tensor w = Tensor::Full({p.oc, p.c, p.kernel, p.kernel}, -1e-30f);
  for (gemm::Kernel kernel : kKernels) {
    std::vector<float> product(static_cast<size_t>(g.oc * g.cols()));
    gemm::Run(kernel, gemm::Layout::kNN, w.data(), RefIm2Col(g, x.data()).data(),
              product.data(), g.oc, g.ckk(), g.cols(), /*accumulate=*/false);
    ASSERT_TRUE(std::signbit(product[0])) << gemm::KernelName(kernel);
    std::vector<float> want = RefForward(kernel, gemm::Precision::kFp32, g,
                                         w.data(), x.data(), nullptr);
    std::vector<float> got(want.size(), -7.0f);
    gemm::RunConv(kernel, gemm::Precision::kFp32, g, w.data(), x.data(),
                  nullptr, got.data());
    EXPECT_TRUE(BitwiseEqual(want, got.data())) << gemm::KernelName(kernel);
    for (float v : got) {
      ASSERT_EQ(v, 0.0f);
      ASSERT_FALSE(std::signbit(v)) << gemm::KernelName(kernel);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvDifferential,
    ::testing::Values(
        // Paper-shaped levels: OH*OW = 400, 100, 25 with 3x3 pad 1.
        ConvCase{4, 16, 16, 20, 20, 3, 1, 1, true},
        ConvCase{3, 32, 32, 10, 10, 3, 1, 1, false},  // CKK 288: two KC blocks
        ConvCase{5, 64, 24, 5, 5, 3, 1, 1, true},     // CKK 576: three blocks
        ConvCase{2, 48, 13, 5, 5, 3, 1, 1, false},    // partial MR tile
        // OH*OW = 9: every tile straddles several samples.
        ConvCase{5, 8, 8, 3, 3, 3, 1, 1, true},
        ConvCase{1, 8, 8, 3, 3, 3, 1, 1, false},
        // Stride 2 downsampling, pad 0 and 1, odd sizes.
        ConvCase{3, 16, 32, 20, 20, 3, 2, 1, true},
        ConvCase{2, 30, 9, 7, 9, 3, 2, 0, false},
        ConvCase{5, 3, 5, 11, 7, 3, 2, 1, true},
        // 1x1 kernels, including CKK > 256.
        ConvCase{4, 300, 16, 5, 5, 1, 1, 0, true},
        ConvCase{2, 7, 11, 6, 7, 1, 1, 0, false},
        ConvCase{3, 4, 6, 8, 6, 1, 2, 0, true},
        ConvCase{1, 2, 3, 4, 4, 1, 1, 1, false},
        // Batch 1..5 around one shape, pad 0.
        ConvCase{1, 6, 10, 9, 8, 3, 1, 0, true},
        ConvCase{2, 6, 10, 9, 8, 3, 1, 0, false},
        ConvCase{3, 6, 10, 9, 8, 3, 1, 1, true},
        ConvCase{4, 6, 10, 9, 8, 3, 1, 1, false},
        // Output rows of exactly one and two 16-float vectors, and longer.
        ConvCase{2, 4, 8, 3, 16, 3, 1, 1, false},
        ConvCase{2, 4, 8, 2, 32, 3, 1, 1, true},
        ConvCase{2, 3, 9, 4, 40, 3, 1, 1, true}),
    CaseName);

}  // namespace
}  // namespace dot
