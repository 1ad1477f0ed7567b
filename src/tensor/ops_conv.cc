// Convolution, pooling and upsampling for NCHW tensors.
//
// Conv2d lowers the whole batch to a single GEMM, [OC, C*KH*KW] x
// im2col(x) [C*KH*KW, B*OH*OW], so the product runs with a long streaming
// dimension (order-of-magnitude better throughput on one core than
// per-sample GEMMs). gemm::RunConv runs it as an implicit GEMM on the
// blocked/SIMD kernels: the engine gathers each packed B panel straight
// from the NCHW input and writes each finished tile straight into the
// [B, OC, OH*OW] output with the bias added, so no column matrix or
// staging buffer exists. The naive kernel and int8 precision materialize
// the column matrix with gemm::Im2Col (the same gather). Per-element
// results are independent of the batch position, so batched and
// per-sample convs stay bitwise equal under every kernel. The backward
// pass materializes the column matrix again for dW (memory-for-time
// trade-off appropriate to the small PiT images this library trains on).
//
// The col2im and gradient-gather loops are partitioned over
// ThreadPool::Global() by (sample, channel) — each work item writes a
// disjoint region of the destination buffer and performs no cross-item
// reduction, so results are bitwise identical for any thread count (the
// determinism the batched serving path and determinism_test rely on).

#include <algorithm>

#include "obs/profile.h"
#include "obs/trace.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "tensor/ops_internal.h"
#include "util/thread_pool.h"

namespace dot {

using gemm::ConvGeom;
using internal::AttachNode;
using internal::NeedsGrad;

namespace {

/// Picks a ParallelFor chunk size so each task covers at least
/// `kMinParallelElems` written elements (`per_item` = elements per item).
int64_t ChunkFor(int64_t per_item) {
  constexpr int64_t kMinParallelElems = 4096;
  return std::max<int64_t>(1, kMinParallelElems / std::max<int64_t>(1, per_item));
}

/// Scatter-adds one (sample, channel) plane's column gradients (strided
/// layout) back into that plane's input gradient.
void Col2ImChannel(const float* col, const ConvGeom& d, int64_t c,
                   int64_t row_stride, int64_t col_offset, float* gc) {
  for (int64_t kh = 0; kh < d.kh; ++kh) {
    for (int64_t kw = 0; kw < d.kw; ++kw) {
      const float* crow =
          col + ((c * d.kh + kh) * d.kw + kw) * row_stride + col_offset;
      for (int64_t oh = 0; oh < d.oh; ++oh) {
        int64_t ih = oh * d.stride + kh - d.pad;
        if (ih < 0 || ih >= d.h) continue;
        const float* src = crow + oh * d.ow;
        float* dst = gc + ih * d.w;
        for (int64_t ow = 0; ow < d.ow; ++ow) {
          int64_t iw = ow * d.stride + kw - d.pad;
          if (iw >= 0 && iw < d.w) dst[iw] += src[ow];
        }
      }
    }
  }
}

/// Scatters the whole batch's column gradients back into the input
/// gradient, partitioned over the pool by (sample, channel) plane. Each
/// plane accumulates only into its own gx slice in a fixed loop order.
void BatchCol2Im(const float* col, const ConvGeom& d, float* gx) {
  int64_t total = d.cols();
  int64_t items = d.n * d.c;
  ParallelFor(
      ThreadPool::Global(), items,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          int64_t b = i / d.c, c = i % d.c;
          Col2ImChannel(col, d, c, total, b * d.ohw(),
                        gx + (b * d.c + c) * d.h * d.w);
        }
      },
      ChunkFor(d.kh * d.kw * d.ohw()));
}

}  // namespace

Tensor Conv2d(const Tensor& x, const Tensor& w, const Tensor& bias, int64_t stride,
              int64_t padding) {
  DOT_CHECK(x.dim() == 4 && w.dim() == 4) << "Conv2d needs NCHW input and OIHW kernel";
  ConvGeom d;
  d.n = x.size(0);
  d.c = x.size(1);
  d.h = x.size(2);
  d.w = x.size(3);
  d.oc = w.size(0);
  DOT_CHECK(w.size(1) == d.c) << "Conv2d channel mismatch";
  d.kh = w.size(2);
  d.kw = w.size(3);
  d.stride = stride;
  d.pad = padding;
  d.oh = (d.h + 2 * padding - d.kh) / stride + 1;
  d.ow = (d.w + 2 * padding - d.kw) / stride + 1;
  DOT_CHECK(d.oh > 0 && d.ow > 0) << "Conv2d output collapsed to zero";
  bool has_bias = bias.defined();
  if (has_bias) DOT_CHECK(bias.numel() == d.oc) << "Conv2d bias size";

  // Observability hooks; both collapse to one relaxed load when disabled.
  // FLOPs: the lowered GEMM's 2 * OC * CKK multiply-adds per output pixel.
  obs::OpTimer op_timer(obs::OpKind::kConv2d,
                        2.0 * static_cast<double>(d.oc) *
                            static_cast<double>(d.ckk()) *
                            static_cast<double>(d.cols()));
  obs::TraceSpan span("conv2d");

  Tensor out = Tensor::Empty({d.n, d.oc, d.oh, d.ow});
  // Recording forwards stay fp32 (the grad-mode contract of internal::Gemm).
  // The weight is the A operand — its quantized panels are cacheable when
  // serving int8.
  gemm::RunConv(gemm::ActiveKernel(),
                GradModeEnabled() ? gemm::Precision::kFp32
                                  : gemm::ActivePrecision(),
                d, w.data(), x.data(), has_bias ? bias.data() : nullptr,
                out.data(), internal::QuantWeightHandle(w));

  std::vector<Tensor> inputs = {x, w};
  if (has_bias) inputs.push_back(bias);
  Tensor x_cap = x, w_cap = w, b_cap = bias;
  AttachNode(&out, "conv2d", inputs,
             [x_cap, w_cap, b_cap, d, has_bias](const Tensor& o) {
               Tensor x = x_cap, w = w_cap, b = b_cap;
               const int64_t cols = d.cols();
               const float* gout = o.grad_vec().data();
               bool need_x = NeedsGrad(x);
               bool need_w = NeedsGrad(w);
               bool need_b = has_bias && NeedsGrad(b);

               // Gather dOut into [OC, B*OHW] once (disjoint row segments
               // per task, deterministic for any partitioning). Pooled
               // scratch; every element is written by the copy below.
               storage::Scratch gall(d.oc * cols);
               float* gall_ptr = gall.data();
               ParallelFor(
                   ThreadPool::Global(), d.n * d.oc,
                   [&](int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) {
                       int64_t bb = i / d.oc, oc = i % d.oc;
                       const float* src = gout + i * d.ohw();
                       float* dst = gall_ptr + oc * cols + bb * d.ohw();
                       std::copy(src, src + d.ohw(), dst);
                     }
                   },
                   ChunkFor(d.ohw()));
               if (need_b) {
                 float* gb = b.grad();
                 for (int64_t oc = 0; oc < d.oc; ++oc) {
                   const float* row = gall.data() + oc * cols;
                   float acc = 0;
                   for (int64_t i = 0; i < cols; ++i) acc += row[i];
                   gb[oc] += acc;
                 }
               }
               if (need_w) {
                 storage::Scratch col(d.ckk() * cols);
                 gemm::Im2Col(d, x.data(), col.data());
                 // dW += dOut_all * col^T : one GEMM over the long k = B*OHW.
                 internal::GemmTB(gall.data(), col.data(), w.grad(), d.oc, cols,
                                  d.ckk(), true);
               }
               if (need_x) {
                 storage::Scratch gcol(d.ckk() * cols);
                 // dcol = W^T * dOut_all : [CKK, OC] x [OC, B*OHW].
                 internal::GemmTA(w.data(), gall.data(), gcol.data(), d.ckk(),
                                  d.oc, cols, false);
                 BatchCol2Im(gcol.data(), d, x.grad());
               }
             });
  return out;
}

Tensor AvgPool2d(const Tensor& x) {
  DOT_CHECK(x.dim() == 4) << "AvgPool2d needs NCHW";
  int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  DOT_CHECK(h % 2 == 0 && w % 2 == 0) << "AvgPool2d requires even H and W";
  int64_t oh = h / 2, ow = w / 2;
  Tensor out = Tensor::Empty({n, c, oh, ow});
  const float* xp = x.data();
  float* op = out.data();
  for (int64_t nc = 0; nc < n * c; ++nc) {
    const float* in = xp + nc * h * w;
    float* o = op + nc * oh * ow;
    for (int64_t i = 0; i < oh; ++i) {
      for (int64_t j = 0; j < ow; ++j) {
        const float* p = in + (2 * i) * w + 2 * j;
        o[i * ow + j] = 0.25f * (p[0] + p[1] + p[w] + p[w + 1]);
      }
    }
  }
  Tensor x_cap = x;
  AttachNode(&out, "avg_pool2d", {x}, [x_cap, n, c, h, w, oh, ow](const Tensor& o) {
    Tensor x = x_cap;
    float* gx = x.grad();
    const float* gout = o.grad_vec().data();
    for (int64_t nc = 0; nc < n * c; ++nc) {
      float* gi = gx + nc * h * w;
      const float* go = gout + nc * oh * ow;
      for (int64_t i = 0; i < oh; ++i) {
        for (int64_t j = 0; j < ow; ++j) {
          float g = 0.25f * go[i * ow + j];
          float* p = gi + (2 * i) * w + 2 * j;
          p[0] += g;
          p[1] += g;
          p[w] += g;
          p[w + 1] += g;
        }
      }
    }
  });
  return out;
}

Tensor UpsampleNearest2x(const Tensor& x) {
  DOT_CHECK(x.dim() == 4) << "UpsampleNearest2x needs NCHW";
  int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  int64_t oh = 2 * h, ow = 2 * w;
  Tensor out = Tensor::Empty({n, c, oh, ow});
  const float* xp = x.data();
  float* op = out.data();
  for (int64_t nc = 0; nc < n * c; ++nc) {
    const float* in = xp + nc * h * w;
    float* o = op + nc * oh * ow;
    for (int64_t i = 0; i < oh; ++i) {
      const float* irow = in + (i / 2) * w;
      float* orow = o + i * ow;
      for (int64_t j = 0; j < ow; ++j) orow[j] = irow[j / 2];
    }
  }
  Tensor x_cap = x;
  AttachNode(&out, "upsample2x", {x}, [x_cap, n, c, h, w, oh, ow](const Tensor& o) {
    Tensor x = x_cap;
    float* gx = x.grad();
    const float* gout = o.grad_vec().data();
    for (int64_t nc = 0; nc < n * c; ++nc) {
      float* gi = gx + nc * h * w;
      const float* go = gout + nc * oh * ow;
      for (int64_t i = 0; i < oh; ++i) {
        float* irow = gi + (i / 2) * w;
        const float* orow = go + i * ow;
        for (int64_t j = 0; j < ow; ++j) irow[j / 2] += orow[j];
      }
    }
  });
  return out;
}

}  // namespace dot
