// Blocked + vectorized GEMM microkernel engine.
//
// Every dense hot path in DOT — the UNet's im2col conv2d, the MViT's
// attention products, and all FC layers — bottoms out in one of three GEMM
// variants (plain, A-transposed, B-transposed). This header exposes a
// single engine behind a runtime kernel switch:
//
//   naive    the original triple-loop kernels, kept verbatim as the
//            reference oracle for the differential test harness;
//   blocked  L1/L2-aware cache blocking (MC/KC/NC tiling with packed A/B
//            panels) around a portable 8x8 register-tiled microkernel —
//            plain C loops the compiler can autovectorize;
//   simd     the same blocked engine with an explicit AVX2/FMA (8x8) or
//            AVX-512 (8x32) microkernel, selected by a runtime CPU check.
//
// Selection: DOT_GEMM_KERNEL=naive|blocked|simd in the environment, or
// SetKernel() programmatically (tests/benches). The default is `simd` when
// the build and CPU support it, else `blocked`. Requesting `simd` on an
// unsupported CPU (or in a build without the intrinsics) falls back to
// `blocked` gracefully — ActiveKernel() reports what actually runs.
//
// Precision: an orthogonal DOT_GEMM_PRECISION=fp32|int8 knob (or
// SetPrecision()) selects a quantized serving path: symmetric per-channel
// int8 quantization (per row of op(A), per column of op(B)), int8 x int8
// -> int32 microkernels (scalar + AVX2 madd), and fp32 dequantization at
// the C-tile write. RunEx() is the precision-aware entry; plain Run() is
// always fp32. The int8 path composes with every Kernel value — kNaive is
// again the reference oracle — and falls back to fp32 per call for inputs
// it refuses (non-finite operands, k beyond the int32 accumulator bound).
// Weights can skip requantization via a cache keyed on their Storage; see
// DESIGN.md §5j for the scheme, tolerances, and invalidation contract.
//
// Determinism: for a fixed kernel, results are bitwise identical for any
// thread count. The engine partitions work across ThreadPool::Global() only
// along output rows/columns (packed-panel writers are disjoint) and keeps a
// fixed k-accumulation order (KC blocks ascending, k ascending inside each
// block), so no floating-point reduction ever depends on the partitioning.
// Tolerance across kernels is documented in DESIGN.md §5e and enforced by
// tests/gemm_differential_test.cc.

#ifndef DOT_TENSOR_GEMM_KERNEL_H_
#define DOT_TENSOR_GEMM_KERNEL_H_

#include <cstdint>

namespace dot {

class Storage;  // tensor/storage.h

namespace gemm {

enum class Kernel : int {
  kNaive = 0,
  kBlocked = 1,
  kSimd = 2,
};

/// Arithmetic the engine runs in. kInt8 quantizes both operands per
/// channel and accumulates exactly in int32, so for a fixed precision the
/// bitwise-determinism guarantees below still hold — and within kInt8 the
/// three kernels agree bitwise with each other (integer sums have no
/// association order).
enum class Precision : int {
  kFp32 = 0,
  kInt8 = 1,
};

/// Operand layout of the product C[m,n] = op(A) * op(B).
enum class Layout : int {
  kNN = 0,  ///< A[m,k] * B[k,n]
  kTA = 1,  ///< A[k,m]^T * B[k,n]
  kTB = 2,  ///< A[m,k] * B[n,k]^T
};

/// Stable lowercase name ("naive", "blocked", "simd").
const char* KernelName(Kernel kernel);

/// Parses a kernel name; returns false (and leaves `out` alone) on unknown
/// input. Accepts exactly the names produced by KernelName().
bool ParseKernelName(const char* name, Kernel* out);

/// True when the SIMD microkernel is compiled in AND the running CPU
/// supports it (AVX2+FMA at minimum; AVX-512F upgrades the tile width).
bool SimdAvailable();

/// The kernel every internal::Gemm* dispatch routes through. Resolved once
/// from DOT_GEMM_KERNEL (falling back to the default described above);
/// SetKernel overrides it for the rest of the process.
Kernel ActiveKernel();

/// Overrides the active kernel. A request for kSimd without SimdAvailable()
/// resolves to kBlocked. Returns the kernel that will actually run.
Kernel SetKernel(Kernel kernel);

/// C[m,n] (+)= op(A) * op(B) with the given kernel. `accumulate` adds into
/// existing C contents, otherwise C is overwritten. Degenerate problems are
/// handled uniformly for every kernel: m==0 or n==0 returns immediately and
/// k==0 only zero-fills C when !accumulate — `a`/`b`/`c` may be null
/// whenever the corresponding operand is empty.
void Run(Kernel kernel, Layout layout, const float* a, const float* b,
         float* c, int64_t m, int64_t k, int64_t n, bool accumulate);

/// Stable lowercase name ("fp32", "int8").
const char* PrecisionName(Precision precision);

/// Parses a precision name; returns false (and leaves `out` alone) on
/// unknown input. Accepts exactly the names produced by PrecisionName().
bool ParsePrecisionName(const char* name, Precision* out);

/// The precision RunEx-based dispatches route through. Resolved once from
/// DOT_GEMM_PRECISION (default kFp32); SetPrecision overrides it for the
/// rest of the process.
Precision ActivePrecision();

/// Overrides the active precision. Returns the precision that will run.
Precision SetPrecision(Precision precision);

/// Precision-aware Run(). For kFp32 this is exactly Run(). For kInt8 the
/// product is computed on quantized operands when eligible, falling back
/// to the fp32 kernel otherwise (degenerate dims always take the fp32
/// degenerate path — they never quantize). `a_storage` / `b_storage`
/// optionally name the backing Storage of a long-lived operand (a weight):
/// when non-null, its quantized panels are cached across calls keyed on
/// Storage::id() and dropped when the storage dies. Pass null for
/// activations and anything that may mutate between calls without its
/// storage being destroyed.
void RunEx(Kernel kernel, Precision precision, Layout layout, const float* a,
           const float* b, float* c, int64_t m, int64_t k, int64_t n,
           bool accumulate, Storage* a_storage = nullptr,
           Storage* b_storage = nullptr);

/// Geometry of a batched 2-D convolution lowered to one GEMM: NCHW input
/// [n, c, h, w], OIHW kernel [oc, c, kh, kw], output [n, oc, oh, ow]. Its
/// im2col matrix is [c*kh*kw, n*oh*ow]: row (c, kh, kw), column
/// (sample, oh, ow); taps outside the padded image read 0.0f.
struct ConvGeom {
  int64_t n = 0, c = 0, h = 0, w = 0;  // input
  int64_t oc = 0, kh = 0, kw = 0;      // kernel
  int64_t oh = 0, ow = 0;              // output
  int64_t stride = 1, pad = 0;
  int64_t ckk() const { return c * kh * kw; }
  int64_t ohw() const { return oh * ow; }
  int64_t cols() const { return n * ohw(); }
};

/// Materializes the whole [ckk, cols] im2col matrix of `x` into `col`,
/// partitioned over ThreadPool::Global() by rows (disjoint writes, so the
/// bytes do not depend on the thread count). The conv paths that need an
/// explicit matrix — the naive kernel, int8, the dW backward — use this;
/// the implicit path gathers the same values panel by panel.
void Im2Col(const ConvGeom& g, const float* x, float* col);

/// out[b, o, :] = w[o, :] * im2col(x)[:, sample b] + bias[o] for every
/// sample b, written straight into the [n, oc, oh*ow] output. `bias` may be
/// null, which adds 0.0f (so -0 becomes +0 exactly as with a zero bias).
/// For fp32 with the blocked/simd kernels this is an implicit GEMM: each
/// packed B panel is gathered straight from `x` and each finished C tile
/// lands in `out` with the bias added, so no column matrix or staging
/// buffer exists. The naive kernel (the differential oracle) and int8
/// materialize the matrix with Im2Col, run RunEx into a [oc, cols] staging
/// buffer and scatter it. Every route yields the same bits as that
/// materialized route under the same kernel and precision. `w_storage` is
/// RunEx's weight cache handle (int8 only).
void RunConv(Kernel kernel, Precision precision, const ConvGeom& g,
             const float* w, const float* x, const float* bias, float* out,
             Storage* w_storage = nullptr);

/// Quantized-weight cache introspection (tests, /metrics mirror these as
/// dot_gemm_quant_cache_entries / _bytes gauges).
int64_t QuantCacheEntries();
int64_t QuantCacheBytes();

/// Drops every cached quantized weight. Called by the optimizers and
/// Module::LoadFile after in-place weight mutation; hot swap needs no call
/// because the old model's Storages die and drop their own entries.
void ClearQuantCache();

namespace internal {
/// Storage::~Storage hook: drops the cache entries keyed on `storage_id`
/// (flag-gated on the storage side, so untouched storages never call in).
void DropQuantEntriesFor(uint64_t storage_id);
}  // namespace internal

}  // namespace gemm
}  // namespace dot

#endif  // DOT_TENSOR_GEMM_KERNEL_H_
