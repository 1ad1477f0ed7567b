// Bitwise tests for the run-based strided loops behind the broadcasting
// binary ops (Add/Sub/Mul forward and backward), AddInPlace_ and Permute
// (forward and backward).
//
// The reference is a per-element odometer walk written out here: it visits
// the output in row-major order and recomputes every operand offset from
// the multi-index. The ops merge contiguous dimensions and loop runs, but
// must visit elements — and accumulate a broadcast operand's gradient — in
// exactly that order, so every comparison is memcmp.

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "util/rng.h"

namespace dot {
namespace {

Tensor RandomTensor(std::vector<int64_t> shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Rand(std::move(shape), &rng, -1.0f, 1.0f);
}

std::vector<int64_t> RowMajor(const std::vector<int64_t>& shape) {
  std::vector<int64_t> s(shape.size(), 1);
  for (size_t i = shape.size(); i-- > 1;) s[i - 1] = s[i] * shape[i];
  return s;
}

int64_t Numel(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return n;
}

/// Odometer over `out_shape`: fn(flat, offsets) with offsets[k] the
/// element of operand k, whose per-dim strides are strides[k].
void Odometer(const std::vector<int64_t>& out_shape,
              const std::vector<std::vector<int64_t>>& strides,
              const std::function<void(int64_t, const std::vector<int64_t>&)>& fn) {
  const size_t nd = out_shape.size();
  std::vector<int64_t> idx(nd, 0), off(strides.size());
  for (int64_t flat = 0; flat < Numel(out_shape); ++flat) {
    for (size_t k = 0; k < strides.size(); ++k) {
      off[k] = 0;
      for (size_t d = 0; d < nd; ++d) off[k] += idx[d] * strides[k][d];
    }
    fn(flat, off);
    for (size_t d = nd; d-- > 0;) {
      if (++idx[d] < out_shape[d]) break;
      idx[d] = 0;
    }
  }
}

/// Broadcast strides of `shape` against an output of rank `nd` (0 on
/// broadcast dims).
std::vector<int64_t> BroadcastStrides(const std::vector<int64_t>& shape,
                                      const std::vector<int64_t>& out_shape) {
  std::vector<int64_t> row = RowMajor(shape), out(out_shape.size(), 0);
  const size_t lead = out_shape.size() - shape.size();
  for (size_t i = 0; i < shape.size(); ++i)
    out[lead + i] = shape[i] == 1 ? 0 : row[i];
  return out;
}

bool BitwiseEqual(const std::vector<float>& want, const float* got) {
  return std::memcmp(want.data(), got, want.size() * sizeof(float)) == 0;
}

std::string ShapeName(const std::vector<int64_t>& shape) {
  std::string s = "[";
  for (size_t i = 0; i < shape.size(); ++i) s += (i ? "," : "") + std::to_string(shape[i]);
  return s + "]";
}

struct BinaryCase {
  std::vector<int64_t> a, b;
};

// Ranks 1-4; broadcast on leading, middle and trailing dims, on both sides;
// size-1 inner dims; the OCConv channel shift [B,C,1,1] and the Linear bias
// add [N,D] + [D].
const BinaryCase kBinaryCases[] = {
    {{7}, {7}},
    {{7}, {1}},
    {{1}, {7}},
    {{3, 5}, {5}},
    {{3, 5}, {3, 1}},
    {{3, 1}, {1, 5}},
    {{6, 16}, {16}},
    {{2, 3, 4}, {3, 1}},
    {{2, 1, 4}, {2, 3, 4}},
    {{3, 4, 1}, {3, 1, 1}},
    {{5, 1}, {1, 1}},
    {{2, 3, 4, 5}, {2, 3, 1, 1}},
    {{2, 3, 4, 5}, {1, 3, 1, 1}},
    {{2, 1, 4, 5}, {1, 3, 1, 5}},
    {{2, 3, 4, 1}, {4, 1}},
    {{1, 1, 1, 1}, {2, 3, 4, 5}},
    {{4, 5}, {2, 3, 4, 5}},
    {{2, 3, 4, 5}, {2, 1, 4, 1}},
    {{2, 3, 1, 5}, {2, 3, 4, 5}},
};

using BinaryFn = Tensor (*)(const Tensor&, const Tensor&);

struct BinarySpec {
  const char* name;
  BinaryFn op;
  std::function<float(float, float)> fwd, dfa, dfb;
};

const BinarySpec& Spec(int i) {
  static const BinarySpec kSpecs[] = {
      {"add", &Add, [](float x, float y) { return x + y; },
       [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; }},
      {"sub", &Sub, [](float x, float y) { return x - y; },
       [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; }},
      {"mul", &Mul, [](float x, float y) { return x * y; },
       [](float, float y) { return y; }, [](float x, float) { return x; }},
  };
  return kSpecs[i];
}

TEST(StridedLoops, BinaryOpsMatchOdometerForwardAndBackward) {
  for (int s = 0; s < 3; ++s) {
    const BinarySpec& spec = Spec(s);
    uint64_t seed = 100;
    for (const BinaryCase& c : kBinaryCases) {
      SCOPED_TRACE(std::string(spec.name) + " " + ShapeName(c.a) + " " +
                   ShapeName(c.b));
      Tensor a = RandomTensor(c.a, ++seed);
      Tensor b = RandomTensor(c.b, ++seed);
      a.set_requires_grad(true);
      b.set_requires_grad(true);
      Tensor y = spec.op(a, b);
      const std::vector<int64_t> out_shape = y.shape();
      Tensor gy = RandomTensor(out_shape, ++seed);
      // d(sum(y * gy))/dy = 1 * gy exactly.
      Sum(Mul(y, gy)).Backward();

      const std::vector<int64_t> sa = BroadcastStrides(c.a, out_shape);
      const std::vector<int64_t> sb = BroadcastStrides(c.b, out_shape);
      std::vector<float> want_y(static_cast<size_t>(y.numel()));
      std::vector<float> want_ga(static_cast<size_t>(a.numel()), 0.0f);
      std::vector<float> want_gb(static_cast<size_t>(b.numel()), 0.0f);
      const float* ap = a.data();
      const float* bp = b.data();
      const float* g = gy.data();
      Odometer(out_shape, {sa, sb},
               [&](int64_t flat, const std::vector<int64_t>& off) {
                 const float av = ap[off[0]], bv = bp[off[1]];
                 want_y[static_cast<size_t>(flat)] = spec.fwd(av, bv);
                 want_ga[static_cast<size_t>(off[0])] += g[flat] * spec.dfa(av, bv);
                 want_gb[static_cast<size_t>(off[1])] += g[flat] * spec.dfb(av, bv);
               });
      EXPECT_TRUE(BitwiseEqual(want_y, y.data())) << "forward";
      EXPECT_TRUE(BitwiseEqual(want_ga, a.grad())) << "grad a";
      EXPECT_TRUE(BitwiseEqual(want_gb, b.grad())) << "grad b";
    }
  }
}

TEST(StridedLoops, SameTensorOnBothSidesAccumulatesBothGradients) {
  Tensor a = RandomTensor({3, 4}, 7);
  a.set_requires_grad(true);
  Sum(Mul(a, a)).Backward();
  std::vector<float> want(12, 0.0f);
  for (size_t i = 0; i < want.size(); ++i) want[i] += a.data()[i];
  for (size_t i = 0; i < want.size(); ++i) want[i] += a.data()[i];
  EXPECT_TRUE(BitwiseEqual(want, a.grad()));
}

TEST(StridedLoops, AddInPlaceMatchesOdometer) {
  NoGradGuard no_grad;
  uint64_t seed = 300;
  for (const BinaryCase& c : kBinaryCases) {
    if (c.a.size() < c.b.size()) continue;
    const std::vector<int64_t>& out_shape = c.a;
    bool fits = true;
    for (size_t i = 0; i < c.b.size(); ++i) {
      const int64_t da = c.a[c.a.size() - c.b.size() + i];
      fits = fits && (c.b[i] == da || c.b[i] == 1);
    }
    if (!fits) continue;
    SCOPED_TRACE(ShapeName(c.a) + " += " + ShapeName(c.b));
    Tensor a = RandomTensor(c.a, ++seed);
    Tensor b = RandomTensor(c.b, ++seed);
    std::vector<float> want = a.ToVector();
    const float* bp = b.data();
    Odometer(out_shape, {BroadcastStrides(c.b, out_shape)},
             [&](int64_t flat, const std::vector<int64_t>& off) {
               want[static_cast<size_t>(flat)] += bp[off[0]];
             });
    AddInPlace_(a, b);
    EXPECT_TRUE(BitwiseEqual(want, a.data()));
  }
}

struct PermuteCase {
  std::vector<int64_t> shape, perm;
};

TEST(StridedLoops, PermuteMatchesOdometerForwardAndBackward) {
  const PermuteCase cases[] = {
      {{7}, {0}},
      {{3, 5}, {1, 0}},
      {{3, 5}, {0, 1}},
      {{2, 3, 4}, {0, 2, 1}},
      {{2, 3, 4}, {1, 0, 2}},
      {{2, 3, 4}, {1, 2, 0}},
      {{2, 3, 4}, {2, 0, 1}},
      {{2, 3, 4}, {2, 1, 0}},
      {{2, 5, 3, 4}, {0, 2, 1, 3}},  // attention head split / merge
      {{2, 5, 3, 4}, {0, 2, 3, 1}},
      {{2, 5, 3, 4}, {3, 2, 1, 0}},
      {{2, 5, 3, 4}, {1, 0, 2, 3}},
      {{2, 1, 3, 1}, {3, 0, 2, 1}},  // size-1 dims
      {{1, 4, 1, 6}, {2, 3, 0, 1}},
  };
  uint64_t seed = 500;
  for (const PermuteCase& c : cases) {
    SCOPED_TRACE(ShapeName(c.shape) + " perm " + ShapeName(c.perm));
    Tensor a = RandomTensor(c.shape, ++seed);
    a.set_requires_grad(true);
    Tensor y = Permute(a, c.perm);
    Tensor gy = RandomTensor(y.shape(), ++seed);
    Sum(Mul(y, gy)).Backward();

    const std::vector<int64_t> in_stride = RowMajor(c.shape);
    std::vector<int64_t> mapped(c.perm.size());
    for (size_t d = 0; d < c.perm.size(); ++d)
      mapped[d] = in_stride[static_cast<size_t>(c.perm[d])];
    std::vector<float> want_y(static_cast<size_t>(y.numel()));
    std::vector<float> want_ga(static_cast<size_t>(a.numel()), 0.0f);
    const float* ap = a.data();
    const float* g = gy.data();
    Odometer(y.shape(), {mapped},
             [&](int64_t flat, const std::vector<int64_t>& off) {
               want_y[static_cast<size_t>(flat)] = ap[off[0]];
               want_ga[static_cast<size_t>(off[0])] += g[flat];
             });
    EXPECT_TRUE(BitwiseEqual(want_y, y.data())) << "forward";
    EXPECT_TRUE(BitwiseEqual(want_ga, a.grad())) << "grad";
  }
}

}  // namespace
}  // namespace dot
