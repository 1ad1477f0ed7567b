// Elementwise, shape and reduction operators.

#include <algorithm>
#include <array>
#include <cmath>

#include "tensor/ops.h"
#include "tensor/ops_internal.h"

namespace dot {

using internal::AttachNode;
using internal::NeedsGrad;
using internal::RowMajorStrides;

namespace {

/// A row-major walk over an output shape, coalesced into runs. Size-1 dims
/// drop out and adjacent dims merge wherever every operand is contiguous
/// across them, so the innermost merged dim is as long as possible; a
/// `[B,C,1,1]`-onto-`[B,C,H,W]` add becomes B*C runs of H*W. The output is
/// row-major (flat index = walk order); operand k steps by stride[d][k].
template <size_t K>
struct RunPlan {
  std::vector<int64_t> shape;                  // merged dims, never empty
  std::vector<std::array<int64_t, K>> stride;  // per merged dim, per operand
};

template <size_t K>
RunPlan<K> MakeRunPlan(const std::vector<int64_t>& shape,
                       const std::array<const std::vector<int64_t>*, K>& strides) {
  RunPlan<K> plan;
  for (size_t d = 0; d < shape.size(); ++d) {
    if (shape[d] == 1) continue;
    std::array<int64_t, K> st;
    for (size_t k = 0; k < K; ++k) st[k] = (*strides[k])[d];
    if (!plan.shape.empty()) {
      const std::array<int64_t, K>& prev = plan.stride.back();
      bool merge = true;
      for (size_t k = 0; k < K; ++k) merge = merge && prev[k] == st[k] * shape[d];
      if (merge) {
        plan.shape.back() *= shape[d];
        plan.stride.back() = st;
        continue;
      }
    }
    plan.shape.push_back(shape[d]);
    plan.stride.push_back(st);
  }
  if (plan.shape.empty()) {  // a single element
    plan.shape.push_back(1);
    plan.stride.push_back({});
  }
  return plan;
}

/// Calls fn(flat, offsets, len) for each run in row-major order: the run
/// covers output elements [flat, flat+len), and operand k's element i of
/// the run is at offsets[k] + i * plan.stride.back()[k].
template <size_t K, typename Fn>
void ForEachRun(const RunPlan<K>& plan, Fn fn) {
  const size_t outer_dims = plan.shape.size() - 1;
  const int64_t len = plan.shape.back();
  int64_t runs = 1;
  for (size_t d = 0; d < outer_dims; ++d) runs *= plan.shape[d];
  if (len == 0 || runs == 0) return;
  std::vector<int64_t> idx(outer_dims, 0);
  std::array<int64_t, K> off{};
  for (int64_t run = 0; run < runs; ++run) {
    fn(run * len, off, len);
    for (size_t d = outer_dims; d-- > 0;) {
      for (size_t k = 0; k < K; ++k) off[k] += plan.stride[d][k];
      if (++idx[d] < plan.shape[d]) break;
      for (size_t k = 0; k < K; ++k) off[k] -= plan.stride[d][k] * plan.shape[d];
      idx[d] = 0;
    }
  }
}

/// Runs `f(i, x, y)` over a run of two operands whose inner strides are
/// sa and sb; the broadcast cases (a stride of 0) hoist the shared value.
template <typename F>
inline void BinaryRun(const float* x, int64_t sa, const float* y, int64_t sb,
                      int64_t len, F f) {
  if (sa == 1 && sb == 1) {
    for (int64_t i = 0; i < len; ++i) f(i, x[i], y[i]);
  } else if (sa == 1 && sb == 0) {
    const float yv = *y;
    for (int64_t i = 0; i < len; ++i) f(i, x[i], yv);
  } else if (sa == 0 && sb == 1) {
    const float xv = *x;
    for (int64_t i = 0; i < len; ++i) f(i, xv, y[i]);
  } else {
    for (int64_t i = 0; i < len; ++i) f(i, x[i * sa], y[i * sb]);
  }
}

/// Broadcast execution plan for a binary op: the output shape and the run
/// walk over it with operands (a, b) (stride 0 on broadcast dims).
struct BcastPlan {
  std::vector<int64_t> out_shape;
  RunPlan<2> runs;
};

BcastPlan MakeBcastPlan(const Tensor& a, const Tensor& b) {
  BcastPlan plan;
  if (SameShape(a, b)) {
    plan.out_shape = a.shape();
    plan.runs = {{a.numel()}, {{1, 1}}};  // one run
    return plan;
  }
  plan.out_shape = internal::BroadcastShape(a.shape(), b.shape());
  size_t nd = plan.out_shape.size();
  auto expand = [&](const std::vector<int64_t>& shape) {
    std::vector<int64_t> strides = RowMajorStrides(shape);
    std::vector<int64_t> out(nd, 0);
    size_t offset = nd - shape.size();
    for (size_t i = 0; i < shape.size(); ++i) {
      out[offset + i] = (shape[i] == 1) ? 0 : strides[i];
    }
    return out;
  };
  std::vector<int64_t> a_stride = expand(a.shape());
  std::vector<int64_t> b_stride = expand(b.shape());
  plan.runs = MakeRunPlan<2>(plan.out_shape, {&a_stride, &b_stride});
  return plan;
}

/// Generic broadcasting binary op. `fwd(av,bv)` computes the value;
/// `dfa`/`dfb` compute local derivatives from the two input values. Every
/// element is visited in row-major output order, so a broadcast operand's
/// gradient accumulates its contributions in that order.
template <typename F, typename DA, typename DB>
Tensor BinaryOp(const char* name, const Tensor& a, const Tensor& b, F fwd, DA dfa,
                DB dfb) {
  BcastPlan plan = MakeBcastPlan(a, b);
  Tensor out = Tensor::Empty(plan.out_shape);
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out.data();
  const std::array<int64_t, 2> inner = plan.runs.stride.back();
  ForEachRun(plan.runs, [&](int64_t flat, const std::array<int64_t, 2>& off,
                            int64_t len) {
    float* o = op + flat;
    BinaryRun(ap + off[0], inner[0], bp + off[1], inner[1], len,
              [&](int64_t i, float x, float y) { o[i] = fwd(x, y); });
  });
  Tensor a_cap = a, b_cap = b;
  AttachNode(&out, name, {a, b}, [a_cap, b_cap, plan, dfa, dfb](const Tensor& o) {
    Tensor a = a_cap, b = b_cap;
    const float* gout = o.grad_vec().data();
    const float* ap = a.data();
    const float* bp = b.data();
    const std::array<int64_t, 2> inner = plan.runs.stride.back();
    // Separate passes: a and b never share a gradient buffer unless they
    // are the same tensor, and then every element still receives its a
    // contribution before its b contribution.
    if (NeedsGrad(a)) {
      float* ga = a.grad();
      ForEachRun(plan.runs, [&](int64_t flat, const std::array<int64_t, 2>& off,
                                int64_t len) {
        const float* g = gout + flat;
        float* gr = ga + off[0];
        BinaryRun(ap + off[0], inner[0], bp + off[1], inner[1], len,
                  [&](int64_t i, float x, float y) {
                    gr[i * inner[0]] += g[i] * dfa(x, y);
                  });
      });
    }
    if (NeedsGrad(b)) {
      float* gb = b.grad();
      ForEachRun(plan.runs, [&](int64_t flat, const std::array<int64_t, 2>& off,
                                int64_t len) {
        const float* g = gout + flat;
        float* gr = gb + off[1];
        BinaryRun(ap + off[0], inner[0], bp + off[1], inner[1], len,
                  [&](int64_t i, float x, float y) {
                    gr[i * inner[1]] += g[i] * dfb(x, y);
                  });
      });
    }
  });
  return out;
}

/// Generic unary op; derivative receives (input value, output value).
template <typename F, typename D>
Tensor UnaryOp(const char* name, const Tensor& a, F fwd, D dfdx) {
  Tensor out = Tensor::Empty(a.shape());
  const float* ap = a.data();
  float* op = out.data();
  int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) op[i] = fwd(ap[i]);
  Tensor a_cap = a;
  AttachNode(&out, name, {a}, [a_cap, dfdx](const Tensor& o) {
    Tensor a = a_cap;
    const float* gout = o.grad_vec().data();
    const float* ap = a.data();
    const float* op = o.data();
    float* ga = a.grad();
    int64_t n = o.numel();
    for (int64_t i = 0; i < n; ++i) ga[i] += gout[i] * dfdx(ap[i], op[i]);
  });
  return out;
}

}  // namespace

namespace internal {

std::vector<int64_t> BroadcastShape(const std::vector<int64_t>& a,
                                    const std::vector<int64_t>& b) {
  size_t nd = std::max(a.size(), b.size());
  std::vector<int64_t> out(nd);
  for (size_t i = 0; i < nd; ++i) {
    int64_t da = i < nd - a.size() ? 1 : a[i - (nd - a.size())];
    int64_t db = i < nd - b.size() ? 1 : b[i - (nd - b.size())];
    DOT_CHECK(da == db || da == 1 || db == 1)
        << "broadcast mismatch at dim " << i << ": " << da << " vs " << db;
    out[i] = std::max(da, db);
  }
  return out;
}

}  // namespace internal

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "add", a, b, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "sub", a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "mul", a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "div", a, b, [](float x, float y) { return x / y; },
      [](float, float y) { return 1.0f / y; },
      [](float x, float y) { return -x / (y * y); });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      "add_scalar", a, [s](float x) { return x + s; },
      [](float, float) { return 1.0f; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(
      "mul_scalar", a, [s](float x) { return x * s; },
      [s](float, float) { return s; });
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      "exp", a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      "log", a, [](float x) { return std::log(x); },
      [](float x, float) { return 1.0f / x; });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      "sqrt", a, [](float x) { return std::sqrt(x); },
      [](float, float y) { return 0.5f / y; });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      "square", a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

Tensor Abs(const Tensor& a) {
  return UnaryOp(
      "abs", a, [](float x) { return std::fabs(x); },
      [](float x, float) { return x >= 0 ? 1.0f : -1.0f; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      "sigmoid", a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      "tanh", a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      "relu", a, [](float x) { return x > 0 ? x : 0.0f; },
      [](float x, float) { return x > 0 ? 1.0f : 0.0f; });
}

Tensor Gelu(const Tensor& a) {
  // tanh approximation: 0.5*x*(1+tanh(sqrt(2/pi)*(x+0.044715 x^3))).
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  constexpr float kA = 0.044715f;
  return UnaryOp(
      "gelu", a,
      [](float x) {
        float inner = kC * (x + kA * x * x * x);
        return 0.5f * x * (1.0f + std::tanh(inner));
      },
      [](float x, float) {
        float x3 = x * x * x;
        float inner = kC * (x + kA * x3);
        float t = std::tanh(inner);
        float dinner = kC * (1.0f + 3.0f * kA * x * x);
        return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner;
      });
}

Tensor Silu(const Tensor& a) {
  return UnaryOp(
      "silu", a,
      [](float x) { return x / (1.0f + std::exp(-x)); },
      [](float x, float) {
        float s = 1.0f / (1.0f + std::exp(-x));
        return s * (1.0f + x * (1.0f - s));
      });
}

// ---- Shape ops --------------------------------------------------------------

namespace {

std::string ShapeToString(const std::vector<int64_t>& shape) {
  std::string s = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

}  // namespace

Tensor Reshape(const Tensor& a, std::vector<int64_t> shape) {
  const std::vector<int64_t> requested = shape;
  int64_t known = 1;
  int64_t infer = -1;
  for (size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == -1) {
      DOT_CHECK(infer == -1) << "Reshape: multiple -1 dims in "
                             << ShapeToString(requested);
      infer = static_cast<int64_t>(i);
    } else {
      DOT_CHECK(shape[i] >= 0) << "Reshape: invalid dim " << shape[i] << " in "
                               << ShapeToString(requested);
      known *= shape[i];
    }
  }
  if (infer >= 0) {
    DOT_CHECK(known > 0 && a.numel() % known == 0)
        << "Reshape: cannot infer -1 dim: " << a.ShapeString() << " ("
        << a.numel() << " elements) does not divide into "
        << ShapeToString(requested);
    shape[static_cast<size_t>(infer)] = a.numel() / known;
  }
  DOT_CHECK(ShapeNumel(shape) == a.numel())
      << "Reshape: element count mismatch: " << a.ShapeString() << " ("
      << a.numel() << " elements) -> " << ShapeToString(requested) << " ("
      << ShapeNumel(shape) << " elements)";
  // Zero-copy alias: the reshaped tensor shares a's Storage.
  Tensor out = Tensor::View(a, std::move(shape));
  Tensor a_cap = a;
  AttachNode(&out, "reshape", {a}, [a_cap](const Tensor& o) {
    Tensor a = a_cap;
    a.AccumulateGrad(o.grad_vec().data(), o.numel());
  });
  return out;
}

Tensor Flatten(const Tensor& a) { return Reshape(a, {a.numel()}); }

Tensor Transpose2D(const Tensor& a) {
  DOT_CHECK(a.dim() == 2) << "Transpose2D needs 2-D input";
  return Permute(a, {1, 0});
}

Tensor Permute(const Tensor& a, std::vector<int64_t> perm) {
  DOT_CHECK(static_cast<int64_t>(perm.size()) == a.dim()) << "Permute rank mismatch";
  std::vector<int64_t> out_shape(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) out_shape[i] = a.size(perm[i]);
  Tensor out = Tensor::Empty(out_shape);
  std::vector<int64_t> in_stride = RowMajorStrides(a.shape());
  std::vector<int64_t> mapped(perm.size());  // stride of out-dim d within input
  for (size_t d = 0; d < perm.size(); ++d) {
    mapped[d] = in_stride[static_cast<size_t>(perm[d])];
  }
  // Out-dims that stay adjacent in the input merge, so an attention head
  // split [B,L,H,D] -> [B,H,L,D] copies runs of D.
  RunPlan<1> runs = MakeRunPlan<1>(out_shape, {&mapped});
  const float* ap = a.data();
  float* op = out.data();
  const int64_t step = runs.stride.back()[0];
  ForEachRun(runs, [&](int64_t flat, const std::array<int64_t, 1>& off,
                       int64_t len) {
    const float* src = ap + off[0];
    float* dst = op + flat;
    for (int64_t i = 0; i < len; ++i) dst[i] = src[i * step];
  });
  Tensor a_cap = a;
  AttachNode(&out, "permute", {a}, [a_cap, runs](const Tensor& o) {
    Tensor a = a_cap;
    float* ga = a.grad();
    const float* gout = o.grad_vec().data();
    const int64_t step = runs.stride.back()[0];
    ForEachRun(runs, [&](int64_t flat, const std::array<int64_t, 1>& off,
                         int64_t len) {
      float* dst = ga + off[0];
      const float* src = gout + flat;
      for (int64_t i = 0; i < len; ++i) dst[i * step] += src[i];
    });
  });
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  DOT_CHECK(!parts.empty()) << "Concat of zero tensors";
  if (axis < 0) axis += parts[0].dim();
  std::vector<int64_t> out_shape = parts[0].shape();
  int64_t total = 0;
  for (const auto& p : parts) {
    DOT_CHECK(p.dim() == parts[0].dim()) << "Concat rank mismatch";
    for (int64_t d = 0; d < p.dim(); ++d) {
      if (d != axis) DOT_CHECK(p.size(d) == out_shape[static_cast<size_t>(d)]);
    }
    total += p.size(axis);
  }
  out_shape[static_cast<size_t>(axis)] = total;
  Tensor out = Tensor::Empty(out_shape);

  // Treat tensors as [outer, axis_len, inner] blocks.
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= out_shape[static_cast<size_t>(d)];
  for (int64_t d = axis + 1; d < parts[0].dim(); ++d) {
    inner *= out_shape[static_cast<size_t>(d)];
  }
  float* op = out.data();
  int64_t out_row = total * inner;
  int64_t offset = 0;
  for (const auto& p : parts) {
    int64_t len = p.size(axis) * inner;
    const float* pp = p.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(pp + o * len, pp + (o + 1) * len, op + o * out_row + offset);
    }
    offset += len;
  }
  std::vector<Tensor> caps = parts;
  AttachNode(&out, "concat", parts,
             [caps, outer, inner, total](const Tensor& o) {
               const float* gout = o.grad_vec().data();
               int64_t out_row = total * inner;
               int64_t offset = 0;
               for (auto part : caps) {
                 int64_t axis_len = part.numel() / (outer * inner);
                 int64_t row = axis_len * inner;
                 if (NeedsGrad(part)) {
                   float* gp = part.grad();
                   for (int64_t oo = 0; oo < outer; ++oo) {
                     const float* src = gout + oo * out_row + offset;
                     float* dst = gp + oo * row;
                     for (int64_t i = 0; i < row; ++i) dst[i] += src[i];
                   }
                 }
                 offset += row;
               }
             });
  return out;
}

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t len) {
  if (axis < 0) axis += a.dim();
  DOT_CHECK(axis >= 0 && axis < a.dim()) << "Slice axis out of range";
  DOT_CHECK(start >= 0 && len >= 0 && start + len <= a.size(axis))
      << "Slice bounds: [" << start << ", " << start + len << ") of "
      << a.ShapeString() << " axis " << axis;
  std::vector<int64_t> out_shape = a.shape();
  out_shape[static_cast<size_t>(axis)] = len;
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= a.size(d);
  for (int64_t d = axis + 1; d < a.dim(); ++d) inner *= a.size(d);
  int64_t in_row = a.size(axis) * inner;
  int64_t out_row = len * inner;
  Tensor out;
  if (outer == 1) {
    // Contiguous slice (axis 0, or every leading dim is 1): the selected
    // elements are one contiguous run — alias them instead of copying.
    out = Tensor::View(a, out_shape, start * inner);
  } else {
    out = Tensor::Empty(out_shape);
    const float* ap = a.data();
    float* op = out.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(ap + o * in_row + start * inner,
                ap + o * in_row + (start + len) * inner, op + o * out_row);
    }
  }
  Tensor a_cap = a;
  AttachNode(&out, "slice", {a},
             [a_cap, outer, inner, in_row, out_row, start](const Tensor& o) {
               Tensor a = a_cap;
               float* ga = a.grad();
               const float* gout = o.grad_vec().data();
               for (int64_t oo = 0; oo < outer; ++oo) {
                 float* dst = ga + oo * in_row + start * inner;
                 const float* src = gout + oo * out_row;
                 for (int64_t i = 0; i < out_row; ++i) dst[i] += src[i];
               }
             });
  return out;
}

Tensor Rows(const Tensor& a, const std::vector<int64_t>& ids) {
  DOT_CHECK(a.dim() == 2) << "Rows needs a 2-D table";
  int64_t d = a.size(1);
  Tensor out = Tensor::Empty({static_cast<int64_t>(ids.size()), d});
  const float* ap = a.data();
  float* op = out.data();
  for (size_t i = 0; i < ids.size(); ++i) {
    int64_t r = ids[i];
    DOT_CHECK(r >= 0 && r < a.size(0)) << "Rows: index out of range";
    std::copy(ap + r * d, ap + (r + 1) * d, op + static_cast<int64_t>(i) * d);
  }
  Tensor a_cap = a;
  std::vector<int64_t> ids_cap = ids;
  AttachNode(&out, "rows", {a}, [a_cap, ids_cap, d](const Tensor& o) {
    Tensor a = a_cap;
    float* ga = a.grad();
    const float* gout = o.grad_vec().data();
    for (size_t i = 0; i < ids_cap.size(); ++i) {
      float* dst = ga + ids_cap[i] * d;
      const float* src = gout + static_cast<int64_t>(i) * d;
      for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
    }
  });
  return out;
}

// ---- Reductions --------------------------------------------------------------

Tensor Sum(const Tensor& a) {
  double acc = 0;
  const float* ap = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) acc += ap[i];
  Tensor out = Tensor::FromVector({1}, {static_cast<float>(acc)});
  Tensor a_cap = a;
  AttachNode(&out, "sum", {a}, [a_cap](const Tensor& o) {
    Tensor a = a_cap;
    float g = o.grad_vec()[0];
    float* ga = a.grad();
    for (int64_t i = 0; i < a.numel(); ++i) ga[i] += g;
  });
  return out;
}

Tensor Mean(const Tensor& a) {
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor SumAxis(const Tensor& a, int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.dim();
  DOT_CHECK(axis >= 0 && axis < a.dim()) << "SumAxis axis out of range";
  int64_t outer = 1, inner = 1, len = a.size(axis);
  for (int64_t d = 0; d < axis; ++d) outer *= a.size(d);
  for (int64_t d = axis + 1; d < a.dim(); ++d) inner *= a.size(d);
  std::vector<int64_t> out_shape;
  for (int64_t d = 0; d < a.dim(); ++d) {
    if (d == axis) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(a.size(d));
    }
  }
  if (out_shape.empty()) out_shape.push_back(1);
  Tensor out = Tensor::Zeros(out_shape);
  const float* ap = a.data();
  float* op = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t l = 0; l < len; ++l) {
      const float* src = ap + (o * len + l) * inner;
      float* dst = op + o * inner;
      for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
    }
  }
  Tensor a_cap = a;
  AttachNode(&out, "sum_axis", {a},
             [a_cap, outer, inner, len](const Tensor& o) {
               Tensor a = a_cap;
               float* ga = a.grad();
               const float* gout = o.grad_vec().data();
               for (int64_t oo = 0; oo < outer; ++oo) {
                 for (int64_t l = 0; l < len; ++l) {
                   float* dst = ga + (oo * len + l) * inner;
                   const float* src = gout + oo * inner;
                   for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
                 }
               }
             });
  return out;
}

Tensor MeanAxis(const Tensor& a, int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.dim();
  return MulScalar(SumAxis(a, axis, keepdim), 1.0f / static_cast<float>(a.size(axis)));
}

Tensor MseLoss(const Tensor& pred, const Tensor& target) {
  DOT_CHECK(SameShape(pred, target)) << "MseLoss shape mismatch";
  return Mean(Square(Sub(pred, target)));
}

// ---- In-place (inference-only) ----------------------------------------------
// These mutate their first argument's buffer, so they are forbidden while
// autograd is recording: a graph node may hold the pre-mutation values for
// its backward pass. The iteration order matches the out-of-place ops
// exactly, so `AddInPlace_(a, b)` is bitwise identical to `a = Add(a, b)`.

Tensor& AddInPlace_(Tensor& a, const Tensor& b) {
  DOT_CHECK(!GradModeEnabled())
      << "AddInPlace_ while autograd is recording (wrap in NoGradGuard)";
  BcastPlan plan = MakeBcastPlan(a, b);
  DOT_CHECK(plan.out_shape == a.shape())
      << "AddInPlace_: broadcasting " << b.ShapeString()
      << " would change the target shape " << a.ShapeString();
  float* ap = a.data();
  const float* bp = b.data();
  const int64_t step = plan.runs.stride.back()[1];
  ForEachRun(plan.runs, [&](int64_t flat, const std::array<int64_t, 2>& off,
                            int64_t len) {
    // The target is row-major over the walk, so its offset is `flat`.
    float* dst = ap + flat;
    const float* src = bp + off[1];
    if (step == 0) {
      const float v = *src;
      for (int64_t i = 0; i < len; ++i) dst[i] += v;
    } else {
      for (int64_t i = 0; i < len; ++i) dst[i] += src[i * step];
    }
  });
  return a;
}

Tensor& Scale_(Tensor& a, float s) {
  DOT_CHECK(!GradModeEnabled())
      << "Scale_ while autograd is recording (wrap in NoGradGuard)";
  float* ap = a.data();
  int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) ap[i] *= s;
  return a;
}

Tensor AddReuse(Tensor a, const Tensor& b) {
  if (GradModeEnabled()) return Add(a, b);
  AddInPlace_(a, b);
  return a;
}

Tensor ScaleReuse(Tensor a, float s) {
  if (GradModeEnabled()) return MulScalar(a, s);
  Scale_(a, s);
  return a;
}

}  // namespace dot
