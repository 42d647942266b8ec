#include "graph/graph_conv.h"

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "common/logging.h"
#include "nn/init.h"
#include "shard/executor.h"

namespace enhancenet {
namespace graph {

namespace ag = ::enhancenet::autograd;

ag::Variable ApplyAdjacency(const ag::Variable& adj, const ag::Variable& x) {
  ENHANCENET_CHECK_EQ(x.data().dim(), 3);
  const int64_t batch = x.size(0);
  const int64_t n = x.size(1);
  const int64_t channels = x.size(2);
  if (adj.data().dim() == 2) {
    ENHANCENET_CHECK_EQ(adj.size(0), n);
    ENHANCENET_CHECK_EQ(adj.size(1), n);
    // Entity-sharded serving path (DESIGN.md §12): no-grad forwards with
    // ExecConfig::shards > 1 run the apply shard-by-shard on per-shard
    // contexts. Bitwise-identical to AdjacencyMatMul, so it nests inside the
    // fused-path check below.
    if (!ag::GradMode::IsEnabled() && ag::FusedKernels::IsEnabled()) {
      if (auto executor = shard::EntityShardedExecutor::ForCurrentContext(n)) {
        return ag::Variable::Leaf(executor->ApplyDense(adj.data(), x.data()),
                                  /*requires_grad=*/false);
      }
    }
    // Fused path: A · X computed directly in [B,N,C] layout, one graph node.
    if (ag::FusedKernels::IsEnabled()) return ag::AdjacencyMatMul(adj, x);
    // [B,N,C] -> [N,B,C] -> [N, B*C];  A · X  -> back.
    ag::Variable xt = ag::Reshape(ag::Transpose(x, 0, 1), {n, batch * channels});
    ag::Variable mixed = ag::MatMul(adj, xt);
    return ag::Transpose(ag::Reshape(mixed, {n, batch, channels}), 0, 1);
  }
  ENHANCENET_CHECK_EQ(adj.data().dim(), 3);
  ENHANCENET_CHECK_EQ(adj.size(0), batch);
  ENHANCENET_CHECK_EQ(adj.size(1), n);
  ENHANCENET_CHECK_EQ(adj.size(2), n);
  return ag::BatchMatMul(adj, x);
}

namespace {

/// One hop of a support: S·y + D·y.
ag::Variable ApplyHop(const Support& support, const ag::Variable& y) {
  ag::Variable dynamic =
      support.is_sparse()
          ? ApplySparseAdjacency(support.sparse, y, support.transposed)
          : ApplyAdjacency(support.dense, y);
  if (!support.static_part.defined()) return dynamic;
  return ag::Add(ApplyAdjacency(support.static_part, y), dynamic);
}

}  // namespace

ag::Variable ApplySupport(const Support& support, const ag::Variable& x) {
  ag::Variable y = x;
  for (int h = 0; h < support.hops; ++h) y = ApplyHop(support, y);
  return y;
}

ag::Variable MixSupports(const ag::Variable& x,
                         const std::vector<Support>& supports,
                         bool include_self) {
  std::vector<ag::Variable> parts;
  parts.reserve(supports.size() + 1);
  if (include_self) parts.push_back(x);
  for (size_t i = 0; i < supports.size(); ++i) {
    const Support& support = supports[i];
    // A hop chain (see Support) continues from the previous support's output.
    const bool chained = i > 0 && support.hops == supports[i - 1].hops + 1 &&
                         support.transposed == supports[i - 1].transposed;
    parts.push_back(chained ? ApplyHop(support, parts.back())
                            : ApplySupport(support, x));
  }
  ENHANCENET_CHECK(!parts.empty());
  if (parts.size() == 1) return parts[0];
  return ag::Concat(parts, /*axis=*/-1);
}

GraphConvLayer::GraphConvLayer(int64_t num_supports, int64_t in_channels,
                               int64_t out_channels, Rng& rng)
    : num_supports_(num_supports),
      in_channels_(in_channels),
      out_channels_(out_channels) {
  ENHANCENET_CHECK_GE(num_supports, 0);
  weight_ = RegisterParameter(
      "weight",
      nn::GlorotUniform({(1 + num_supports) * in_channels, out_channels},
                        rng));
  bias_ = RegisterParameter("bias", Tensor::Zeros({out_channels}));
}

ag::Variable GraphConvLayer::Forward(
    const ag::Variable& x, const std::vector<Support>& supports) const {
  ENHANCENET_CHECK_EQ(static_cast<int64_t>(supports.size()), num_supports_);
  ENHANCENET_CHECK_EQ(x.size(-1), in_channels_);
  ag::Variable mixed = MixSupports(x, supports, /*include_self=*/true);
  const int64_t batch = x.size(0);
  const int64_t n = x.size(1);
  ag::Variable flat =
      ag::Reshape(mixed, {batch * n, (1 + num_supports_) * in_channels_});
  ag::Variable out = ag::Add(ag::MatMul(flat, weight_), bias_);
  return ag::Reshape(out, {batch, n, out_channels_});
}

}  // namespace graph
}  // namespace enhancenet
