#ifndef ENHANCENET_GRAPH_GRAPH_CONV_H_
#define ENHANCENET_GRAPH_GRAPH_CONV_H_

#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "graph/sparse_adjacency.h"
#include "nn/module.h"

namespace enhancenet {
namespace graph {

/// Applies an adjacency matrix to a batched graph signal:
///   adj [N,N]   × x [B,N,C] -> [B,N,C]   (static support)
///   adj [B,N,N] × x [B,N,C] -> [B,N,C]   (per-sample dynamic support)
/// Row i of the result aggregates x over i's neighbourhood.
autograd::Variable ApplyAdjacency(const autograd::Variable& adj,
                                  const autograd::Variable& x);

/// One support of a graph convolution: the hop kernel y ↦ S·y + D·y applied
/// `hops` times. S (`static_part`) is an optional dense [N,N] matrix; the
/// dynamic part D is `dense` ([N,N] or per-sample [B,N,N]) or `sparse`
/// (top-k CSR, DESIGN.md §10). Dense parts are stored pre-transposed when
/// `transposed` is set; a sparse part applies its CSC half instead.
///
/// Hop chains: a support with hops = h directly after one with hops = h−1
/// and the same `transposed` flag is the next hop of the same base, and
/// MixSupports applies one hop to that support's output (x_h = A'·x_{h−1}).
/// The rule reads only `hops`, `transposed` and list position.
///
/// The implicit Variable constructor keeps plain adjacencies (and brace
/// initializer lists of them) usable as hops = 1 supports.
struct Support {
  Support(autograd::Variable adj)  // NOLINT: implicit on purpose
      : dense(std::move(adj)) {}
  Support(autograd::Variable static_part_, SparseAdjacency sparse_, int hops_,
          bool transposed_)
      : static_part(std::move(static_part_)),
        sparse(std::move(sparse_)),
        hops(hops_),
        transposed(transposed_) {}

  autograd::Variable dense;        ///< dense D, when !is_sparse()
  autograd::Variable static_part;  ///< optional dense S
  SparseAdjacency sparse;          ///< sparse D
  int hops = 1;                    ///< hop kernels applied to the input
  bool transposed = false;         ///< the base is transposed

  bool is_sparse() const { return sparse.defined(); }
};

/// Aggregates x over one support's neighbourhood: `hops` hop kernels from x.
autograd::Variable ApplySupport(const Support& support,
                                const autograd::Variable& x);

/// Concatenates the neighbourhood aggregations of all supports along the
/// channel axis, optionally prefixed by the identity (0-hop) term:
///   out [B,N,(self + |supports|)·C]
/// This reduces graph convolution Z = Σ_s A_s·X·S_s (Equation 12 generalized
/// to a support set) to a single channel-mixing matmul, which can then be
/// shared (Linear) or entity-specific (DFGN-generated bank).
autograd::Variable MixSupports(const autograd::Variable& x,
                               const std::vector<Support>& supports,
                               bool include_self);

/// Graph convolution layer with entity-invariant (shared) channel weights:
///   Z = [X ‖ A_1X ‖ ... ‖ A_SX] · W + b       (Equation 12 of the paper)
class GraphConvLayer : public nn::Module {
 public:
  /// `num_supports` counts the adjacency matrices passed to Forward;
  /// the identity term is always included.
  GraphConvLayer(int64_t num_supports, int64_t in_channels,
                 int64_t out_channels, Rng& rng);

  /// x: [B,N,Cin]; supports: `num_supports` matrices, each [N,N] or [B,N,N].
  autograd::Variable Forward(const autograd::Variable& x,
                             const std::vector<Support>& supports) const;

  int64_t num_supports() const { return num_supports_; }

 private:
  int64_t num_supports_;
  int64_t in_channels_;
  int64_t out_channels_;
  autograd::Variable weight_;  // [(1+S)*Cin, Cout]
  autograd::Variable bias_;    // [Cout]
};

}  // namespace graph
}  // namespace enhancenet

#endif  // ENHANCENET_GRAPH_GRAPH_CONV_H_
