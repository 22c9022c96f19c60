// End-to-end FSAI / FSAIE / FSAIE-Comm preconditioner construction
// (Algorithm 2 of the paper) plus the partition-and-distribute front end.
//
// Pipeline of build_fsai_preconditioner:
//   1. base pattern S  = lower(pattern(Ã^N)) + diagonal          (Alg. 1/2 s.1-2)
//   2. S_ext           = cache-line extension of S per `extension`  (Alg. 3)
//   3. G_pre           = FSAI values on S_ext                       (Alg. 2 s.4)
//   4. S_f             = static or dynamic filtering of G_pre       (Alg. 2/4)
//   5. G               = FSAI values recomputed on S_f              (Alg. 2 s.5)
// and the distributed factors G, G^T are assembled for the PCG.
#pragma once

#include <memory>

#include "core/filtering.hpp"
#include "core/fsai.hpp"
#include "core/pattern_extend.hpp"
#include "dist/dist_csr.hpp"
#include "obs/trace.hpp"
#include "solver/preconditioner.hpp"

namespace fsaic {

enum class FilterStrategy { Static, Dynamic };

[[nodiscard]] const char* to_string(FilterStrategy strategy);

struct FsaiOptions {
  /// Power N of Ã defining the a-priori pattern (1 = pattern of A, the
  /// baseline used throughout the paper's evaluation).
  int sparsity_level = 1;
  /// Threshold tau producing Ã from A (0 = keep all entries).
  value_t prefilter_threshold = 0.0;
  /// Extension mode: None=FSAI, LocalOnly=FSAIE, CommAware=FSAIE-Comm.
  ExtensionMode extension = ExtensionMode::None;
  /// Cache-line size steering the extension (64 B Skylake/Zen2, 256 B A64FX).
  int cache_line_bytes = 64;
  /// Filter value (0 disables filtering; the paper sweeps 0.01–0.2).
  value_t filter = 0.0;
  FilterStrategy filter_strategy = FilterStrategy::Static;
  /// Protect original-pattern entries from the filter (Alg. 2 semantics).
  bool filter_only_added = true;
  /// Dynamic-filter tolerance and iteration caps (Algorithm 4).
  double imbalance_tolerance = 0.05;
  int max_bisection_steps = 30;
  int rebalance_rounds = 8;
  /// Setup row-loop engine (null -> the process-wide default executor).
  Executor* exec = nullptr;
  /// Optional phase tracer (borrowed): the build emits the setup phases
  /// pattern_build / pattern_extension / filtering / factorization.
  TraceRecorder* trace = nullptr;
};

struct FsaiBuildResult {
  /// Final global factor (lower triangular).
  CsrMatrix g;
  /// Distributed factors ready for the PCG preconditioner application.
  DistCsr g_dist;
  DistCsr gt_dist;

  SparsityPattern base_pattern;      ///< S
  SparsityPattern extended_pattern;  ///< S_ext before filtering
  SparsityPattern final_pattern;     ///< after filtering

  /// Lower-triangular pattern-entry increase over S, in percent (the paper's
  /// "% NNZ" column).
  double nnz_increase_pct = 0.0;

  /// Imbalance indices (avg/max, Section 5.3.3) of the G and G^T row
  /// distributions.
  double imbalance_g = 1.0;
  double imbalance_gt = 1.0;

  /// Per-rank filters after dynamic adjustment (uniform for static).
  std::vector<value_t> rank_filter;
  int dynamic_bisection_iterations = 0;

  /// Stats of the final factorization (step 5), which solves every row.
  FsaiFactorStats factor_stats;
  /// Stats of the provisional factorization on S_ext (step 4); all zero when
  /// filtering is inactive and no provisional factor is computed.
  FsaiFactorStats provisional_factor_stats;
  /// Setup-phase collectives (dynamic-filter allreduces).
  CommStats setup_comm;

  [[nodiscard]] double imbalance_avg() const {
    return 0.5 * (imbalance_g + imbalance_gt);
  }
};

/// Build the factor for SPD matrix `a` whose rows/vectors are distributed by
/// `layout` (a must already be permuted so ranks own contiguous rows).
[[nodiscard]] FsaiBuildResult build_fsai_preconditioner(const CsrMatrix& a,
                                                        const Layout& layout,
                                                        const FsaiOptions& options);

/// Wrap a build result into the z = G^T (G r) preconditioner.
[[nodiscard]] std::unique_ptr<FactorizedPreconditioner> make_factorized_preconditioner(
    const FsaiBuildResult& build, const std::string& label);

/// Partitioned problem: the system matrix permuted to contiguous rank
/// ownership together with its layout and the permutation used.
struct PartitionedSystem {
  CsrMatrix matrix;             ///< P A P^T
  Layout layout;
  std::vector<index_t> perm;    ///< perm[old] = new
  double partition_imbalance = 1.0;
  offset_t edge_cut = 0;
};

/// Partition the adjacency graph of `a` into nranks parts (the METIS step of
/// the paper) and permute the system accordingly.
[[nodiscard]] PartitionedSystem partition_system(const CsrMatrix& a, rank_t nranks,
                                                 std::uint64_t seed = 12345);

}  // namespace fsaic
