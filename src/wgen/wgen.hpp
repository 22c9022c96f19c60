// Rank-local distributed workload generation (KaGen-style).
//
// A WorkloadSpec names a synthetic operator family plus its parameters,
// parsed from a compact spec string ("stencil3d:nx=64,ny=64,nz=256",
// "rgg2d:rows_per_rank=65536,radius=auto", "rmat:n=4096,edge_factor=8")
// or from a JSON object. resolve_workload() turns the spec into concrete
// dimensions for a given rank count; generate_rows() then produces any
// contiguous row range [row0, row1) of the GLOBAL operator as a pure
// function of (resolved spec, row index) — no global state, no
// communication, no rank-count dependence. generate_dist() feeds those
// per-rank row ranges straight into DistCsr::from_rank_local(), so no
// global CsrMatrix ever materializes and peak per-rank memory is
// O(rows/rank + ghosts).
//
// Determinism contract: for a FIXED resolved global size, the generated
// operator is bit-identical (structure and value bit patterns) regardless
// of rank count, thread count, or executor — every row derives from
// counter-seeded Rng streams (common/rng.hpp), never from shared-state
// draws. fingerprint_rank_local(generate_dist(w, P)) equals
// fingerprint_of(generate_global(w)) for every P; tests/wgen pins golden
// hashes. Specs using rows_per_rank intentionally scale the instance WITH
// the rank count (weak scaling): resolve them once per rank count and
// compare like with like.
//
// Families:
//   stencil2d  5-point Laplacian on an nx x ny grid (diag 4, neighbors -1)
//   stencil3d  7-point Laplacian on nx x ny x nz (diag 6)
//   stencil27  27-point Laplacian on nx x ny x nz (diag 26)
//   rgg2d/3d   random geometric graph Laplacian on points in [0,1)^d,
//              edges within `radius`, via per-cell counting-based hashing
//              (recursive deterministic splits; no global point list)
//   rmat       Graph500-style R-MAT graph Laplacian, n = 2^scale rows,
//              n * edge_factor edges, per-edge counter-seeded descent
// The rgg/rmat Laplacians add +shift (default 0.5, exactly representable)
// to every diagonal so the operators are SPD by strict diagonal dominance.
#pragma once

#include <cstdint>
#include <string>

#include "dist/dist_csr.hpp"
#include "obs/json.hpp"
#include "sparse/csr.hpp"

namespace fsaic {
class Executor;
}

namespace fsaic::wgen {

enum class Family {
  Stencil2D,
  Stencil3D,
  Stencil27,
  Rgg2D,
  Rgg3D,
  Rmat,
};

[[nodiscard]] const char* family_name(Family f);

/// Parsed but unresolved workload description. Zero-valued dimension fields
/// mean "not given"; resolve_workload() applies family defaults and the
/// rank count.
struct WorkloadSpec {
  Family family = Family::Stencil3D;
  index_t nx = 0;            ///< grid extents (stencil families)
  index_t ny = 0;
  index_t nz = 0;
  index_t n = 0;             ///< total rows (rgg/rmat) or cubic grid side
  index_t rows_per_rank = 0; ///< weak-scaling mode: rows grow with ranks
  std::uint64_t seed = 1;
  double radius = 0.0;       ///< rgg connection radius; 0 = auto (degree ~8)
  index_t edge_factor = 8;   ///< rmat edges per row
  double shift = -1.0;       ///< diagonal shift; <0 = family default

  /// Canonical spec-string spelling (parses back to an equal spec).
  [[nodiscard]] std::string to_string() const;

  bool operator==(const WorkloadSpec&) const = default;
};

/// True iff `text` is a workload spec string rather than a matgen suite
/// name: specs always carry a "family:" prefix (suite names never contain
/// a colon). A true result does not imply validity — parse_workload_spec
/// still throws on unknown families or malformed parameters.
[[nodiscard]] bool is_workload_spec(const std::string& text);

/// Parse "family:key=value,key=value,...". Keys: n, nx, ny, nz,
/// rows_per_rank (alias rpn; "rpn=fixed" is an accepted no-op marking the
/// global size as fixed), seed, radius (number or "auto"), edge_factor,
/// shift. Throws fsaic::Error with a pointed message on anything malformed.
[[nodiscard]] WorkloadSpec parse_workload_spec(const std::string& text);

/// Same spec as a JSON object: {"family": "stencil3d", "nx": 64, ...}.
[[nodiscard]] WorkloadSpec workload_spec_from_json(const JsonValue& v);
[[nodiscard]] JsonValue workload_spec_to_json(const WorkloadSpec& spec);

/// A spec with every dimension concrete for one rank count. Generation
/// consumes only this struct — two equal ResolvedWorkloads yield
/// bit-identical operators no matter how the work is split.
struct ResolvedWorkload {
  Family family = Family::Stencil3D;
  index_t rows = 0;
  index_t nx = 0, ny = 0, nz = 0;  ///< stencil grid extents
  std::uint64_t seed = 1;
  double shift = 0.0;
  double radius = 0.0;             ///< rgg: connection radius
  index_t cells = 1;               ///< rgg: cells per side (cell >= radius)
  int scale = 0;                   ///< rmat: rows == 1 << scale
  offset_t edges = 0;              ///< rmat: generated edge count

  bool operator==(const ResolvedWorkload&) const = default;
};

/// Apply family defaults and the rank count. rows_per_rank specs grow the
/// last dimension (stencils) or the row count (rgg/rmat) with nranks;
/// fixed specs ignore nranks entirely.
[[nodiscard]] ResolvedWorkload resolve_workload(const WorkloadSpec& spec,
                                                rank_t nranks);

/// Per-rank footprint accounting of one generate_dist() call — the proof
/// that nothing global materialized: max_rank_nnz stays ~nnz/nranks.
struct WgenStats {
  index_t rows = 0;
  offset_t nnz = 0;
  rank_t nranks = 1;
  index_t max_rank_rows = 0;
  offset_t max_rank_nnz = 0;
  double generate_seconds = 0.0;
  /// Generation work as counts, summed over ranks (rgg families; 0 for the
  /// others): cell-split tree nodes evaluated and cell point streams
  /// generated.
  offset_t split_nodes = 0;
  offset_t cell_streams = 0;

  /// max_rank_nnz / (nnz / nranks); 1.0 is a perfect split.
  [[nodiscard]] double balance() const {
    return nnz > 0 ? static_cast<double>(max_rank_nnz) *
                         static_cast<double>(nranks) / static_cast<double>(nnz)
                   : 1.0;
  }
};

/// Generate global rows [row0, row1) with global, sorted, duplicate-free
/// column ids per row. Pure and deterministic: any split of [0, rows) into
/// ranges concatenates to the same operator. A non-null `work` gets this
/// range's split_nodes and cell_streams added to it. An rgg range costs one
/// cell-split descent plus one point stream per touched cell: time and
/// memory O(rows in range + halo cells).
[[nodiscard]] RankLocalRows generate_rows(const ResolvedWorkload& w,
                                          index_t row0, index_t row1,
                                          WgenStats* work = nullptr);

/// Generate the operator directly into per-rank DistCsr blocks over
/// Layout::blocked(rows, nranks) — no global matrix is ever assembled.
/// Rank blocks are generated in parallel on `exec` (nullptr -> the
/// process-wide default); the result is bit-identical to
/// DistCsr::distribute(generate_global(w), layout, comm).
[[nodiscard]] DistCsr generate_dist(const ResolvedWorkload& w, rank_t nranks,
                                    const CommConfig& comm,
                                    WgenStats* stats = nullptr,
                                    Executor* exec = nullptr);

/// Sequential reference assembly of the full operator (differential tests,
/// MatrixMarket export). Materializes all rows — O(rows) memory.
[[nodiscard]] CsrMatrix generate_global(const ResolvedWorkload& w);

}  // namespace fsaic::wgen
