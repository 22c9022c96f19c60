// Rank-local deterministic operator generation. Every row of the global
// operator is a pure function of (ResolvedWorkload, row index): stencil rows
// come straight from grid geometry, rgg rows from counter-seeded per-cell
// point streams (the KaGen trick: a deterministic recursive split assigns
// point counts to cells, so any rank can reconstruct any cell's points
// without a global list), and rmat rows from a per-edge counter-seeded
// quadrant descent. No generator draws from shared RNG state, which is what
// makes the output independent of how rows are split across ranks, threads,
// or executors.
#include "wgen/wgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/executor.hpp"

namespace fsaic::wgen {

namespace {

/// Stream tags keep the cell-split, point-coordinate and edge streams of
/// one seed disjoint.
constexpr std::uint64_t kSplitTag = 0x73706c6974ull;   // "split"
constexpr std::uint64_t kPointTag = 0x706f696e74ull;   // "point"
constexpr std::uint64_t kEdgeTag = 0x65646765ull;      // "edge"

/// SplitMix64 finalizer — the bit mixer behind all counter-based seeding.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2)));
}

/// Sorted (gid, value) entries of one row -> appended CSR row.
void append_row(std::vector<std::pair<index_t, value_t>>& entries,
                RankLocalRows& out) {
  std::sort(entries.begin(), entries.end());
  for (const auto& [gid, v] : entries) {
    out.col_gids.push_back(gid);
    out.values.push_back(v);
  }
  out.row_ptr.push_back(static_cast<offset_t>(out.col_gids.size()));
  entries.clear();
}

// ---- structured stencils ------------------------------------------------

RankLocalRows stencil_rows(const ResolvedWorkload& w, index_t row0,
                           index_t row1) {
  RankLocalRows out;
  out.row_ptr.reserve(static_cast<std::size_t>(row1 - row0) + 1);
  out.row_ptr.push_back(0);
  const index_t nx = w.nx;
  const index_t ny = w.ny;
  const offset_t plane = static_cast<offset_t>(nx) * ny;
  std::vector<std::pair<index_t, value_t>> entries;
  for (index_t gi = row0; gi < row1; ++gi) {
    const auto z = static_cast<index_t>(gi / plane);
    const auto rem = static_cast<index_t>(gi % plane);
    const index_t y = rem / nx;
    const index_t x = rem % nx;
    if (w.family == Family::Stencil27) {
      for (index_t dz = -1; dz <= 1; ++dz) {
        for (index_t dy = -1; dy <= 1; ++dy) {
          for (index_t dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0 && dz == 0) continue;
            const index_t X = x + dx;
            const index_t Y = y + dy;
            const index_t Z = z + dz;
            if (X < 0 || X >= nx || Y < 0 || Y >= ny || Z < 0 || Z >= w.nz) {
              continue;
            }
            entries.emplace_back(
                static_cast<index_t>((static_cast<offset_t>(Z) * ny + Y) * nx +
                                     X),
                -1.0);
          }
        }
      }
      entries.emplace_back(gi, 26.0 + w.shift);
    } else {
      const bool three_d = w.family == Family::Stencil3D;
      if (x > 0) entries.emplace_back(gi - 1, -1.0);
      if (x + 1 < nx) entries.emplace_back(gi + 1, -1.0);
      if (y > 0) entries.emplace_back(gi - nx, -1.0);
      if (y + 1 < ny) entries.emplace_back(gi + nx, -1.0);
      if (three_d) {
        if (z > 0) entries.emplace_back(static_cast<index_t>(gi - plane), -1.0);
        if (z + 1 < w.nz) {
          entries.emplace_back(static_cast<index_t>(gi + plane), -1.0);
        }
        entries.emplace_back(gi, 6.0 + w.shift);
      } else {
        entries.emplace_back(gi, 4.0 + w.shift);
      }
    }
    append_row(entries, out);
  }
  return out;
}

// ---- random geometric graphs --------------------------------------------

/// Deterministic distribution of `npoints` over `ncells` linearized cells
/// via recursive binary splits of the cell index range: the left half of
/// [lo, hi) gets a normal-approximated binomial share drawn from an Rng
/// seeded by (seed, lo, hi). Queries descend only the split nodes they
/// need — no O(ncells) state — so every rank answers queries about any
/// cell range independently and identically.
class CellSplit {
 public:
  CellSplit(std::uint64_t seed, offset_t ncells, index_t npoints)
      : seed_(seed), ncells_(ncells), npoints_(npoints) {}

  /// Point counts of cells [c0, c1) into counts[0, c1 - c0), and the points
  /// in cells [0, c0) into *before, in one descent that visits only the
  /// split nodes overlapping [c0, c1).
  void range(offset_t c0, offset_t c1, index_t* counts, index_t* before) {
    FSAIC_CHECK(0 <= c0 && c0 < c1 && c1 <= ncells_,
                "cell range out of bounds");
    descend(0, ncells_, npoints_, 0, c0, c1, counts, before);
  }

  /// Cell and in-cell offset of global point id `gid` (cell-major point
  /// numbering).
  void locate(index_t gid, offset_t* cell, index_t* off) {
    offset_t lo = 0;
    offset_t hi = ncells_;
    index_t cnt = npoints_;
    index_t g = gid;
    while (hi - lo > 1) {
      const offset_t mid = lo + (hi - lo) / 2;
      const index_t left = left_of(lo, hi, cnt);
      if (g < left) {
        hi = mid;
        cnt = left;
      } else {
        g -= left;
        lo = mid;
        cnt -= left;
      }
    }
    *cell = lo;
    *off = g;
  }

  /// left_of evaluations so far.
  [[nodiscard]] offset_t split_nodes() const { return nodes_; }

 private:
  /// Visit split node [lo, hi), holding `cnt` points after `pre` points in
  /// the cells before it; the node overlaps [c0, c1).
  void descend(offset_t lo, offset_t hi, index_t cnt, index_t pre,
               offset_t c0, offset_t c1, index_t* counts, index_t* before) {
    // The deepest visited node holding c0 is a leaf or an empty node; either
    // way it has no points before c0.
    if (lo <= c0) *before = pre;
    if (hi - lo == 1 || cnt == 0) {
      std::fill(counts + (std::max(lo, c0) - c0),
                counts + (std::min(hi, c1) - c0), cnt);
      return;
    }
    const offset_t mid = lo + (hi - lo) / 2;
    const index_t left = left_of(lo, hi, cnt);
    if (c0 < mid) descend(lo, mid, left, pre, c0, c1, counts, before);
    if (mid < c1) {
      descend(mid, hi, cnt - left, pre + left, c0, c1, counts, before);
    }
  }

  /// Left-half share of `cnt` points at split node [lo, hi): binomial
  /// (cnt, |left|/|range|) via the normal approximation with an Irwin-Hall
  /// normal deviate (sum of 12 uniforms) — O(1), exact conservation, and a
  /// pure function of (seed, lo, hi, cnt).
  [[nodiscard]] index_t left_of(offset_t lo, offset_t hi, index_t cnt) {
    ++nodes_;
    const offset_t mid = lo + (hi - lo) / 2;
    const double f = static_cast<double>(mid - lo) / static_cast<double>(hi - lo);
    Rng rng(hash_combine(hash_combine(seed_ ^ kSplitTag,
                                      static_cast<std::uint64_t>(lo)),
                         static_cast<std::uint64_t>(hi)));
    double z = -6.0;
    for (int k = 0; k < 12; ++k) z += rng.next_uniform();
    const double mean = static_cast<double>(cnt) * f;
    const double sd = std::sqrt(static_cast<double>(cnt) * f * (1.0 - f));
    long long left = std::llround(mean + z * sd);
    if (left < 0) left = 0;
    if (left > cnt) left = cnt;
    return static_cast<index_t>(left);
  }

  std::uint64_t seed_;
  offset_t ncells_;
  index_t npoints_;
  offset_t nodes_ = 0;
};

struct Point {
  double x = 0.0, y = 0.0, z = 0.0;
};

/// All `cnt` points of one cell, in point-id order, into out[0, cnt).
void cell_points(const ResolvedWorkload& w, offset_t cell, index_t cnt,
                 Point* out) {
  const index_t cells = w.cells;
  const double width = 1.0 / static_cast<double>(cells);
  const auto cx = static_cast<index_t>(cell % cells);
  const auto cyz = cell / cells;
  const auto cy = static_cast<index_t>(cyz % cells);
  const auto cz = static_cast<index_t>(cyz / cells);
  for (index_t j = 0; j < cnt; ++j) {
    Rng rng(hash_combine(hash_combine(w.seed ^ kPointTag,
                                      static_cast<std::uint64_t>(cell)),
                         static_cast<std::uint64_t>(j)));
    Point& p = out[j];
    p.x = (static_cast<double>(cx) + rng.next_uniform()) * width;
    p.y = (static_cast<double>(cy) + rng.next_uniform()) * width;
    if (w.family == Family::Rgg3D) {
      p.z = (static_cast<double>(cz) + rng.next_uniform()) * width;
    }
  }
}

/// Rows [row0, row1) live in the own cells [first, last]. Every neighbour
/// of an own cell lies within `reach` linear cells of it, so one descent
/// over the widened range [first - reach, last + reach] (clamped) yields
/// every count and prefix the rows need, and each touched cell's point
/// stream is generated at most once.
RankLocalRows rgg_rows(const ResolvedWorkload& w, index_t row0, index_t row1,
                       WgenStats* work) {
  RankLocalRows out;
  out.row_ptr.reserve(static_cast<std::size_t>(row1 - row0) + 1);
  out.row_ptr.push_back(0);
  if (row0 == row1) return out;
  const bool three_d = w.family == Family::Rgg3D;
  const index_t cells = w.cells;
  const offset_t ncells = three_d
                              ? static_cast<offset_t>(cells) * cells * cells
                              : static_cast<offset_t>(cells) * cells;
  CellSplit split(w.seed, ncells, w.rows);
  const double r2 = w.radius * w.radius;

  offset_t first = 0;
  offset_t last = 0;
  index_t off = 0;
  split.locate(row0, &first, &off);
  split.locate(row1 - 1, &last, &off);
  const offset_t reach = three_d ? static_cast<offset_t>(cells) * cells +
                                       cells + 1
                                 : static_cast<offset_t>(cells) + 1;
  const offset_t c0 = std::max<offset_t>(0, first - reach);
  const offset_t c1 = std::min(ncells, last + reach + 1);
  const auto span = static_cast<std::size_t>(c1 - c0);

  // Point counts of cells [c0, c1) and their first global point ids.
  std::vector<index_t> count(span);
  std::vector<index_t> start(span + 1);
  split.range(c0, c1, count.data(), &start[0]);
  for (std::size_t i = 0; i < span; ++i) start[i + 1] = start[i] + count[i];

  // Point streams, generated on first touch into slot gid - start[0].
  std::vector<Point> pts(static_cast<std::size_t>(start[span] - start[0]));
  std::vector<char> ready(span, 0);
  offset_t streams = 0;
  const auto points_of = [&](std::size_t i) -> const Point* {
    Point* p = pts.data() + (start[i] - start[0]);
    if (!ready[i]) {
      cell_points(w, c0 + static_cast<offset_t>(i), count[i], p);
      ready[i] = 1;
      ++streams;
    }
    return p;
  };

  struct NeighborCell {
    index_t gid0 = 0;  // global id of the cell's first point
    index_t cnt = 0;
    const Point* pts = nullptr;
  };
  std::vector<NeighborCell> nbrs;
  std::vector<std::pair<index_t, value_t>> entries;

  for (offset_t cell = first; cell <= last; ++cell) {
    const auto ci = static_cast<std::size_t>(cell - c0);
    const index_t cnt = count[ci];
    if (cnt == 0) continue;
    const Point* own = points_of(ci);

    // Gather the non-empty cells among the 3^d surrounding ones (clamped at
    // the domain boundary — no wrap-around).
    nbrs.clear();
    const auto cx = static_cast<index_t>(cell % cells);
    const auto cyz = cell / cells;
    const auto cy = static_cast<index_t>(cyz % cells);
    const auto cz = static_cast<index_t>(cyz / cells);
    const index_t z_lo = three_d ? std::max<index_t>(0, cz - 1) : 0;
    const index_t z_hi = three_d ? std::min<index_t>(cells - 1, cz + 1) : 0;
    for (index_t zz = z_lo; zz <= z_hi; ++zz) {
      for (index_t yy = std::max<index_t>(0, cy - 1);
           yy <= std::min<index_t>(cells - 1, cy + 1); ++yy) {
        for (index_t xx = std::max<index_t>(0, cx - 1);
             xx <= std::min<index_t>(cells - 1, cx + 1); ++xx) {
          const offset_t nc =
              (static_cast<offset_t>(zz) * cells + yy) * cells + xx;
          FSAIC_CHECK(nc >= c0 && nc < c1, "rgg neighbour outside reach");
          const auto ni = static_cast<std::size_t>(nc - c0);
          if (count[ni] == 0) continue;
          nbrs.push_back({start[ni], count[ni], points_of(ni)});
        }
      }
    }

    const index_t pre = start[ci];
    const index_t j_lo = std::max<index_t>(0, row0 - pre);
    const index_t j_hi = std::min<index_t>(cnt, row1 - pre);
    for (index_t j = j_lo; j < j_hi; ++j) {
      const index_t gid = pre + j;
      const Point& pj = own[j];
      for (const NeighborCell& n : nbrs) {
        for (index_t k = 0; k < n.cnt; ++k) {
          if (n.gid0 + k == gid) continue;
          const double dx = n.pts[k].x - pj.x;
          const double dy = n.pts[k].y - pj.y;
          const double dz = n.pts[k].z - pj.z;
          if (dx * dx + dy * dy + dz * dz <= r2) {
            entries.emplace_back(n.gid0 + k, -1.0);
          }
        }
      }
      // Integer degree + shift: no accumulation-order sensitivity anywhere.
      entries.emplace_back(gid,
                           static_cast<value_t>(entries.size()) + w.shift);
      append_row(entries, out);
    }
  }
  FSAIC_REQUIRE(out.row_ptr.size() == static_cast<std::size_t>(row1 - row0) + 1,
                "rgg generation lost rows");
  if (work != nullptr) {
    work->split_nodes += split.split_nodes();
    work->cell_streams += streams;
  }
  return out;
}

// ---- R-MAT graph Laplacian ----------------------------------------------

/// Graph500 partition probabilities (a, b, c, d) = (.57, .19, .19, .05).
RankLocalRows rmat_rows(const ResolvedWorkload& w, index_t row0, index_t row1) {
  const index_t nloc = row1 - row0;
  // Every edge endpoint in [row0, row1), as (local row gid, neighbor gid).
  // Each rank rescans the full deterministic edge stream and keeps its own
  // endpoints: O(edges) compute but O(rows/rank) memory — the price of
  // rank-local generation for a family with no geometric locality.
  std::vector<std::pair<index_t, index_t>> incident;
  for (offset_t e = 0; e < w.edges; ++e) {
    Rng rng(hash_combine(w.seed ^ kEdgeTag, static_cast<std::uint64_t>(e)));
    index_t i = 0;
    index_t j = 0;
    for (int level = 0; level < w.scale; ++level) {
      const double u = rng.next_uniform();
      i <<= 1;
      j <<= 1;
      if (u < 0.57) {
        // top-left quadrant
      } else if (u < 0.76) {
        j |= 1;
      } else if (u < 0.95) {
        i |= 1;
      } else {
        i |= 1;
        j |= 1;
      }
    }
    if (i == j) continue;  // self-loops contribute nothing to the Laplacian
    if (i >= row0 && i < row1) incident.emplace_back(i, j);
    if (j >= row0 && j < row1) incident.emplace_back(j, i);
  }
  std::sort(incident.begin(), incident.end());

  RankLocalRows out;
  out.row_ptr.reserve(static_cast<std::size_t>(nloc) + 1);
  out.row_ptr.push_back(0);
  std::size_t k = 0;
  std::vector<std::pair<index_t, value_t>> entries;
  for (index_t li = 0; li < nloc; ++li) {
    const index_t gi = row0 + li;
    offset_t degree = 0;
    while (k < incident.size() && incident[k].first == gi) {
      // Duplicate edges collapse into one entry of weight -multiplicity.
      const index_t col = incident[k].second;
      offset_t mult = 0;
      while (k < incident.size() && incident[k].first == gi &&
             incident[k].second == col) {
        ++mult;
        ++k;
      }
      degree += mult;
      entries.emplace_back(col, -static_cast<value_t>(mult));
    }
    entries.emplace_back(gi, static_cast<value_t>(degree) + w.shift);
    append_row(entries, out);
  }
  return out;
}

}  // namespace

RankLocalRows generate_rows(const ResolvedWorkload& w, index_t row0,
                            index_t row1, WgenStats* work) {
  FSAIC_REQUIRE(row0 >= 0 && row0 <= row1 && row1 <= w.rows,
                "generate_rows range out of bounds");
  switch (w.family) {
    case Family::Stencil2D:
    case Family::Stencil3D:
    case Family::Stencil27:
      return stencil_rows(w, row0, row1);
    case Family::Rgg2D:
    case Family::Rgg3D:
      return rgg_rows(w, row0, row1, work);
    case Family::Rmat:
      return rmat_rows(w, row0, row1);
  }
  throw Error("unknown workload family");
}

DistCsr generate_dist(const ResolvedWorkload& w, rank_t nranks,
                      const CommConfig& comm, WgenStats* stats,
                      Executor* exec) {
  FSAIC_REQUIRE(nranks >= 1, "generate_dist needs >= 1 ranks");
  const Layout layout = Layout::blocked(w.rows, nranks);
  const auto t0 = std::chrono::steady_clock::now();
  // Per-rank work counters: ranks may generate concurrently.
  std::vector<WgenStats> work(static_cast<std::size_t>(nranks));
  DistCsr d = DistCsr::from_rank_local(
      layout,
      [&w, &layout, &work](rank_t p) {
        return generate_rows(w, layout.begin(p), layout.end(p),
                             &work[static_cast<std::size_t>(p)]);
      },
      comm, exec);
  if (stats != nullptr) {
    stats->rows = w.rows;
    stats->nnz = d.nnz();
    stats->nranks = nranks;
    stats->max_rank_nnz = d.max_rank_nnz();
    stats->max_rank_rows = 0;
    stats->split_nodes = 0;
    stats->cell_streams = 0;
    for (rank_t p = 0; p < nranks; ++p) {
      stats->max_rank_rows =
          std::max(stats->max_rank_rows, layout.local_size(p));
      stats->split_nodes += work[static_cast<std::size_t>(p)].split_nodes;
      stats->cell_streams += work[static_cast<std::size_t>(p)].cell_streams;
    }
    stats->generate_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  return d;
}

CsrMatrix generate_global(const ResolvedWorkload& w) {
  RankLocalRows rows = generate_rows(w, 0, w.rows);
  return CsrMatrix(w.rows, w.rows, std::move(rows.row_ptr),
                   std::move(rows.col_gids), std::move(rows.values));
}

}  // namespace fsaic::wgen
