// Mean-Shift clustering (Fukunaga & Hostetler 1975), implemented from
// scratch for MOSAIC's periodicity detector (paper §III-B3a).
//
// Segments of a trace are embedded as low-dimensional feature points
// (duration, volume); Mean-Shift finds density modes without a preset
// cluster count — exactly why the paper prefers it over k-means: a trace may
// contain zero, one or several periodic operations. Groups of size >= 2
// correspond to repeated (periodic) segments.
//
// The kernel is the classic flat (uniform ball) one, and each shift step
// scans every point in index order: segmentation yields a handful of points
// per run (EXPERIMENTS.md §IV-E), too few for a neighborhood index to pay.
// All per-call scratch lives in a reusable MeanShiftWorkspace so the
// steady-state batch path runs allocation-free (DESIGN.md §12).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mosaic::cluster {

/// Clustering result. labels[i] is the cluster of point i; clusters are
/// numbered 0..mode_count-1 in decreasing size order.
struct MeanShiftResult {
  std::vector<std::size_t> labels;          ///< cluster index per input point
  std::vector<std::vector<double>> modes;   ///< converged mode per cluster
  std::vector<std::size_t> cluster_sizes;   ///< points per cluster
  std::size_t total_iterations = 0;         ///< shift iterations, all points
};

/// Squared Euclidean distance between two equal-length vectors.
[[nodiscard]] double squared_distance(std::span<const double> a,
                                      std::span<const double> b) noexcept;

/// A set of points with a fixed dimensionality, stored row-major in one
/// contiguous buffer (point i occupies data()[i*dim .. i*dim+dim)).
class PointSet {
 public:
  /// Precondition: dim >= 1.
  explicit PointSet(std::size_t dim);

  /// Appends one point. Precondition: point.size() == dim().
  void add(std::span<const double> point);

  /// Drops all points and switches to `dim` coordinates per point, keeping
  /// the underlying capacity. Lets a workspace reuse one PointSet across
  /// traces without reallocating. Precondition: dim >= 1.
  void reset(std::size_t dim);

  /// Number of coordinates per point.
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  /// Number of points.
  [[nodiscard]] std::size_t size() const noexcept {
    return data_.size() / dim_;
  }
  /// The i-th point as a dim()-length view.
  [[nodiscard]] std::span<const double> point(std::size_t i) const noexcept {
    return {data_.data() + i * dim_, dim_};
  }
  /// The whole row-major coordinate buffer.
  [[nodiscard]] std::span<const double> raw() const noexcept { return data_; }

 private:
  friend void min_max_scale(const PointSet& points, PointSet& out);

  std::size_t dim_;
  std::vector<double> data_;
};

/// Reusable scratch for mean_shift(): the per-point shift, label and
/// mode-merge buffers. One instance per worker thread; after the first few
/// traces every buffer has reached its high-water capacity and mean_shift()
/// stops allocating (DESIGN.md §12). Contents are an implementation detail
/// of mean_shift().
struct MeanShiftWorkspace {
  std::vector<double> converged;      ///< n*dim converged position per point
  std::vector<double> current;        ///< dim: position being shifted
  std::vector<double> next;           ///< dim: neighbor mean
  std::vector<double> modes;          ///< flat m*dim merged mode buffer
  std::vector<std::size_t> raw_label; ///< first-seen mode per point
  std::vector<std::size_t> sizes;     ///< points per raw mode
  std::vector<std::size_t> order;     ///< modes sorted by decreasing size
  std::vector<std::size_t> rank;      ///< raw mode -> final cluster index
};

/// Rescales each coordinate to [0, 1] by column min/max (constant columns
/// map to 0). Returns the scaled copy; the original is untouched.
/// Equal-importance scaling is what makes one bandwidth meaningful across
/// the duration and volume axes.
[[nodiscard]] PointSet min_max_scale(const PointSet& points);

/// As above, but writes into `out` (reset to points.dim(), storage reused) —
/// the allocation-free form the analyzer workspace uses.
/// Precondition: `out` is not `points`.
void min_max_scale(const PointSet& points, PointSet& out);

/// Runs flat-kernel Mean-Shift over `points` with kernel radius `bandwidth`
/// (in scaled feature space). Each point shifts for at most 200 iterations,
/// stopping once a step moves it less than 1e-5; converged points within
/// bandwidth / 2 share a cluster. Empty input yields an empty result.
/// Convenience form: allocates a fresh workspace per call.
/// Precondition: bandwidth > 0.
[[nodiscard]] MeanShiftResult mean_shift(const PointSet& points,
                                         double bandwidth);

/// Workspace form: all scratch comes from `workspace` and the clustering is
/// written into `out` (previous contents discarded, storage reused). Results
/// are identical to the convenience form bit for bit — workspaces only
/// change where the buffers live, never the arithmetic. `observe` feeds the
/// mosaic_meanshift_* metrics (one iteration count per point, the points
/// shifted); the analyzer passes its 1-in-32 stage-detail sample, and the
/// convenience form observes nothing.
void mean_shift(const PointSet& points, double bandwidth,
                MeanShiftWorkspace& workspace, MeanShiftResult& out,
                bool observe);

}  // namespace mosaic::cluster
