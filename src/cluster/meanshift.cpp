#include "cluster/meanshift.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/error.hpp"

namespace mosaic::cluster {

namespace {

/// Shift iterations per point before it is taken as converged.
constexpr std::size_t kMaxIterations = 200;
/// A point has converged once one shift moves it less than this.
constexpr double kConvergenceTolerance = 1e-5;

}  // namespace

PointSet::PointSet(std::size_t dim) : dim_(dim) { MOSAIC_ASSERT(dim >= 1); }

void PointSet::add(std::span<const double> point) {
  MOSAIC_ASSERT(point.size() == dim_);
  data_.insert(data_.end(), point.begin(), point.end());
}

void PointSet::reset(std::size_t dim) {
  MOSAIC_ASSERT(dim >= 1);
  dim_ = dim;
  data_.clear();
}

double squared_distance(std::span<const double> a,
                        std::span<const double> b) noexcept {
  MOSAIC_ASSERT(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

PointSet min_max_scale(const PointSet& points) {
  PointSet scaled(points.dim());
  min_max_scale(points, scaled);
  return scaled;
}

void min_max_scale(const PointSet& points, PointSet& out) {
  const std::size_t dim = points.dim();
  const std::size_t n = points.size();
  MOSAIC_ASSERT(&out != &points);
  out.reset(dim);
  out.data_.resize(n * dim);
  // One column at a time, so any dimensionality scales without scratch.
  for (std::size_t d = 0; d < dim; ++d) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      lo = std::min(lo, points.point(i)[d]);
      hi = std::max(hi, points.point(i)[d]);
    }
    const double range = hi - lo;
    for (std::size_t i = 0; i < n; ++i) {
      out.data_[i * dim + d] =
          range > 0.0 ? (points.point(i)[d] - lo) / range : 0.0;
    }
  }
}

MeanShiftResult mean_shift(const PointSet& points, double bandwidth) {
  MeanShiftWorkspace workspace;
  MeanShiftResult result;
  mean_shift(points, bandwidth, workspace, result, /*observe=*/false);
  return result;
}

void mean_shift(const PointSet& points, double bandwidth,
                MeanShiftWorkspace& workspace, MeanShiftResult& out,
                bool observe) {
  out.labels.clear();
  out.modes.clear();
  out.cluster_sizes.clear();
  out.total_iterations = 0;
  const std::size_t n = points.size();
  if (n == 0) return;
  MOSAIC_ASSERT(bandwidth > 0.0);

  const std::size_t dim = points.dim();
  const double h2 = bandwidth * bandwidth;

  // Iterations-to-converge distribution: the knob the bandwidth ablation
  // turns (a too-small bandwidth shows up as points hitting the cap).
  // Sampled runs only, like the stage histograms.
  obs::Histogram* iterations_hist = nullptr;
  if (observe) {
    static constexpr double kIterationEdges[] = {1,  2,  4,   8,  16,
                                                 32, 64, 128, 256};
    static obs::Histogram& hist = obs::Registry::global().histogram(
        obs::names::kMeanShiftIterations, kIterationEdges,
        "Mean-Shift iterations until a point converged (sampled runs)");
    static obs::Counter& points_counter = obs::Registry::global().counter(
        obs::names::kMeanShiftPoints,
        "points shifted by Mean-Shift (sampled runs)");
    points_counter.add(n);
    iterations_hist = &hist;
  }

  // Shift every point to its density mode: the mean of the points within
  // the bandwidth, summed in index order. converged is a flat n*dim store;
  // current/next swap roles each iteration instead of copying.
  workspace.converged.resize(n * dim);
  std::vector<double>& current = workspace.current;
  std::vector<double>& next = workspace.next;
  current.resize(dim);
  next.resize(dim);
  for (std::size_t i = 0; i < n; ++i) {
    const auto seed = points.point(i);
    current.assign(seed.begin(), seed.end());
    std::size_t iterations_used = kMaxIterations;
    for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
      std::fill(next.begin(), next.end(), 0.0);
      std::size_t neighbors = 0;
      for (std::size_t j = 0; j < n; ++j) {
        const auto q = points.point(j);
        if (squared_distance(q, current) > h2) continue;
        for (std::size_t d = 0; d < dim; ++d) next[d] += q[d];
        ++neighbors;
      }
      if (neighbors == 0) {  // isolated point: already a mode
        iterations_used = iter + 1;
        break;
      }
      double shift2 = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        next[d] /= static_cast<double>(neighbors);
        const double delta = next[d] - current[d];
        shift2 += delta * delta;
      }
      current.swap(next);
      if (shift2 < kConvergenceTolerance * kConvergenceTolerance) {
        iterations_used = iter + 1;
        break;
      }
    }
    if (iterations_hist != nullptr) {
      iterations_hist->observe(static_cast<double>(iterations_used));
    }
    out.total_iterations += iterations_used;
    std::copy(current.begin(), current.end(),
              workspace.converged.data() + i * dim);
  }

  // Merge converged modes within half the bandwidth into clusters (modes is
  // a flat m*dim buffer; m is small in practice).
  const double merge_radius = bandwidth / 2.0;
  const double merge2 = merge_radius * merge_radius;
  workspace.raw_label.resize(n);
  workspace.modes.clear();
  const auto converged_point = [&](std::size_t i) {
    return std::span<const double>{workspace.converged.data() + i * dim, dim};
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t mode_count = workspace.modes.size() / dim;
    std::size_t assigned = mode_count;
    for (std::size_t m = 0; m < mode_count; ++m) {
      const std::span<const double> mode{workspace.modes.data() + m * dim,
                                         dim};
      if (squared_distance(converged_point(i), mode) <= merge2) {
        assigned = m;
        break;
      }
    }
    if (assigned == mode_count) {
      const auto p = converged_point(i);
      workspace.modes.insert(workspace.modes.end(), p.begin(), p.end());
    }
    workspace.raw_label[i] = assigned;
  }

  // Renumber clusters by decreasing size; ties keep first-seen order.
  const std::size_t mode_count = workspace.modes.size() / dim;
  workspace.sizes.assign(mode_count, 0);
  for (const std::size_t label : workspace.raw_label) {
    ++workspace.sizes[label];
  }
  workspace.order.resize(mode_count);
  std::iota(workspace.order.begin(), workspace.order.end(), 0);
  std::sort(workspace.order.begin(), workspace.order.end(),
            [&](std::size_t a, std::size_t b) {
              const std::size_t size_a = workspace.sizes[a];
              const std::size_t size_b = workspace.sizes[b];
              return size_a != size_b ? size_a > size_b : a < b;
            });
  workspace.rank.resize(mode_count);
  for (std::size_t r = 0; r < mode_count; ++r) {
    workspace.rank[workspace.order[r]] = r;
  }

  out.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.labels[i] = workspace.rank[workspace.raw_label[i]];
  }
  out.modes.resize(mode_count);
  out.cluster_sizes.resize(mode_count);
  for (std::size_t m = 0; m < mode_count; ++m) {
    out.modes[workspace.rank[m]].assign(
        workspace.modes.data() + m * dim,
        workspace.modes.data() + (m + 1) * dim);
    out.cluster_sizes[workspace.rank[m]] = workspace.sizes[m];
  }
}

}  // namespace mosaic::cluster
