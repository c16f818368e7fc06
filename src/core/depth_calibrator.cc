#include "src/core/depth_calibrator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "src/common/check.h"

namespace metis {

namespace {

// Retrieval width at which the sweeps measure gold-chunk coverage.
constexpr size_t kTopK = 10;

}  // namespace

DepthCalibrator::DepthCalibrator(DepthCalibratorOptions options) : options_(options) {}

std::vector<size_t> DepthCalibrator::GridFor(size_t nlist) {
  std::vector<size_t> grid{1, 2, 3, 4, 6, 8, 10, 12, 16};
  for (size_t& b : grid) {
    b = std::max<size_t>(1, std::min(b, std::max<size_t>(nlist, 1)));
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  return grid;
}

RetrievalDepthPolicyOptions DepthCalibrator::DeriveFromProfile(const DatasetProfile& profile,
                                                               size_t nlist) const {
  RetrievalDepthPolicyOptions line;
  line.adaptive = options_.adaptive;
  if (nlist == 0) {
    return line;  // Flat backend: the options are inert; keep the defaults.
  }
  // Ceiling: single-piece lookups are all-or-nothing (a missed gold list
  // collapses token F1 to ~0), so they may scan every list. Long-output
  // tasks (summarization-style, Table 1's max_output_tokens) accrue partial
  // credit across many gold chunks and saturate earlier — cap their deepest
  // scan at 3/4 of the lists.
  size_t max_budget = nlist;
  if (profile.max_output_tokens > 20) {
    max_budget = std::max<size_t>(2, (nlist * 3) / 4);
  }
  // Floor: when the corpus geometry is diffuse (low topic_fraction the
  // shared filler vocabulary dominates and IVF lists carry little topical
  // meaning), shallow probes are near-random — keep a geometry-scaled
  // minimum. A topical corpus (high fraction) lets many-piece queries stop
  // at the couple of lists nearest their mixture embedding.
  size_t min_budget = std::max<size_t>(
      2, static_cast<size_t>(std::lround(nlist * (1.0 - profile.topic_fraction) * 0.4)));
  min_budget = std::min(min_budget, max_budget);
  // Slope: spread the [min, max] range down the dataset's piece range
  // [1, max_facts] — the PR 4 measured direction (descending in pieces),
  // scaled per dataset. max_facts == 1 collapses to a flat line at the cap.
  int slope = 0;
  if (profile.max_facts > 1 && max_budget > min_budget) {
    slope = -std::max<int>(
        1, static_cast<int>(std::lround(static_cast<double>(max_budget - min_budget) /
                                        static_cast<double>(profile.max_facts))));
  }
  line.min_budget = min_budget;
  line.max_budget = max_budget;
  line.probes_per_piece = slope;
  // base + slope * 1 == max_budget: single-piece queries get the full cap.
  line.base_probes = max_budget + static_cast<size_t>(-slope);
  return line;
}

RetrievalDepthPolicyOptions DepthCalibrator::Calibrate(const Dataset& dataset) const {
  const IvfL2Index* ivf = dataset.db().ivf_index();
  const size_t nlist = ivf != nullptr ? ivf->nlist() : 0;
  RetrievalDepthPolicyOptions line = DeriveFromProfile(dataset.profile(), nlist);
  if (ivf == nullptr) {
    return line;  // Flat: nothing to sweep, and the options are inert anyway.
  }
  const std::vector<size_t> grid = GridFor(nlist);
  const size_t holdout = std::min<size_t>(options_.holdout_queries, dataset.queries().size());
  if (holdout == 0) {
    return line;
  }

  // Mean gold-chunk coverage per (piece group, grid budget). The offline pass
  // may use gold labels (they exist at calibration time, like the profiling
  // data METIS prunes its config space with); the serving path still works
  // from the profiler's num_info_pieces estimate.
  struct GroupStats {
    std::vector<double> coverage;  // Parallel to `grid`.
    size_t queries = 0;
  };
  std::map<int, GroupStats> groups;
  for (size_t i = 0; i < holdout; ++i) {
    const RagQuery& query = dataset.queries()[i];
    std::unordered_set<ChunkId> gold_chunks;
    for (int32_t fact_id : query.gold_fact_ids) {
      if (dataset.has_fact(fact_id)) {
        gold_chunks.insert(dataset.fact(fact_id).chunk_id);
      }
    }
    if (gold_chunks.empty()) {
      continue;
    }
    GroupStats& group = groups[std::max(query.num_facts, 1)];
    if (group.coverage.empty()) {
      group.coverage.assign(grid.size(), 0.0);
    }
    group.queries++;
    for (size_t g = 0; g < grid.size(); ++g) {
      RetrievalQuality quality;
      quality.mode = RetrievalQuality::ProbeMode::kFixed;
      quality.nprobe = grid[g];
      std::vector<ChunkId> got = dataset.db().Retrieve(query.text, kTopK, quality);
      size_t hit = 0;
      for (ChunkId id : got) {
        hit += gold_chunks.count(id);
      }
      group.coverage[g] +=
          static_cast<double>(hit) / static_cast<double>(gold_chunks.size());
    }
  }
  if (groups.empty()) {
    return line;
  }

  // Per group: the smallest grid budget whose coverage matches the deepest
  // budget's — that group's minimal sufficient budget.
  struct Target {
    long pieces;
    long budget;
    double weight;
  };
  std::vector<Target> targets;
  size_t min_target = grid.back();
  size_t max_target = grid.front();
  for (auto& [pieces, group] : groups) {
    double deepest = group.coverage.back() / group.queries;
    size_t target = grid.back();
    for (size_t g = 0; g < grid.size(); ++g) {
      if (group.coverage[g] / group.queries >= deepest) {
        target = grid[g];
        break;
      }
    }
    targets.push_back(Target{pieces, static_cast<long>(target),
                             static_cast<double>(group.queries)});
    min_target = std::min(min_target, target);
    max_target = std::max(max_target, target);
  }
  line.min_budget = std::max<size_t>(1, min_target);
  line.max_budget = std::max<size_t>(line.min_budget, max_target);

  // Fit the cheapest COVERING line: over integer slopes, take the smallest
  // intercept with budget(p) >= target_p for every measured group, then keep
  // the (slope, base) pair with the lowest expected probe spend. Covering —
  // rather than least-squares through the targets — means the fitted line
  // never under-probes a group the sweep measured (a least-squares fit
  // splits the difference between groups and silently trades their
  // coverage); probes are saved only where the line would OVER-probe a
  // group's plateau. Clamps at [min, max] keep out-of-range piece counts
  // (profiler over-estimates) sane. Slopes are restricted to <= 0: the
  // serving-time num_info_pieces is an ESTIMATE, and a non-ascending line
  // fails safe under piece under-estimates (deeper, not shallower) — an
  // ascending fit would under-probe exactly the all-or-nothing queries a
  // miss is unrecoverable for, so ascending target sets collapse to the
  // flat covering line instead.
  long best_slope = 0;
  long best_base = static_cast<long>(max_target);
  double best_cost = -1;
  const long slope_limit = static_cast<long>(grid.back());
  for (long slope = -slope_limit; slope <= 0; ++slope) {
    long base = 0;
    for (const Target& t : targets) {
      base = std::max(base, t.budget - slope * t.pieces);
    }
    // Profile-noise headroom: the sweep's targets are indexed by ground-truth
    // pieces, but serving budgets come from the profiler's ESTIMATE. A
    // one-piece over-estimate slides a query |slope| probes down the line,
    // so the intercept absorbs half of that; steeper lines pay a larger
    // guard, which the cost comparison below charges them for.
    base += (-slope + 1) / 2;
    double cost = 0;
    for (const Target& t : targets) {
      long b = std::clamp(base + slope * t.pieces, static_cast<long>(line.min_budget),
                          static_cast<long>(line.max_budget));
      cost += t.weight * static_cast<double>(b);
    }
    // Tie-break toward the flattest line (least extrapolation risk).
    if (best_cost < 0 || cost < best_cost ||
        (cost == best_cost && std::abs(slope) < std::abs(best_slope))) {
      best_cost = cost;
      best_slope = slope;
      best_base = base;
    }
  }
  line.probes_per_piece = static_cast<int>(best_slope);
  line.base_probes = static_cast<size_t>(std::max<long>(0, best_base));
  return line;
}

}  // namespace metis
