//! Private location collection: grids, range queries, hot spots.
//!
//! §1.3's first research direction. Users hold points in `[0,1]²`; the
//! aggregator wants spatial density — for rectilinear ("how many users in
//! this rectangle?") queries and hot-spot detection — without learning any
//! individual location. Following Chen et al. (ICDE 2016), space is
//! discretized into a grid and cell occupancy becomes a frequency-oracle
//! problem:
//!
//! * [`UniformGrid`] — a `g × g` grid collected through OLH; supports
//!   unbiased rectilinear range queries (with fractional cell weighting)
//!   and top-k hot-spot extraction.
//! * [`AdaptiveGrid`] — a two-round refinement: a coarse pass with half
//!   the users finds dense cells; the second half's budget is spent
//!   subdividing only those, improving hot-spot resolution for the same ε
//!   (the granularity trade-off experiment E8 sweeps).

use ldp_core::fo::{FoAggregator, FrequencyOracle, OptimizedLocalHashing};
use ldp_core::{Epsilon, Error, Result};
use rand::Rng;

/// A point in the unit square.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Horizontal coordinate in `[0, 1]`.
    pub x: f64,
    /// Vertical coordinate in `[0, 1]`.
    pub y: f64,
}

impl Point {
    /// Creates a point, validating both coordinates.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameter`] if a coordinate leaves `[0,1]`.
    pub fn new(x: f64, y: f64) -> Result<Self> {
        if !((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y)) {
            return Err(Error::InvalidParameter(format!(
                "point ({x}, {y}) outside unit square"
            )));
        }
        Ok(Self { x, y })
    }
}

/// An axis-aligned rectangle `[x0, x1] × [y0, y1]` inside the unit square.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub x0: f64,
    /// Bottom edge.
    pub y0: f64,
    /// Right edge.
    pub x1: f64,
    /// Top edge.
    pub y1: f64,
}

impl Rect {
    /// Creates a rectangle, validating ordering and bounds.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameter`] for inverted or out-of-range
    /// rectangles.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Result<Self> {
        if !(0.0 <= x0 && x0 <= x1 && x1 <= 1.0 && 0.0 <= y0 && y0 <= y1 && y1 <= 1.0) {
            return Err(Error::InvalidParameter(format!(
                "invalid rectangle [{x0},{x1}]x[{y0},{y1}]"
            )));
        }
        Ok(Self { x0, y0, x1, y1 })
    }

    fn overlap_1d(lo: f64, hi: f64, cell_lo: f64, cell_hi: f64) -> f64 {
        let inter = (hi.min(cell_hi) - lo.max(cell_lo)).max(0.0);
        let width = cell_hi - cell_lo;
        if width <= 0.0 {
            0.0
        } else {
            inter / width
        }
    }
}

/// A `g × g` uniform grid collected privately through OLH.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    g: u32,
    epsilon: Epsilon,
    oracle: OptimizedLocalHashing,
}

impl UniformGrid {
    /// Creates a grid of `g × g` cells.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameter`] unless `1 ≤ g ≤ 256`.
    pub fn new(g: u32, epsilon: Epsilon) -> Result<Self> {
        if g == 0 || g > 256 {
            return Err(Error::InvalidParameter(format!(
                "g must be in [1, 256], got {g}"
            )));
        }
        Ok(Self {
            g,
            epsilon,
            oracle: OptimizedLocalHashing::new(g as u64 * g as u64, epsilon),
        })
    }

    /// Grid granularity `g`.
    pub fn granularity(&self) -> u32 {
        self.g
    }

    /// Per-user privacy budget.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The cell index of a point (row-major).
    pub fn cell_of(&self, p: Point) -> u64 {
        let g = self.g as f64;
        let cx = ((p.x * g) as u32).min(self.g - 1);
        let cy = ((p.y * g) as u32).min(self.g - 1);
        (cy * self.g + cx) as u64
    }

    /// Collects the grid: each user reports their cell through OLH.
    /// Returns a [`GridEstimate`].
    pub fn collect<R: Rng>(&self, points: &[Point], rng: &mut R) -> GridEstimate {
        let mut agg = self.oracle.new_aggregator();
        for &p in points {
            agg.accumulate(&self.oracle.randomize(self.cell_of(p), rng));
        }
        GridEstimate {
            g: self.g,
            counts: agg.estimate(),
            n: points.len(),
        }
    }
}

/// The decoded density grid.
#[derive(Debug, Clone)]
pub struct GridEstimate {
    g: u32,
    counts: Vec<f64>,
    n: usize,
}

impl GridEstimate {
    /// Estimated count in cell `(cx, cy)`.
    ///
    /// # Panics
    /// Panics if the cell is out of range.
    pub fn cell(&self, cx: u32, cy: u32) -> f64 {
        assert!(cx < self.g && cy < self.g, "cell out of range");
        self.counts[(cy * self.g + cx) as usize]
    }

    /// All estimated counts, row-major.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Reports collected.
    pub fn reports(&self) -> usize {
        self.n
    }

    /// Unbiased rectilinear range query: sums cells weighted by their
    /// fractional overlap with `rect` (the uniformity-within-cell
    /// approximation standard in grid methods).
    pub fn range_query(&self, rect: Rect) -> f64 {
        let g = self.g as f64;
        let mut total = 0.0;
        for cy in 0..self.g {
            let (cy0, cy1) = (cy as f64 / g, (cy + 1) as f64 / g);
            let wy = Rect::overlap_1d(rect.y0, rect.y1, cy0, cy1);
            if wy == 0.0 {
                continue;
            }
            for cx in 0..self.g {
                let (cx0, cx1) = (cx as f64 / g, (cx + 1) as f64 / g);
                let wx = Rect::overlap_1d(rect.x0, rect.x1, cx0, cx1);
                if wx > 0.0 {
                    total += wx * wy * self.cell(cx, cy);
                }
            }
        }
        total
    }

    /// The `k` densest cells as `(cx, cy, estimate)`, descending.
    pub fn hot_spots(&self, k: usize) -> Vec<(u32, u32, f64)> {
        let mut cells: Vec<(u32, u32, f64)> = (0..self.counts.len())
            .map(|i| {
                let cy = i as u32 / self.g;
                let cx = i as u32 % self.g;
                (cx, cy, self.counts[i])
            })
            .collect();
        cells.sort_by(|a, b| b.2.total_cmp(&a.2));
        cells.truncate(k);
        cells
    }
}

/// Two-round adaptive grid: coarse pass, then subdivision of dense cells.
#[derive(Debug, Clone)]
pub struct AdaptiveGrid {
    coarse_g: u32,
    refine_factor: u32,
    dense_cells: usize,
    epsilon: Epsilon,
}

/// The adaptive estimate: the coarse grid plus refined sub-grids for the
/// selected dense cells.
#[derive(Debug, Clone)]
pub struct AdaptiveEstimate {
    /// Coarse-level estimate.
    pub coarse: GridEstimate,
    /// Refined cells: `(cx, cy, sub-grid counts)` where the sub-grid is
    /// `refine_factor × refine_factor`, scaled to full-population counts.
    pub refined: Vec<(u32, u32, Vec<f64>)>,
    refine_factor: u32,
}

impl AdaptiveGrid {
    /// Creates the two-round protocol: a `coarse_g²` first round, then
    /// the top `dense_cells` cells subdivided `refine_factor ×`.
    ///
    /// # Errors
    /// Validates each granularity like [`UniformGrid::new`].
    pub fn new(
        coarse_g: u32,
        refine_factor: u32,
        dense_cells: usize,
        epsilon: Epsilon,
    ) -> Result<Self> {
        if coarse_g == 0 || coarse_g > 64 || !(2..=16).contains(&refine_factor) {
            return Err(Error::InvalidParameter(
                "need 1 <= coarse_g <= 64 and 2 <= refine_factor <= 16".into(),
            ));
        }
        if dense_cells == 0 {
            return Err(Error::InvalidParameter(
                "dense_cells must be positive".into(),
            ));
        }
        Ok(Self {
            coarse_g,
            refine_factor,
            dense_cells,
            epsilon,
        })
    }

    /// Runs both rounds, splitting users half/half.
    ///
    /// # Errors
    /// Propagates grid construction failures (cannot occur for validated
    /// parameters).
    pub fn collect<R: Rng>(&self, points: &[Point], rng: &mut R) -> Result<AdaptiveEstimate> {
        let half = points.len() / 2;
        let (first, second) = points.split_at(half);

        let coarse_grid = UniformGrid::new(self.coarse_g, self.epsilon)?;
        let mut coarse = coarse_grid.collect(first, rng);
        // Scale round-1 estimates to the full population.
        let scale1 = points.len() as f64 / first.len().max(1) as f64;
        for c in coarse.counts.iter_mut() {
            *c *= scale1;
        }
        coarse.n = points.len();

        let dense = coarse.hot_spots(self.dense_cells);

        // Round 2: users in a dense cell report (dense index, sub-cell);
        // others report a reserved "elsewhere" value.
        let rf = self.refine_factor;
        let sub_domain = dense.len() as u64 * (rf as u64 * rf as u64);
        let oracle = OptimizedLocalHashing::new(sub_domain + 1, self.epsilon);
        let mut agg = oracle.new_aggregator();
        let g = self.coarse_g as f64;
        let locate = |p: &Point| -> u64 {
            for (i, &(cx, cy, _)) in dense.iter().enumerate() {
                let (x0, y0) = (cx as f64 / g, cy as f64 / g);
                let (x1, y1) = ((cx + 1) as f64 / g, (cy + 1) as f64 / g);
                if p.x >= x0 && p.x < x1 + 1e-12 && p.y >= y0 && p.y < y1 + 1e-12 {
                    let sx = (((p.x - x0) / (x1 - x0) * rf as f64) as u32).min(rf - 1);
                    let sy = (((p.y - y0) / (y1 - y0) * rf as f64) as u32).min(rf - 1);
                    return i as u64 * (rf as u64 * rf as u64) + (sy * rf + sx) as u64;
                }
            }
            sub_domain // elsewhere
        };
        for p in second {
            agg.accumulate(&oracle.randomize(locate(p), rng));
        }
        let items: Vec<u64> = (0..sub_domain).collect();
        let sub_counts = agg.estimate_items(&items);
        let scale2 = points.len() as f64 / second.len().max(1) as f64;

        let refined = dense
            .iter()
            .enumerate()
            .map(|(i, &(cx, cy, _))| {
                let base = i * (rf as usize * rf as usize);
                let cells: Vec<f64> = sub_counts[base..base + (rf as usize * rf as usize)]
                    .iter()
                    .map(|&c| c * scale2)
                    .collect();
                (cx, cy, cells)
            })
            .collect();

        Ok(AdaptiveEstimate {
            coarse,
            refined,
            refine_factor: rf,
        })
    }
}

impl AdaptiveEstimate {
    /// The densest refined sub-cell overall, as
    /// `(coarse cx, coarse cy, sub cx, sub cy, estimate)`.
    pub fn peak(&self) -> Option<(u32, u32, u32, u32, f64)> {
        let rf = self.refine_factor;
        self.refined
            .iter()
            .flat_map(|(cx, cy, cells)| {
                cells
                    .iter()
                    .enumerate()
                    .map(move |(i, &c)| (*cx, *cy, i as u32 % rf, i as u32 / rf, c))
            })
            .max_by(|a, b| a.4.total_cmp(&b.4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    /// Gaussian blob around (mx, my), clipped to the unit square.
    fn blob(n: usize, mx: f64, my: f64, sd: f64, rng: &mut StdRng) -> Vec<Point> {
        (0..n)
            .map(|_| {
                // Box-Muller.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let r = (-2.0 * u1.ln()).sqrt();
                let (dx, dy) = (
                    r * (2.0 * std::f64::consts::PI * u2).cos(),
                    r * (2.0 * std::f64::consts::PI * u2).sin(),
                );
                Point {
                    x: (mx + sd * dx).clamp(0.0, 1.0),
                    y: (my + sd * dy).clamp(0.0, 1.0),
                }
            })
            .collect()
    }

    #[test]
    fn cell_of_respects_bounds() {
        let grid = UniformGrid::new(4, eps(1.0)).unwrap();
        assert_eq!(grid.cell_of(Point { x: 0.0, y: 0.0 }), 0);
        assert_eq!(grid.cell_of(Point { x: 1.0, y: 1.0 }), 15);
        assert_eq!(grid.cell_of(Point { x: 0.3, y: 0.0 }), 1);
        assert_eq!(grid.cell_of(Point { x: 0.0, y: 0.3 }), 4);
    }

    #[test]
    fn range_query_tracks_truth() {
        let grid = UniformGrid::new(8, eps(2.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // Uniform points.
        let points: Vec<Point> = (0..40_000)
            .map(|_| Point {
                x: rng.gen_range(0.0..1.0),
                y: rng.gen_range(0.0..1.0),
            })
            .collect();
        let est = grid.collect(&points, &mut rng);
        let rect = Rect::new(0.25, 0.25, 0.75, 0.75).unwrap();
        let got = est.range_query(rect);
        let truth = points
            .iter()
            .filter(|p| p.x >= 0.25 && p.x <= 0.75 && p.y >= 0.25 && p.y <= 0.75)
            .count() as f64;
        assert!((got - truth).abs() < 2500.0, "got={got} truth={truth}");
    }

    #[test]
    fn hot_spot_found() {
        let grid = UniformGrid::new(8, eps(2.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut points = blob(20_000, 0.8, 0.2, 0.05, &mut rng);
        points.extend((0..10_000).map(|_| Point {
            x: rng.gen_range(0.0..1.0),
            y: rng.gen_range(0.0..1.0),
        }));
        let est = grid.collect(&points, &mut rng);
        let hot = est.hot_spots(3);
        // The blob sits in cell (~6, ~1).
        assert!(
            hot.iter()
                .any(|&(cx, cy, _)| (5..=7).contains(&cx) && cy <= 2),
            "hot spots {hot:?}"
        );
    }

    #[test]
    fn adaptive_refines_peak() {
        let ag = AdaptiveGrid::new(4, 4, 2, eps(3.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut points = blob(30_000, 0.62, 0.62, 0.02, &mut rng);
        points.extend((0..10_000).map(|_| Point {
            x: rng.gen_range(0.0..1.0),
            y: rng.gen_range(0.0..1.0),
        }));
        let est = ag.collect(&points, &mut rng).unwrap();
        let peak = est.peak().expect("refined cells exist");
        // Blob at (0.62, 0.62): coarse cell (2, 2); sub-cell around
        // ((0.62-0.5)/0.25*4)=1.92 -> 1 or 2.
        assert_eq!((peak.0, peak.1), (2, 2), "peak={peak:?}");
        assert!(
            (1..=2).contains(&peak.2) && (1..=2).contains(&peak.3),
            "peak={peak:?}"
        );
    }

    #[test]
    fn rect_validation() {
        assert!(Rect::new(0.5, 0.0, 0.4, 1.0).is_err());
        assert!(Rect::new(0.0, 0.0, 1.1, 1.0).is_err());
        assert!(Point::new(1.2, 0.0).is_err());
    }

    #[test]
    fn grid_validation() {
        assert!(UniformGrid::new(0, eps(1.0)).is_err());
        assert!(UniformGrid::new(300, eps(1.0)).is_err());
        assert!(AdaptiveGrid::new(4, 1, 2, eps(1.0)).is_err());
        assert!(AdaptiveGrid::new(4, 4, 0, eps(1.0)).is_err());
    }
}
