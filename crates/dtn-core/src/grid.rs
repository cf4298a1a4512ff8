//! Uniform spatial hash grid for neighbour queries.
//!
//! Contact detection needs "which node pairs are within radio range?"
//! every movement tick. A naive scan is O(n^2) per tick; the grid buckets
//! node positions into square cells of side >= the query radius, so each
//! query inspects only the 3x3 cell neighbourhood — amortised O(1) per
//! node for the densities in the paper's scenarios.

use crate::geometry::{Point2, Rect};
use crate::ids::NodeId;

/// A spatial hash grid, rebuilt from scratch for each set of positions.
///
/// Usage pattern: call [`rebuild`](SpatialGrid::rebuild) with all node
/// positions, then [`neighbors_within`](SpatialGrid::neighbors_within)
/// or [`pairs_within`](SpatialGrid::pairs_within).
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    bounds: Rect,
    cell: f64,
    cols: usize,
    rows: usize,
    /// CSR layout: `starts[c]..starts[c+1]` indexes into `entries`.
    starts: Vec<u32>,
    entries: Vec<(NodeId, Point2)>,
    /// Per-cell counts during a rebuild, then each cell's insertion
    /// cursor.
    scratch_counts: Vec<u32>,
}

impl SpatialGrid {
    /// Creates a grid over `bounds` with cells of at least `cell_size`
    /// metres (typically the radio range).
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive.
    pub fn new(bounds: Rect, cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        let cols = (bounds.width() / cell_size).ceil().max(1.0) as usize;
        let rows = (bounds.height() / cell_size).ceil().max(1.0) as usize;
        SpatialGrid {
            bounds,
            cell: cell_size,
            cols,
            rows,
            starts: vec![0; cols * rows + 1],
            entries: Vec::new(),
            scratch_counts: vec![0; cols * rows],
        }
    }

    #[inline]
    fn cell_of(&self, p: Point2) -> (usize, usize) {
        let q = self.bounds.clamp(p);
        let cx = (((q.x - self.bounds.min.x) / self.cell) as usize).min(self.cols - 1);
        let cy = (((q.y - self.bounds.min.y) / self.cell) as usize).min(self.rows - 1);
        (cx, cy)
    }

    #[inline]
    fn cell_index(&self, cx: usize, cy: usize) -> usize {
        cy * self.cols + cx
    }

    /// Rebuilds the grid from `positions`, a slice indexed by node id.
    /// Positions outside the bounds are clamped into the edge cells.
    pub fn rebuild(&mut self, positions: &[Point2]) {
        let ncells = self.cols * self.rows;
        self.scratch_counts.clear();
        self.scratch_counts.resize(ncells, 0);
        for &p in positions {
            let (cx, cy) = self.cell_of(p);
            let ci = self.cell_index(cx, cy);
            self.scratch_counts[ci] += 1;
        }
        // Prefix sums into starts; each count becomes its cell's start,
        // the insertion cursor for the scatter below.
        self.starts.clear();
        self.starts.reserve(ncells + 1);
        let mut acc = 0u32;
        self.starts.push(0);
        for c in &mut self.scratch_counts {
            let count = *c;
            *c = acc;
            acc += count;
            self.starts.push(acc);
        }
        // Scatter entries (stable within a cell by node id order because we
        // iterate positions in id order and fill cells front-to-back).
        self.entries.clear();
        self.entries
            .resize(positions.len(), (NodeId(0), Point2::default()));
        for (i, &p) in positions.iter().enumerate() {
            let (cx, cy) = self.cell_of(p);
            let ci = self.cell_index(cx, cy);
            let slot = self.scratch_counts[ci] as usize;
            self.scratch_counts[ci] += 1;
            self.entries[slot] = (NodeId(i as u32), p);
        }
    }

    /// All nodes within `radius` of `p` (excluding `exclude`, typically
    /// the querying node itself), appended to `out` in ascending id order
    /// per cell.
    pub fn neighbors_within(
        &self,
        p: Point2,
        radius: f64,
        exclude: Option<NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        let r2 = radius * radius;
        let (cx, cy) = self.cell_of(p);
        let reach = (radius / self.cell).ceil() as isize;
        for dy in -reach..=reach {
            let yy = cy as isize + dy;
            if yy < 0 || yy >= self.rows as isize {
                continue;
            }
            for dx in -reach..=reach {
                let xx = cx as isize + dx;
                if xx < 0 || xx >= self.cols as isize {
                    continue;
                }
                let ci = self.cell_index(xx as usize, yy as usize);
                let range = self.starts[ci] as usize..self.starts[ci + 1] as usize;
                for &(id, q) in &self.entries[range] {
                    if Some(id) == exclude {
                        continue;
                    }
                    if p.distance_sq(q) <= r2 {
                        out.push(id);
                    }
                }
            }
        }
    }

    /// Every unordered pair of distinct nodes within `radius` of each
    /// other, appended to `out` as `(lo, hi)` with `lo < hi`. Each pair is
    /// reported exactly once.
    pub fn pairs_within(&self, radius: f64, out: &mut Vec<(NodeId, NodeId)>) {
        self.pairs_within_rows(radius, 0..self.rows, out);
    }

    /// [`pairs_within`](Self::pairs_within) restricted to the grid rows
    /// in `rows` (a pair is owned by the row of its lexicographically
    /// first cell, so disjoint row bands report disjoint pair sets).
    ///
    /// This is the parallel decomposition point: concatenating the
    /// outputs of any partition of `0..row_count()` into ascending
    /// contiguous bands reproduces the serial `pairs_within` output
    /// byte for byte, because the serial scan already visits rows in
    /// ascending order.
    pub fn pairs_within_rows(
        &self,
        radius: f64,
        rows: std::ops::Range<usize>,
        out: &mut Vec<(NodeId, NodeId)>,
    ) {
        let r2 = radius * radius;
        let reach = (radius / self.cell).ceil() as isize;
        for cy in rows.start..rows.end.min(self.rows) {
            for cx in 0..self.cols {
                let ci = self.cell_index(cx, cy);
                let a_range = self.starts[ci] as usize..self.starts[ci + 1] as usize;
                if a_range.is_empty() {
                    continue;
                }
                for ai in a_range.clone() {
                    let (ida, pa) = self.entries[ai];
                    // Same cell: only later entries, so each in-cell pair
                    // appears once.
                    for bi in (ai + 1)..a_range.end {
                        let (idb, pb) = self.entries[bi];
                        if pa.distance_sq(pb) <= r2 {
                            push_sorted(out, ida, idb);
                        }
                    }
                    // Forward neighbouring cells (strictly greater cell
                    // index) so cross-cell pairs appear once.
                    for dy in 0..=reach {
                        let yy = cy as isize + dy;
                        if yy >= self.rows as isize {
                            continue;
                        }
                        let dx_start = if dy == 0 { 1 } else { -reach };
                        for dx in dx_start..=reach {
                            let xx = cx as isize + dx;
                            if xx < 0 || xx >= self.cols as isize {
                                continue;
                            }
                            let cj = self.cell_index(xx as usize, yy as usize);
                            let b_range = self.starts[cj] as usize..self.starts[cj + 1] as usize;
                            for &(idb, pb) in &self.entries[b_range] {
                                if pa.distance_sq(pb) <= r2 {
                                    push_sorted(out, ida, idb);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Number of cells (diagnostic).
    pub fn cell_count(&self) -> usize {
        self.cols * self.rows
    }

    /// Number of grid rows — the unit of work for
    /// [`pairs_within_rows`](Self::pairs_within_rows) band partitioning.
    pub fn row_count(&self) -> usize {
        self.rows
    }
}

#[inline]
fn push_sorted(out: &mut Vec<(NodeId, NodeId)>, a: NodeId, b: NodeId) {
    if a < b {
        out.push((a, b));
    } else {
        out.push((b, a));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn brute_force_pairs(positions: &[Point2], radius: f64) -> Vec<(NodeId, NodeId)> {
        let mut v = Vec::new();
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                if positions[i].distance(positions[j]) <= radius {
                    v.push((NodeId(i as u32), NodeId(j as u32)));
                }
            }
        }
        v.sort();
        v
    }

    #[test]
    fn finds_neighbors() {
        let bounds = Rect::from_size(1000.0, 1000.0);
        let mut g = SpatialGrid::new(bounds, 100.0);
        let pos = vec![
            Point2::new(10.0, 10.0),
            Point2::new(50.0, 10.0),
            Point2::new(500.0, 500.0),
            Point2::new(95.0, 10.0),
        ];
        g.rebuild(&pos);
        let mut out = Vec::new();
        g.neighbors_within(pos[0], 100.0, Some(NodeId(0)), &mut out);
        out.sort();
        assert_eq!(out, vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn pairs_match_brute_force_on_cluster() {
        let bounds = Rect::from_size(300.0, 300.0);
        let mut g = SpatialGrid::new(bounds, 100.0);
        let pos = vec![
            Point2::new(0.0, 0.0),
            Point2::new(99.0, 0.0),
            Point2::new(198.0, 0.0),
            Point2::new(99.0, 99.0),
            Point2::new(250.0, 250.0),
        ];
        g.rebuild(&pos);
        let mut out = Vec::new();
        g.pairs_within(100.0, &mut out);
        out.sort();
        assert_eq!(out, brute_force_pairs(&pos, 100.0));
    }

    #[test]
    fn positions_outside_bounds_are_clamped_not_lost() {
        let bounds = Rect::from_size(100.0, 100.0);
        let mut g = SpatialGrid::new(bounds, 50.0);
        let pos = vec![Point2::new(-10.0, 50.0), Point2::new(5.0, 50.0)];
        g.rebuild(&pos);
        let mut out = Vec::new();
        g.pairs_within(20.0, &mut out);
        assert_eq!(out, vec![(NodeId(0), NodeId(1))]);
    }

    #[test]
    fn radius_larger_than_cell_is_handled() {
        // radius spans multiple cells; `reach` must extend the search.
        let bounds = Rect::from_size(1000.0, 1000.0);
        let mut g = SpatialGrid::new(bounds, 50.0);
        let pos = vec![Point2::new(100.0, 100.0), Point2::new(280.0, 100.0)];
        g.rebuild(&pos);
        let mut out = Vec::new();
        g.pairs_within(200.0, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn cell_count_matches_geometry() {
        let g = SpatialGrid::new(Rect::from_size(1000.0, 500.0), 100.0);
        assert_eq!(g.cell_count(), 10 * 5);
        // Non-divisible extents round up.
        let g = SpatialGrid::new(Rect::from_size(1050.0, 510.0), 100.0);
        assert_eq!(g.cell_count(), 11 * 6);
        // A cell larger than the area degenerates to a single cell.
        let g = SpatialGrid::new(Rect::from_size(50.0, 50.0), 100.0);
        assert_eq!(g.cell_count(), 1);
    }

    #[test]
    fn rebuild_clears_previous_state() {
        let mut g = SpatialGrid::new(Rect::from_size(500.0, 500.0), 100.0);
        g.rebuild(&[Point2::new(10.0, 10.0), Point2::new(20.0, 10.0)]);
        let mut out = Vec::new();
        g.pairs_within(50.0, &mut out);
        assert_eq!(out.len(), 1);
        // Rebuild with far-apart points: the old pair must be gone.
        g.rebuild(&[Point2::new(10.0, 10.0), Point2::new(450.0, 450.0)]);
        out.clear();
        g.pairs_within(50.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_grid() {
        let mut g = SpatialGrid::new(Rect::from_size(10.0, 10.0), 5.0);
        g.rebuild(&[]);
        let mut out = Vec::new();
        g.pairs_within(5.0, &mut out);
        assert!(out.is_empty());
        let mut ns = Vec::new();
        g.neighbors_within(Point2::new(1.0, 1.0), 5.0, None, &mut ns);
        assert!(ns.is_empty());
    }

    #[test]
    fn row_bands_concatenate_to_serial_order() {
        // Any contiguous ascending row partition must reproduce the
        // serial pairs_within output exactly — order included. This is
        // the invariant the parallel contact phase rests on.
        let bounds = Rect::from_size(2000.0, 1500.0);
        let mut g = SpatialGrid::new(bounds, 100.0);
        let positions: Vec<Point2> = (0..300)
            .map(|i| Point2::new(((i * 131) % 2000) as f64, ((i * 241) % 1500) as f64))
            .collect();
        g.rebuild(&positions);
        let mut serial = Vec::new();
        g.pairs_within(120.0, &mut serial);
        assert!(!serial.is_empty());
        for parts in [1usize, 2, 3, 5, 8, 64] {
            let mut banded = Vec::new();
            for band in crate::pool::bands(g.row_count(), parts) {
                g.pairs_within_rows(120.0, band, &mut banded);
            }
            assert_eq!(banded, serial, "parts={parts}");
        }
        // A band past the end is harmlessly empty.
        let mut none = Vec::new();
        g.pairs_within_rows(120.0, g.row_count()..g.row_count() + 5, &mut none);
        assert!(none.is_empty());
    }

    proptest! {
        /// Grid pair detection agrees exactly with the O(n^2) brute force
        /// for random point sets and radii.
        #[test]
        fn prop_matches_brute_force(
            pts in prop::collection::vec((0.0f64..2000.0, 0.0f64..1500.0), 0..60),
            radius in 10.0f64..400.0,
        ) {
            let positions: Vec<Point2> =
                pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let bounds = Rect::from_size(2000.0, 1500.0);
            let mut g = SpatialGrid::new(bounds, 100.0);
            g.rebuild(&positions);
            let mut got = Vec::new();
            g.pairs_within(radius, &mut got);
            got.sort();
            got.dedup();
            prop_assert_eq!(got, brute_force_pairs(&positions, radius));
        }
    }
}
