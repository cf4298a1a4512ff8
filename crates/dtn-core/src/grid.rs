//! Uniform spatial hash grid for neighbour queries.
//!
//! Contact detection needs "which node pairs are within radio range?"
//! every movement tick. A naive scan is O(n^2) per tick; the grid buckets
//! node positions into square cells of side >= the query radius, so a
//! pair within range lies in one cell or in two adjacent ones —
//! amortised O(1) per node for the densities in the paper's scenarios.
//!
//! ## Layout
//!
//! The cells sit in a padded row-major array: row `cy` starts at
//! `cy * stride + 1` with `stride = cols + 1`, so every row has one empty
//! slot before it and one empty row follows the last. A rebuild computes
//! each node's cell once, counts, prefix-sums the counts into `starts`
//! (CSR) and scatters the coordinates into `xs`/`ys` and the ids into
//! `ids`, in id order within each cell. The pair query walks the nodes
//! in cell order and tests each against two contiguous runs of entries:
//! the rest of its own cell plus the next cell in its row, and the three
//! cells below (`cell + stride - 1 ..= cell + stride + 1`). The padding
//! makes a neighbour off the grid's edge an empty slot, so the walk
//! tests no bounds.

use crate::geometry::{Point2, Rect};
use crate::ids::NodeId;

/// A spatial hash grid, rebuilt from scratch for each set of positions.
///
/// Usage pattern: call [`rebuild`](SpatialGrid::rebuild) with all node
/// positions, then [`pairs_within_rows`](SpatialGrid::pairs_within_rows)
/// over all of `0..row_count()` or over bands of it.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    bounds: Rect,
    cell: f64,
    cols: usize,
    rows: usize,
    /// Slots per padded row: `cols + 1`.
    stride: usize,
    /// CSR over the padded slots: `starts[c]..starts[c + 1]` indexes the
    /// entries of slot `c` (one more entry than slots, always `n`).
    starts: Vec<u32>,
    /// Entry coordinates and ids, grouped by slot.
    xs: Vec<f64>,
    ys: Vec<f64>,
    ids: Vec<NodeId>,
    /// Each entry's slot.
    slots: Vec<u32>,
    /// Each node's slot during a rebuild.
    node_slots: Vec<u32>,
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
        // The rows, the empty row after them, and that row's successor's
        // padding slot, where the last cell's lower-right neighbour sits.
        let stride = cols + 1;
        let slots = (rows + 1) * stride + 1;
        assert!(
            slots <= u32::MAX as usize,
            "grid of {slots} cells is too large"
        );
        SpatialGrid {
            bounds,
            cell: cell_size,
            cols,
            rows,
            stride,
            starts: vec![0; slots + 1],
            xs: Vec::new(),
            ys: Vec::new(),
            ids: Vec::new(),
            slots: Vec::new(),
            node_slots: Vec::new(),
        }
    }

    /// The padded slot of the cell holding `p`; positions outside the
    /// bounds fall into the edge cells (the float-to-int cast saturates
    /// below at 0, `min` caps it above).
    #[inline]
    fn slot_of(&self, p: Point2) -> u32 {
        let cx = (((p.x - self.bounds.min.x) / self.cell) as usize).min(self.cols - 1);
        let cy = (((p.y - self.bounds.min.y) / self.cell) as usize).min(self.rows - 1);
        (cy * self.stride + cx + 1) as u32
    }

    /// Rebuilds the grid from `positions`, a slice indexed by node id.
    /// Positions outside the bounds are clamped into the edge cells.
    pub fn rebuild(&mut self, positions: &[Point2]) {
        let n = positions.len();
        assert!(n < u32::MAX as usize, "too many nodes for the grid");
        self.starts.fill(0);
        self.node_slots.clear();
        for &p in positions {
            let slot = self.slot_of(p);
            self.node_slots.push(slot);
            self.starts[slot as usize] += 1;
        }
        // Inclusive prefix sums: each slot's end, which the scatter below
        // counts down to the slot's start.
        let mut acc = 0u32;
        for s in &mut self.starts {
            acc += *s;
            *s = acc;
        }
        // Scatter in descending id order, filling each slot back to
        // front: the entries of a slot end up in ascending id order.
        self.xs.resize(n, 0.0);
        self.ys.resize(n, 0.0);
        self.ids.resize(n, NodeId(0));
        self.slots.resize(n, 0);
        for (i, (&p, &slot)) in positions.iter().zip(&self.node_slots).enumerate().rev() {
            self.starts[slot as usize] -= 1;
            let at = self.starts[slot as usize] as usize;
            self.xs[at] = p.x;
            self.ys[at] = p.y;
            self.ids[at] = NodeId(i as u32);
            self.slots[at] = slot;
        }
    }

    /// Every unordered pair of distinct nodes within `radius` of each
    /// other whose first cell lies in the grid rows `rows`, appended to
    /// `out` as `(lo, hi)` with `lo < hi`. A pair is owned by the row of
    /// its lexicographically first cell, so `0..row_count()` reports
    /// every pair exactly once and disjoint row bands report disjoint
    /// pair sets.
    ///
    /// This is the parallel decomposition point: concatenating the
    /// outputs of any partition of `0..row_count()` into ascending
    /// contiguous bands reproduces the one-band output byte for byte,
    /// because the scan visits rows in ascending order.
    ///
    /// # Panics
    /// Panics if `radius` exceeds the cell size.
    pub fn pairs_within_rows(
        &self,
        radius: f64,
        rows: std::ops::Range<usize>,
        out: &mut Vec<(NodeId, NodeId)>,
    ) {
        assert!(
            radius <= self.cell,
            "query radius {radius} exceeds the cell size {}",
            self.cell
        );
        let r2 = radius * radius;
        let (first, last) = (rows.start.min(self.rows), rows.end.min(self.rows));
        let begin = self.starts[first * self.stride] as usize;
        let end = self.starts[last * self.stride] as usize;
        let (xs, ys, ids) = (&self.xs[..], &self.ys[..], &self.ids[..]);
        for a in begin..end {
            let (xa, ya, ida) = (xs[a], ys[a], ids[a]);
            let mut test = |run: std::ops::Range<usize>| {
                for b in run {
                    let (dx, dy) = (xa - xs[b], ya - ys[b]);
                    if dx * dx + dy * dy <= r2 {
                        let idb = ids[b];
                        out.push(if ida < idb { (ida, idb) } else { (idb, ida) });
                    }
                }
            };
            // The rest of this cell and the next one in the row, then the
            // three cells below.
            let slot = self.slots[a] as usize;
            test(a + 1..self.starts[slot + 2] as usize);
            test(
                self.starts[slot + self.stride - 1] as usize
                    ..self.starts[slot + self.stride + 2] as usize,
            );
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
        g.pairs_within_rows(100.0, 0..g.row_count(), &mut out);
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
        g.pairs_within_rows(20.0, 0..g.row_count(), &mut out);
        assert_eq!(out, vec![(NodeId(0), NodeId(1))]);
    }

    #[test]
    #[should_panic(expected = "exceeds the cell size")]
    fn radius_larger_than_cell_is_rejected() {
        let mut g = SpatialGrid::new(Rect::from_size(1000.0, 1000.0), 50.0);
        g.rebuild(&[Point2::new(100.0, 100.0), Point2::new(280.0, 100.0)]);
        g.pairs_within_rows(200.0, 0..g.row_count(), &mut Vec::new());
    }

    #[test]
    fn pairs_across_every_edge_and_corner() {
        // One node per cell of a 3 x 3 grid, each near a corner shared
        // with its neighbours, plus the four corners of the playground:
        // the padding slots must neither hide a pair nor invent one.
        let bounds = Rect::from_size(300.0, 300.0);
        let mut g = SpatialGrid::new(bounds, 100.0);
        let mut pos = Vec::new();
        for cy in 0..3 {
            for cx in 0..3 {
                for (ox, oy) in [(1.0, 1.0), (99.0, 1.0), (1.0, 99.0), (99.0, 99.0)] {
                    pos.push(Point2::new(100.0 * cx as f64 + ox, 100.0 * cy as f64 + oy));
                }
            }
        }
        pos.extend([
            Point2::new(0.0, 0.0),
            Point2::new(300.0, 0.0),
            Point2::new(0.0, 300.0),
            Point2::new(300.0, 300.0),
        ]);
        g.rebuild(&pos);
        for radius in [2.0, 2.9, 98.0, 100.0] {
            let mut out = Vec::new();
            g.pairs_within_rows(radius, 0..g.row_count(), &mut out);
            out.sort();
            assert_eq!(out, brute_force_pairs(&pos, radius), "radius={radius}");
        }
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
        g.pairs_within_rows(50.0, 0..g.row_count(), &mut out);
        assert_eq!(out.len(), 1);
        // Rebuild with far-apart points: the old pair must be gone.
        g.rebuild(&[Point2::new(10.0, 10.0), Point2::new(450.0, 450.0)]);
        out.clear();
        g.pairs_within_rows(50.0, 0..g.row_count(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_grid() {
        let mut g = SpatialGrid::new(Rect::from_size(10.0, 10.0), 5.0);
        g.rebuild(&[]);
        let mut out = Vec::new();
        g.pairs_within_rows(5.0, 0..g.row_count(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn row_bands_concatenate_to_serial_order() {
        // Any contiguous ascending row partition must reproduce the
        // one-band output exactly — order included. This is
        // the invariant the parallel contact phase rests on.
        let bounds = Rect::from_size(2000.0, 1500.0);
        let mut g = SpatialGrid::new(bounds, 120.0);
        let positions: Vec<Point2> = (0..300)
            .map(|i| Point2::new(((i * 131) % 2000) as f64, ((i * 241) % 1500) as f64))
            .collect();
        g.rebuild(&positions);
        let mut serial = Vec::new();
        g.pairs_within_rows(120.0, 0..g.row_count(), &mut serial);
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
            cell_over_radius in 1.0f64..3.0,
        ) {
            let positions: Vec<Point2> =
                pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let bounds = Rect::from_size(2000.0, 1500.0);
            let mut g = SpatialGrid::new(bounds, radius * cell_over_radius);
            g.rebuild(&positions);
            let mut got = Vec::new();
            g.pairs_within_rows(radius, 0..g.row_count(), &mut got);
            got.sort();
            got.dedup();
            prop_assert_eq!(got, brute_force_pairs(&positions, radius));
        }
    }
}
