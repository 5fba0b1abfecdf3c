//! Minimum spanning trees over point sets and explicit edge lists.

use crate::unionfind::UnionFind;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One edge of a minimum spanning tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MstEdge {
    /// First endpoint (point index).
    pub a: usize,
    /// Second endpoint (point index).
    pub b: usize,
    /// Edge length.
    pub weight: f64,
}

/// A minimum spanning tree over points `0..len`.
///
/// Stores the `len - 1` tree edges and an adjacency index for
/// neighborhood walks (used by Zahn's inconsistency test).
#[derive(Debug, Clone)]
pub struct Mst {
    len: usize,
    edges: Vec<MstEdge>,
    /// For each node, indices into `edges` of its incident tree edges.
    incidence: Vec<Vec<usize>>,
}

impl Mst {
    fn from_edges(len: usize, edges: Vec<MstEdge>) -> Self {
        let mut incidence = vec![Vec::new(); len];
        for (i, e) in edges.iter().enumerate() {
            incidence[e.a].push(i);
            incidence[e.b].push(i);
        }
        Mst {
            len,
            edges,
            incidence,
        }
    }

    /// Number of points spanned.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree spans no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tree edges (`len - 1` of them for a non-empty tree).
    pub fn edges(&self) -> &[MstEdge] {
        &self.edges
    }

    /// Indices (into [`Mst::edges`]) of the edges incident to `node`.
    pub fn incident_edges(&self, node: usize) -> &[usize] {
        &self.incidence[node]
    }

    /// Total weight of the tree.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }
}

/// Builds the MST of the *complete* graph over `n` points using Prim's
/// algorithm in `O(n²)` time — the right shape for a dense metric,
/// where Kruskal would have to materialize `n(n-1)/2` edges.
///
/// `dist(a, b)` must be symmetric and non-negative.
///
/// # Panics
///
/// Panics if a queried distance is negative or NaN.
///
/// # Example
///
/// ```
/// use son_clustering::mst_complete;
///
/// let xs: &[f64] = &[0.0, 1.0, 10.0];
/// let mst = mst_complete(3, |a, b| (xs[a] - xs[b]).abs());
/// assert_eq!(mst.edges().len(), 2);
/// assert_eq!(mst.total_weight(), 10.0); // 0-1 (1.0) + 1-2 (9.0)
/// ```
pub fn mst_complete<D>(n: usize, dist: D) -> Mst
where
    D: Fn(usize, usize) -> f64,
{
    if n == 0 {
        return Mst::from_edges(0, Vec::new());
    }
    let mut in_tree = vec![false; n];
    let mut best_dist = vec![f64::INFINITY; n];
    let mut best_link = vec![0usize; n];
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    in_tree[0] = true;
    for v in 1..n {
        let d = dist(0, v);
        assert!(d >= 0.0, "distances must be non-negative, got {d}");
        best_dist[v] = d;
        best_link[v] = 0;
    }
    for _ in 1..n {
        let (next, _) = best_dist
            .iter()
            .enumerate()
            .filter(|(v, _)| !in_tree[*v])
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("some node remains outside the tree");
        in_tree[next] = true;
        edges.push(MstEdge {
            a: best_link[next],
            b: next,
            weight: best_dist[next],
        });
        for v in 0..n {
            if !in_tree[v] {
                let d = dist(next, v);
                assert!(d >= 0.0, "distances must be non-negative, got {d}");
                if d < best_dist[v] {
                    best_dist[v] = d;
                    best_link[v] = next;
                }
            }
        }
    }
    Mst::from_edges(n, edges)
}

/// The distance between two points, by the very expression
/// `son_coords::Coordinates::distance` uses, so weights agree bit for bit.
fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(a, b)| (a - b).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// A ring bound is shrunk by this factor, so that no rounding — of a
/// point's cell (about `MAX_SIDE · 2⁻⁵²` of a cell width) or of the
/// subtraction inside a distance — puts a point nearer than its bound.
const SLACK: f64 = 1.0 - 1e-9;
/// Most cells along one axis; keeps [`SLACK`] wide enough.
const MAX_SIDE: usize = 1 << 16;
/// "No candidate" in [`Cursor::target`].
const NONE: u32 = u32::MAX;

/// Uniform grid of square cells over the first `min(dims, 2)`
/// coordinates, holding the points still outside the tree.
struct Grid {
    cols: usize,
    rows: usize,
    /// Cell width; positive even when every point coincides.
    cell: f64,
    /// Cell `c` owns `items[start[c]..start[c + 1]]`, of which the
    /// first `live[c]` are outside the tree.
    start: Vec<u32>,
    live: Vec<u32>,
    items: Vec<u32>,
    /// `(column, row)` of each point's cell.
    home: Vec<(u32, u32)>,
}

impl Grid {
    fn new<P: AsRef<[f64]>>(points: &[P]) -> Self {
        let n = points.len();
        let dims = points[0].as_ref().len();
        assert!(dims > 0, "points need at least one dimension");
        // A one-dimensional set lies on the second axis' origin.
        let on = |p: &[f64], axis: usize| p.get(axis).copied().unwrap_or(0.0);
        let mut lo = [f64::INFINITY; 2];
        let mut hi = [f64::NEG_INFINITY; 2];
        for p in points {
            let p = p.as_ref();
            assert_eq!(p.len(), dims, "cannot take distance across dimensions");
            for &x in p {
                assert!(
                    x.is_finite(),
                    "distances must be non-negative, got a coordinate {x}"
                );
            }
            for axis in 0..2 {
                lo[axis] = lo[axis].min(on(p, axis));
                hi[axis] = hi[axis].max(on(p, axis));
            }
        }
        let extent = [hi[0] - lo[0], hi[1] - lo[1]];
        // About two points a cell, but never more than `side` cells
        // along an axis however thin the set is.
        let cells = (n / 2).max(1);
        let side = cells.min(MAX_SIDE);
        let mut cell = (extent[0] * extent[1] / cells as f64)
            .sqrt()
            .max(extent[0] / side as f64)
            .max(extent[1] / side as f64);
        if cell.is_nan() || cell <= 0.0 {
            cell = 1.0;
        }
        let along = |axis: usize| ((extent[axis] / cell) as usize).min(side - 1) + 1;
        let (cols, rows) = (along(0), along(1));
        let home: Vec<(u32, u32)> = points
            .iter()
            .map(|p| {
                let at = |axis: usize, len: usize| {
                    let x = on(p.as_ref(), axis) - lo[axis];
                    ((x / cell) as usize).min(len - 1) as u32
                };
                (at(0, cols), at(1, rows))
            })
            .collect();
        let mut start = vec![0u32; cols * rows + 1];
        for &(cx, cy) in &home {
            start[cy as usize * cols + cx as usize + 1] += 1;
        }
        for c in 0..cols * rows {
            start[c + 1] += start[c];
        }
        let mut live = vec![0u32; cols * rows];
        let mut items = vec![0u32; n];
        for (v, &(cx, cy)) in home.iter().enumerate() {
            let c = cy as usize * cols + cx as usize;
            items[(start[c] + live[c]) as usize] = v as u32;
            live[c] += 1;
        }
        Grid {
            cols,
            rows,
            cell,
            start,
            live,
            items,
            home,
        }
    }

    /// Drops `v` from its cell: it joined the tree.
    fn remove(&mut self, v: usize) {
        let (cx, cy) = self.home[v];
        let c = cy as usize * self.cols + cx as usize;
        let first = self.start[c] as usize;
        let cell = &mut self.items[first..first + self.live[c] as usize];
        let at = cell
            .iter()
            .position(|&p| p as usize == v)
            .expect("a point outside the tree is in its cell");
        cell.swap(at, cell.len() - 1);
        self.live[c] -= 1;
    }

    /// What every point beyond the first `rings` rings around a cell is
    /// at least away from any point inside that cell — rounded the way
    /// a distance is, so that it also underflows and overflows like one.
    fn bound(&self, rings: u32) -> f64 {
        (rings.saturating_sub(1) as f64 * self.cell * SLACK)
            .powi(2)
            .sqrt()
    }
}

/// What a tree node remembers of its search for the nearest point
/// outside the tree: how many rings of cells around its own it has
/// scanned, and the best `(distance, index)` among their points.
#[derive(Clone, Copy)]
struct Cursor {
    rings: u32,
    best: f64,
    target: u32,
}

/// Lazy Prim over a [`Grid`]: one heap entry per tree node.
struct Search<'a, P> {
    points: &'a [P],
    grid: Grid,
    in_tree: Vec<bool>,
    cursors: Vec<Cursor>,
    /// Tree nodes in join order; a heap entry names its node by
    /// position here.
    joined: Vec<u32>,
    /// `(key bits, target, join order)`, smallest first. Keys are
    /// non-negative and never NaN, so their bit patterns order like the
    /// values and plain tuples serve.
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
}

impl<P: AsRef<[f64]>> Search<'_, P> {
    /// Folds the points outside the tree in the cells `xs × ys`
    /// (clipped to the grid) into `cursor`, first minimum by
    /// `(distance, index)`.
    fn scan(&self, u: usize, xs: (i64, i64), ys: (i64, i64), cursor: &mut Cursor) {
        let grid = &self.grid;
        let from = self.points[u].as_ref();
        let (x0, x1) = (xs.0.max(0) as usize, xs.1.min(grid.cols as i64 - 1));
        let (y0, y1) = (ys.0.max(0) as usize, ys.1.min(grid.rows as i64 - 1));
        if x1 < x0 as i64 || y1 < y0 as i64 {
            return;
        }
        for y in y0..=y1 as usize {
            for c in y * grid.cols + x0..=y * grid.cols + x1 as usize {
                let first = grid.start[c] as usize;
                for &v in &grid.items[first..first + grid.live[c] as usize] {
                    let d = euclidean(from, self.points[v as usize].as_ref());
                    if d < cursor.best || (d == cursor.best && v < cursor.target) {
                        cursor.best = d;
                        cursor.target = v;
                    }
                }
            }
        }
    }

    /// Moves `u`'s search on until it can name a heap key above
    /// `floor` — keys at or below it would be popped next anyway.
    /// `(distance bits, target)` when the candidate is certain to be
    /// `u`'s nearest outside the tree, `(bound bits, 0)` when all that
    /// is known is how far the unscanned points are, `None` when no
    /// point is left outside the tree.
    fn advance(&mut self, u: usize, floor: f64) -> Option<(u64, u32)> {
        let grid = &self.grid;
        let (cx, cy) = (grid.home[u].0 as i64, grid.home[u].1 as i64);
        let reach = cx
            .max(grid.cols as i64 - 1 - cx)
            .max(cy)
            .max(grid.rows as i64 - 1 - cy);
        let mut cursor = self.cursors[u];
        if cursor.target != NONE && self.in_tree[cursor.target as usize] {
            // The candidate joined the tree through another node. Points
            // only ever leave cells, so the rings already scanned still
            // hold the runner-up.
            let r = cursor.rings as i64 - 1;
            (cursor.best, cursor.target) = (f64::INFINITY, NONE);
            self.scan(u, (cx - r, cx + r), (cy - r, cy + r), &mut cursor);
        }
        let key = loop {
            let r = cursor.rings as i64;
            if r > reach {
                break (cursor.target != NONE).then_some((cursor.best, cursor.target));
            }
            let bound = grid.bound(cursor.rings);
            // Strictly: a tie with an unscanned point of lower index
            // must be seen before it is broken.
            if cursor.best < bound {
                break Some((cursor.best, cursor.target));
            }
            if bound > floor {
                break Some((bound, 0));
            }
            self.scan(u, (cx - r, cx + r), (cy - r, cy - r), &mut cursor);
            if r > 0 {
                self.scan(u, (cx - r, cx + r), (cy + r, cy + r), &mut cursor);
                self.scan(u, (cx - r, cx - r), (cy - r + 1, cy + r - 1), &mut cursor);
                self.scan(u, (cx + r, cx + r), (cy - r + 1, cy + r - 1), &mut cursor);
            }
            cursor.rings += 1;
        };
        self.cursors[u] = cursor;
        key.map(|(d, target)| (d.to_bits(), target))
    }

    /// Puts the `order`-th tree node (back) into the heap.
    fn queue(&mut self, order: u32, floor: f64) {
        let u = self.joined[order as usize] as usize;
        if let Some((key, target)) = self.advance(u, floor) {
            self.heap.push(Reverse((key, target, order)));
        }
    }

    /// Moves `v` from the grid into the tree.
    fn join(&mut self, v: usize, floor: f64) {
        self.in_tree[v] = true;
        self.grid.remove(v);
        self.joined.push(v as u32);
        self.queue(self.joined.len() as u32 - 1, floor);
    }
}

/// Builds the same tree as [`mst_complete`] over Euclidean points —
/// same edges, order, orientation and weight bits — without looking at
/// all `n²` pairs.
///
/// A uniform grid over the first `min(dims, 2)` coordinates indexes
/// the points outside the tree (the projected distance bounds the full
/// one from below, so any `dims` stays exact). Prim grows the tree from
/// point 0; every tree node searches outward ring by ring for its
/// nearest outside point and waits in a heap under
/// `(distance or ring bound, target, join order)`, which is exactly the
/// order in which [`mst_complete`]'s first-minimum scans pick edges.
/// The work is near-linear on spread-out points; `k` coincident points
/// cost `O(k³)`.
///
/// # Panics
///
/// Panics if two or more points are given and any has no coordinates, a
/// non-finite coordinate, or a different dimension from the first.
///
/// # Example
///
/// ```
/// use son_clustering::{mst_complete, mst_euclidean};
///
/// let pts: [[f64; 2]; 3] = [[0.0, 0.0], [3.0, 4.0], [3.0, 5.0]];
/// let dist = |a: usize, b: usize| {
///     ((pts[a][0] - pts[b][0]).powi(2) + (pts[a][1] - pts[b][1]).powi(2)).sqrt()
/// };
/// assert_eq!(mst_euclidean(&pts).edges(), mst_complete(3, dist).edges());
/// ```
pub fn mst_euclidean<P: AsRef<[f64]>>(points: &[P]) -> Mst {
    let n = points.len();
    if n < 2 {
        return Mst::from_edges(n, Vec::new());
    }
    assert!(n < NONE as usize, "point indices must fit in 32 bits");
    let mut search = Search {
        points,
        grid: Grid::new(points),
        in_tree: vec![false; n],
        cursors: vec![
            Cursor {
                rings: 0,
                best: f64::INFINITY,
                target: NONE,
            };
            n
        ],
        joined: Vec::with_capacity(n),
        heap: BinaryHeap::new(),
    };
    let mut edges = Vec::with_capacity(n - 1);
    search.join(0, 0.0);
    while edges.len() < n - 1 {
        let Reverse((key, target, order)) = search
            .heap
            .pop()
            .expect("a tree node still searches while points are outside the tree");
        let weight = f64::from_bits(key);
        // Target 0 marks a ring bound: point 0 is the root, never a target.
        if target != 0 && !search.in_tree[target as usize] {
            edges.push(MstEdge {
                a: search.joined[order as usize] as usize,
                b: target as usize,
                weight,
            });
            search.join(target as usize, weight);
        }
        search.queue(order, weight);
    }
    Mst::from_edges(n, edges)
}

/// Builds an MST (minimum spanning forest if disconnected) from an
/// explicit edge list using Kruskal's algorithm.
///
/// # Panics
///
/// Panics if an edge references a node `>= n` or has a negative/NaN
/// weight.
pub fn mst_kruskal(n: usize, edges: &[MstEdge]) -> Mst {
    let mut sorted: Vec<&MstEdge> = edges.iter().collect();
    for e in &sorted {
        assert!(e.a < n && e.b < n, "edge endpoint out of range");
        assert!(e.weight >= 0.0, "edge weights must be non-negative");
    }
    sorted.sort_by(|x, y| {
        x.weight
            .partial_cmp(&y.weight)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut uf = UnionFind::new(n);
    let mut tree = Vec::new();
    for e in sorted {
        if uf.union(e.a, e.b) {
            tree.push(*e);
            if tree.len() + 1 == n {
                break;
            }
        }
    }
    Mst::from_edges(n, tree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_on_a_square() {
        // Unit square; MST weight = 3 sides = 3.
        let pts: [[f64; 2]; 4] = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]];
        let dist = |a: usize, b: usize| {
            ((pts[a][0] - pts[b][0]).powi(2) + (pts[a][1] - pts[b][1]).powi(2)).sqrt()
        };
        let mst = mst_complete(4, dist);
        assert_eq!(mst.edges().len(), 3);
        assert!((mst.total_weight() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn kruskal_matches_prim_on_complete_graphs() {
        let xs: [f64; 6] = [3.0, -1.0, 7.5, 0.25, 12.0, 5.5];
        let n = xs.len();
        let dist = |a: usize, b: usize| (xs[a] - xs[b]).abs();
        let prim = mst_complete(n, dist);
        let mut all_edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                all_edges.push(MstEdge {
                    a,
                    b,
                    weight: dist(a, b),
                });
            }
        }
        let kruskal = mst_kruskal(n, &all_edges);
        assert!((prim.total_weight() - kruskal.total_weight()).abs() < 1e-12);
    }

    #[test]
    fn kruskal_builds_forest_when_disconnected() {
        let edges = [
            MstEdge {
                a: 0,
                b: 1,
                weight: 1.0,
            },
            MstEdge {
                a: 2,
                b: 3,
                weight: 2.0,
            },
        ];
        let mst = mst_kruskal(4, &edges);
        assert_eq!(mst.edges().len(), 2);
    }

    #[test]
    fn incidence_index_is_consistent() {
        let xs: &[f64] = &[0.0, 1.0, 2.0, 3.0];
        let mst = mst_complete(4, |a, b| (xs[a] - xs[b]).abs());
        for node in 0..4 {
            for &ei in mst.incident_edges(node) {
                let e = mst.edges()[ei];
                assert!(e.a == node || e.b == node);
            }
        }
        // A path graph: endpoints have degree 1, middles degree 2.
        let degrees: Vec<usize> = (0..4).map(|v| mst.incident_edges(v).len()).collect();
        let mut sorted = degrees.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 1, 2, 2]);
    }

    #[test]
    fn empty_and_singleton() {
        let mst = mst_complete(0, |_, _| 0.0);
        assert!(mst.is_empty());
        let mst = mst_complete(1, |_, _| 0.0);
        assert_eq!(mst.len(), 1);
        assert!(mst.edges().is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_distance_panics() {
        let _ = mst_complete(2, |_, _| -1.0);
    }

    /// `mst_euclidean` against `mst_complete` over the distance written
    /// out as `Coordinates::distance` has it: same edges in the same
    /// order and orientation, same weight bits.
    pub(super) fn assert_same_tree(points: &[Vec<f64>]) {
        let dist = |a: usize, b: usize| {
            points[a]
                .iter()
                .zip(&points[b])
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let key = |mst: &Mst| -> Vec<(usize, usize, u64)> {
            mst.edges()
                .iter()
                .map(|e| (e.a, e.b, e.weight.to_bits()))
                .collect()
        };
        let fast = mst_euclidean(points);
        let slow = mst_complete(points.len(), dist);
        assert_eq!(fast.len(), slow.len());
        assert_eq!(key(&fast), key(&slow));
    }

    #[test]
    fn euclidean_matches_prim_exactly_on_quantized_points() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        // Quantized coordinates force plenty of distance ties, the
        // case where tie-breaking order could diverge.
        let pts: Vec<Vec<f64>> = (0..157)
            .map(|_| {
                vec![
                    (rng.gen::<f64>() * 10.0).round(),
                    (rng.gen::<f64>() * 10.0).round(),
                ]
            })
            .collect();
        assert_same_tree(&pts);
    }

    #[test]
    fn euclidean_handles_tiny_inputs() {
        let none: [[f64; 2]; 0] = [];
        assert!(mst_euclidean(&none).is_empty());
        let one = mst_euclidean(&[[f64::NAN]]);
        assert_eq!(one.len(), 1);
        assert!(one.edges().is_empty());
        let two = mst_euclidean(&[[4.0, 0.0], [1.0, 4.0]]);
        assert_eq!(
            two.edges(),
            [MstEdge {
                a: 0,
                b: 1,
                weight: 5.0
            }]
        );
    }

    #[test]
    fn euclidean_on_a_line() {
        let xs = [4.0, 0.0, 9.0, 4.0, -3.5, 100.0, 9.0];
        assert_same_tree(&xs.map(|x| vec![x]));
        // The same line tilted into five dimensions: no extent along
        // the two gridded axes beyond what the tilt gives them.
        assert_same_tree(&xs.map(|x| vec![1.0, 2.0, x, -x, 0.5 * x]));
    }

    #[test]
    fn euclidean_on_identical_points() {
        let mst = mst_euclidean(&[[2.5, -1.0, 7.0]; 40]);
        // First-minimum Prim hangs every duplicate off the root.
        for (i, e) in mst.edges().iter().enumerate() {
            assert_eq!((e.a, e.b, e.weight.to_bits()), (0, i + 1, 0));
        }
        assert_same_tree(&vec![vec![2.5, -1.0]; 40]);
    }

    #[test]
    #[should_panic(expected = "distances must be non-negative")]
    fn euclidean_non_finite_coordinate_panics() {
        let _ = mst_euclidean(&[[0.0, 0.0], [1.0, f64::NAN], [2.0, 0.0]]);
    }

    #[test]
    fn euclidean_survives_underflowing_squares() {
        // Differences whose squares underflow to zero make every
        // distance 0.0 although the points fall in different cells; the
        // ring bound has to vanish with them.
        let pts: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![((i * 7) % 30) as f64 * 1e-170, (i % 5) as f64 * 1e-170])
            .collect();
        assert_same_tree(&pts);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Exhaustively enumerates spanning trees of small complete graphs
    /// to confirm Prim's result is minimal.
    fn brute_force_mst_weight(points: &[(f64, f64)]) -> f64 {
        let n = points.len();
        let dist = |a: usize, b: usize| {
            ((points[a].0 - points[b].0).powi(2) + (points[a].1 - points[b].1).powi(2)).sqrt()
        };
        // Enumerate all edge subsets of size n-1 (n is small).
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b, dist(a, b)));
            }
        }
        let m = edges.len();
        let mut best = f64::INFINITY;
        // Bitmask over edges; keep subsets with exactly n-1 edges that connect.
        for mask in 0u32..(1 << m) {
            if mask.count_ones() as usize != n - 1 {
                continue;
            }
            let mut uf = UnionFind::new(n);
            let mut w = 0.0;
            for (i, e) in edges.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    uf.union(e.0, e.1);
                    w += e.2;
                }
            }
            if uf.set_count() == 1 && w < best {
                best = w;
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prim_is_minimal_on_small_instances(
            points in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..6)
        ) {
            let n = points.len();
            let dist = |a: usize, b: usize| {
                ((points[a].0 - points[b].0).powi(2) + (points[a].1 - points[b].1).powi(2)).sqrt()
            };
            let mst = mst_complete(n, dist);
            let brute = brute_force_mst_weight(&points);
            prop_assert!((mst.total_weight() - brute).abs() < 1e-9,
                "prim {} vs brute {}", mst.total_weight(), brute);
        }

        #[test]
        fn mst_spans_all_points(
            points in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..40)
        ) {
            let n = points.len();
            let dist = |a: usize, b: usize| {
                ((points[a].0 - points[b].0).powi(2) + (points[a].1 - points[b].1).powi(2)).sqrt()
            };
            let mst = mst_complete(n, dist);
            prop_assert_eq!(mst.edges().len(), n - 1);
            let mut uf = UnionFind::new(n);
            for e in mst.edges() {
                uf.union(e.a, e.b);
            }
            prop_assert_eq!(uf.set_count(), 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// n in 0..=300, dims 1..=5, over shapes that force the
        /// tie-break path: a lattice, a line, one repeated point, a
        /// small pool of repeated points, tight far-apart blobs.
        #[test]
        fn euclidean_equals_complete(
            shape in 0usize..6, n in 0usize..301, dims in 1usize..6, seed in any::<u64>()
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut uniform = |scale: f64| -> Vec<f64> {
                (0..dims).map(|_| rng.gen::<f64>() * scale).collect()
            };
            let pool: Vec<Vec<f64>> = (0..7).map(|_| uniform(50.0)).collect();
            let points: Vec<Vec<f64>> = (0..n)
                .map(|i| match shape {
                    0 => uniform(100.0),
                    1 => uniform(6.0).iter().map(|x| x.round()).collect(),
                    2 => pool[0].iter().map(|x| x * (i % 17) as f64).collect(),
                    3 => pool[0].clone(),
                    4 => pool[i % pool.len()].clone(),
                    _ => {
                        let jitter = uniform(1e-3);
                        let centre = &pool[i % 3];
                        centre.iter().zip(&jitter).map(|(c, j)| c * 1e3 + j).collect()
                    }
                })
                .collect();
            super::tests::assert_same_tree(&points);
        }
    }
}
