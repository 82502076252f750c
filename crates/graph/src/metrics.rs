//! Structural measurements on social graphs.

use crate::graph::Graph;
use tsn_simnet::{NodeId, SimRng};

/// Degree of every node, indexed by node.
pub fn degree_sequence(g: &Graph) -> Vec<usize> {
    g.nodes().map(|v| g.degree(v)).collect()
}

/// Local clustering coefficient of one node: fraction of neighbour pairs
/// that are themselves connected. Zero for degree < 2.
pub fn local_clustering(g: &Graph, node: NodeId) -> f64 {
    let neigh = g.neighbors(node);
    let k = neigh.len();
    if k < 2 {
        return 0.0;
    }
    let mut closed = 0usize;
    for i in 0..k {
        for j in (i + 1)..k {
            if g.has_edge(neigh[i], neigh[j]) {
                closed += 1;
            }
        }
    }
    closed as f64 / (k * (k - 1) / 2) as f64
}

/// Average of local clustering coefficients (Watts–Strogatz definition).
pub fn average_clustering(g: &Graph) -> f64 {
    if g.node_count() == 0 {
        return 0.0;
    }
    g.nodes().map(|v| local_clustering(g, v)).sum::<f64>() / g.node_count() as f64
}

/// Average shortest-path length over reachable pairs, estimated by BFS
/// from `samples` random sources (exact when `samples >= n`).
///
/// Returns `None` when the graph has no reachable pair.
pub fn average_path_length(g: &Graph, samples: usize, rng: &mut SimRng) -> Option<f64> {
    let n = g.node_count();
    if n < 2 {
        return None;
    }
    let sources: Vec<NodeId> = if samples >= n {
        g.nodes().collect()
    } else {
        let mut all: Vec<NodeId> = g.nodes().collect();
        rng.shuffle(&mut all);
        all.truncate(samples.max(1));
        all
    };
    let mut total = 0u64;
    let mut pairs = 0u64;
    for s in sources {
        for (i, d) in g.bfs_distances(s).into_iter().enumerate() {
            if let Some(d) = d {
                if i != s.index() {
                    total += u64::from(d);
                    pairs += 1;
                }
            }
        }
    }
    if pairs == 0 {
        None
    } else {
        Some(total as f64 / pairs as f64)
    }
}

/// Pearson correlation of two equally long samples; `None` when undefined
/// (length < 2 or zero variance).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        None
    } else {
        Some(cov / (vx.sqrt() * vy.sqrt()))
    }
}

/// Spearman rank correlation; `None` when undefined, including when
/// either input holds a NaN (a NaN has no rank). Ties receive average
/// ranks (midrank method); `-0.0` and `0.0` tie.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    if xs.iter().chain(ys).any(|v| v.is_nan()) {
        return None;
    }
    let rx = midranks(xs);
    let ry = midranks(ys);
    pearson(&rx, &ry)
}

/// Midranks of NaN-free `xs` (with a NaN the comparator below would not
/// be a total order, and the sort may panic).
fn midranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| {
        xs[a]
            .partial_cmp(&xs[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn degree_metrics_on_star() {
        // Star K_{1,4}: hub degree 4, leaves degree 1.
        let mut g = Graph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(NodeId(0), NodeId::from_index(i));
        }
        assert_eq!(degree_sequence(&g), vec![4, 1, 1, 1, 1]);
    }

    #[test]
    fn clustering_of_triangle_and_star() {
        let g = generators::complete(3);
        assert_eq!(average_clustering(&g), 1.0);
        let mut star = Graph::with_nodes(4);
        for i in 1..4 {
            star.add_edge(NodeId(0), NodeId::from_index(i));
        }
        assert_eq!(average_clustering(&star), 0.0);
    }

    #[test]
    fn path_length_of_ring() {
        let g = generators::ring(6).unwrap();
        let mut rng = SimRng::seed_from_u64(0);
        // Ring C6: distances 1,1,2,2,3 from each node → mean 1.8.
        let apl = average_path_length(&g, 100, &mut rng).unwrap();
        assert!((apl - 1.8).abs() < 1e-12);
    }

    #[test]
    fn path_length_none_when_isolated() {
        let g = Graph::with_nodes(3);
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(average_path_length(&g, 10, &mut rng), None);
    }

    #[test]
    fn small_world_properties() {
        // The defining claim of Watts–Strogatz: at moderate beta the graph
        // keeps lattice-like clustering but gains random-like path lengths.
        let mut rng = SimRng::seed_from_u64(1);
        let n = 400;
        let lattice = generators::watts_strogatz(n, 8, 0.0, &mut rng).unwrap();
        let sw = generators::watts_strogatz(n, 8, 0.1, &mut rng).unwrap();
        let cc_lattice = average_clustering(&lattice);
        let cc_sw = average_clustering(&sw);
        let apl_lattice = average_path_length(&lattice, 50, &mut rng).unwrap();
        let apl_sw = average_path_length(&sw, 50, &mut rng).unwrap();
        assert!(cc_sw > 0.5 * cc_lattice, "clustering survives rewiring");
        assert!(apl_sw < 0.5 * apl_lattice, "paths shorten dramatically");
    }

    #[test]
    fn pearson_basics() {
        let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
        let r = pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]).unwrap();
        assert!((r + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), None, "zero variance");
        assert_eq!(pearson(&[1.0], &[2.0]), None, "too short");
        assert_eq!(pearson(&[1.0, 2.0], &[1.0]), None, "length mismatch");
    }

    #[test]
    fn spearman_is_rank_based() {
        // Monotone but non-linear relation: Spearman 1, Pearson < 1.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson(&xs, &ys).unwrap() < 1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 2.0, 2.0, 3.0];
        let ys = [1.0, 2.0, 2.0, 3.0];
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_of_nan_input_is_undefined_not_a_panic() {
        // 41 elements: long enough that the standard sort checks its
        // comparator, which the NaN would break.
        let xs: Vec<f64> = (0..41).map(|i| (i * 7 % 41) as f64).collect();
        let mut with_nan = xs.clone();
        with_nan[20] = f64::NAN;
        assert_eq!(spearman(&with_nan, &xs), None);
        assert_eq!(spearman(&xs, &with_nan), None);
        // NaN-free inputs are unaffected, signed zeros still tie.
        assert!((spearman(&xs, &xs).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(
            spearman(&[-0.0, 0.0, 1.0], &[5.0, 5.0, 6.0]),
            spearman(&[0.0, 0.0, 1.0], &[5.0, 5.0, 6.0])
        );
    }
}
