//! Answer checking: the plain-Dijkstra oracle and answer comparison.

use std::collections::BTreeMap;

use road_core::search::{oracle_knn, oracle_range, Aggregate};
use road_core::{AssociationDirectory, RangeQuery, RoadFramework, SearchHit};
use road_network::Weight;

use crate::inputs::Op;

/// The oracle's answer to `op`: `search::oracle_knn` / `oracle_range`, and
/// for an aggregate query one unbounded oracle expansion per group member,
/// combined per object and ranked by (aggregate, object id).
pub fn oracle(fw: &RoadFramework, ad: &AssociationDirectory, op: &Op) -> Vec<SearchHit> {
    match op {
        Op::Knn(q) => oracle_knn(fw, ad, q),
        Op::Range(q) => oracle_range(fw, ad, q),
        Op::Agg(q) => {
            // object id -> (members reaching it, aggregate so far)
            let mut acc: BTreeMap<u64, (usize, Weight)> = BTreeMap::new();
            for &node in &q.nodes {
                let all = RangeQuery::new(node, Weight::INFINITY).with_filter(q.filter.clone());
                for hit in oracle_range(fw, ad, &all) {
                    let entry = acc.entry(hit.object.0).or_insert((0, Weight::ZERO));
                    entry.0 += 1;
                    entry.1 = match q.aggregate {
                        Aggregate::Sum => entry.1 + hit.distance,
                        Aggregate::Max => entry.1.max(hit.distance),
                    };
                }
            }
            let mut hits: Vec<SearchHit> = acc
                .into_iter()
                .filter(|(_, (reached, _))| *reached == q.nodes.len())
                .map(|(id, (_, d))| SearchHit { object: road_core::ObjectId(id), distance: d })
                .collect();
            hits.sort_by(|a, b| a.distance.cmp(&b.distance).then(a.object.cmp(&b.object)));
            hits.truncate(q.k);
            hits
        }
    }
}

/// Does an engine's answer agree with the oracle's? Distances must agree
/// to rounding ([`Weight::approx_eq`]) position by position, and the same
/// objects must be returned; objects whose distances agree to rounding may
/// appear in either order, since a shortcut sum and a plain Dijkstra sum
/// can round a tie apart.
pub fn agrees(got: &[SearchHit], want: &[SearchHit]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    if !got.iter().zip(want).all(|(a, b)| a.distance.approx_eq(b.distance)) {
        return false;
    }
    let mut start = 0;
    while start < want.len() {
        let mut end = start + 1;
        while end < want.len() && want[end].distance.approx_eq(want[start].distance) {
            end += 1;
        }
        let mut a: Vec<u64> = got[start..end].iter().map(|h| h.object.0).collect();
        let mut b: Vec<u64> = want[start..end].iter().map(|h| h.object.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        if a != b {
            return false;
        }
        start = end;
    }
    true
}

/// Are two answers identical, object for object and bit for bit? Repeats
/// of a query on one engine, and the paged engine against the in-memory
/// one, must be.
pub fn identical(got: &[SearchHit], want: &[SearchHit]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(a, b)| {
            a.object == b.object && a.distance.get().to_bits() == b.distance.get().to_bits()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use road_core::ObjectId;

    fn hit(id: u64, d: f64) -> SearchHit {
        SearchHit { object: ObjectId(id), distance: Weight::new(d) }
    }

    #[test]
    fn rounding_ties_may_swap_but_answers_may_not_differ() {
        let want = [hit(1, 1.0), hit(2, 2.0), hit(3, 2.0 + 1e-12)];
        assert!(agrees(&[hit(1, 1.0), hit(3, 2.0), hit(2, 2.0)], &want));
        assert!(!agrees(&[hit(1, 1.0), hit(2, 2.0), hit(4, 2.0)], &want));
        assert!(!agrees(&[hit(1, 1.0), hit(2, 2.0)], &want));
        assert!(!agrees(&[hit(1, 1.5), hit(2, 2.0), hit(3, 2.0)], &want));
        assert!(identical(&want, &want));
        assert!(!identical(&[hit(1, 1.0), hit(3, 2.0), hit(2, 2.0)], &want));
    }
}
