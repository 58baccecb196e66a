//! Answer oracle: the exact reranked answer, computed from the simulated
//! source's hidden table — something the service itself can never see.
//!
//! The order is the benchmark's own: ascending linear score under the
//! source reranker's normalizer (weights summed in attribute-id order,
//! so scores reproduce bit for bit), or the 1D attribute in the asked
//! direction; ties by ascending tuple id. Neither the engines nor the
//! reconstruction's serving order are called.

use qr2_core::Normalizer;
use qr2_webdb::{AttrId, Schema, Table};

use crate::gen::{Question, Ranking};

/// The ids of the first `depth` tuples of the exact answer to `q`.
pub fn expected_ids(table: &Table, norm: &Normalizer, q: &Question, depth: usize) -> Vec<u32> {
    let schema = table.schema();
    let filters: Vec<(AttrId, f64, f64)> = q
        .filters
        .iter()
        .map(|f| (attr(schema, f.attr), f.min, f.max))
        .collect();
    let rows = (0..table.len()).filter(|&r| {
        filters.iter().all(|&(a, lo, hi)| {
            let v = table.num(r, a);
            lo <= v && v <= hi
        })
    });
    let mut keyed: Vec<(f64, u32)> = match &q.ranking {
        Ranking::OneDim { attr: name, asc } => {
            let a = attr(schema, name);
            let sign = if *asc { 1.0 } else { -1.0 };
            rows.map(|r| (sign * table.num(r, a), r as u32)).collect()
        }
        Ranking::Md(weights) => {
            let mut w: Vec<(AttrId, f64)> =
                weights.iter().map(|(n, w)| (attr(schema, n), *w)).collect();
            w.sort_by_key(|(a, _)| *a);
            rows.map(|r| {
                let score: f64 = w
                    .iter()
                    .map(|(a, w)| w * norm.normalize(*a, table.num(r, *a)))
                    .sum();
                (score, r as u32)
            })
            .collect()
        }
    };
    keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().take(depth).map(|(_, id)| id).collect()
}

fn attr(schema: &Schema, name: &str) -> AttrId {
    schema
        .id_of(name)
        .unwrap_or_else(|| panic!("generated question names unknown attribute '{name}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Filter;
    use qr2_webdb::Value;

    fn table() -> Table {
        let schema = Schema::builder()
            .numeric("x", 0.0, 10.0)
            .numeric("y", 0.0, 10.0)
            .build();
        let mut tb = qr2_webdb::TableBuilder::new(schema);
        for (x, y) in [(5.0, 1.0), (1.0, 9.0), (5.0, 2.0), (9.0, 0.0), (1.0, 1.0)] {
            tb.push_values(vec![Value::Num(x), Value::Num(y)]).unwrap();
        }
        tb.build()
    }

    #[test]
    fn one_dim_orders_by_value_then_id() {
        let t = table();
        let norm = Normalizer::from_domains(t.schema());
        let q = |asc| Question {
            source: "t",
            filters: vec![],
            ranking: Ranking::OneDim { attr: "x", asc },
        };
        assert_eq!(expected_ids(&t, &norm, &q(true), 10), vec![1, 4, 0, 2, 3]);
        assert_eq!(expected_ids(&t, &norm, &q(false), 3), vec![3, 0, 2]);
    }

    #[test]
    fn md_scores_filter_and_truncate() {
        let t = table();
        let norm = Normalizer::from_domains(t.schema());
        let q = Question {
            source: "t",
            filters: vec![Filter {
                attr: "y",
                min: 0.5,
                max: 9.0,
            }],
            ranking: Ranking::Md(vec![("y", 1.0), ("x", 1.0)]),
        };
        // Scores (x + y) / 10: row0 0.6, row1 1.0, row2 0.7, row4 0.2;
        // row3 fails the filter.
        assert_eq!(expected_ids(&t, &norm, &q, 10), vec![4, 0, 2, 1]);
        assert_eq!(expected_ids(&t, &norm, &q, 2), vec![4, 0]);
    }
}
