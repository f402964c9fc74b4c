//! **§7.1 extension** — joins followed by aggregations, the open
//! direction the paper suggests for multi-round analysis. Compares the
//! naive two-round plan (full join shuffled to the aggregators) with
//! partial-aggregation push-down (the §6.3 mechanism applied to SQL).

use crate::table::{fmt, Table};
use mr_core::problems::join::{
    naive_count_dag, pushed_count_dag, tagged_inputs, Database, Query, SharesSchema,
};
use mr_sim::EngineConfig;

/// Renders the comparison for growing join output sizes.
pub fn report() -> String {
    let mut t = Table::new(&[
        "instance",
        "join rows",
        "naive total comm",
        "pushed total comm",
        "saving",
        "equal results",
    ]);
    let cases: Vec<(&str, Query, Database, Vec<u64>)> = vec![
        (
            "chain N=2, sparse",
            Query::chain(2),
            Database::random(&Query::chain(2), 24, 250, 3),
            vec![1, 4, 1],
        ),
        (
            "chain N=2, complete n=10",
            Query::chain(2),
            Database::complete(&Query::chain(2), 10),
            vec![1, 4, 1],
        ),
        (
            "chain N=3, dense",
            Query::chain(3),
            Database::random(&Query::chain(3), 12, 130, 9),
            vec![1, 2, 2, 1],
        ),
    ];
    for (name, query, db, shares) in cases {
        let schema = SharesSchema::new(query, shares);
        let cfg = EngineConfig::parallel(4);
        let inputs = tagged_inputs(&db);
        let (naive_counts, naive) = naive_count_dag(schema.clone()).run(&inputs, &cfg).unwrap();
        let (pushed_counts, pushed) = pushed_count_dag(schema, 1).run(&inputs, &cfg).unwrap();
        let join_rows = naive.rounds[1].inputs;
        t.row(vec![
            name.into(),
            join_rows.to_string(),
            naive.total_communication().to_string(),
            pushed.total_communication().to_string(),
            fmt(naive.total_communication() as f64 / pushed.total_communication() as f64),
            (naive_counts == pushed_counts).to_string(),
        ]);
    }
    format!(
        "§7.1 extension: SELECT A0, COUNT(*) FROM (join) GROUP BY A0\n\
         Pushing partial counts into the join reducers is the §6.3 trick\n\
         applied to SQL: it never loses and wins by the output blow-up.\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn results_agree_and_push_down_wins_somewhere() {
        let r = super::report();
        assert!(!r.contains("false"), "{r}");
        // The complete-instance row must show a saving factor > 1.5.
        let line = r
            .lines()
            .find(|l| l.contains("complete"))
            .expect("complete row present");
        let cols: Vec<&str> = line.split_whitespace().collect();
        let saving: f64 = cols[cols.len() - 2].parse().unwrap();
        assert!(saving > 1.5, "saving {saving} too small: {line}");
    }
}
