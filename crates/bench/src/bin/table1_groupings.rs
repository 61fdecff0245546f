//! **Table I**: the thirteen grouping definitions, with unique-group counts
//! measured on generated data (the `N` the paper precomputes for its
//! `OFFSET N-1` benchmark query).

use rexa_bench::*;
use rexa_tpch::GROUPINGS;

fn main() {
    let args = HarnessArgs::parse();
    let paper_sfs = [1.0, 8.0];
    println!(
        "Table I: groupings of lineitem (reconstructed; see DESIGN.md) | scale={}",
        args.scale
    );
    let mut header = vec!["#".to_string(), "GROUP BY".to_string()];
    for sf in paper_sfs {
        header.push(format!("groups @ sf{sf}-eq"));
    }
    let mut rows: Vec<Vec<String>> = GROUPINGS
        .iter()
        .map(|g| vec![g.id.to_string(), g.describe()])
        .collect();
    for sf in paper_sfs {
        let ds = dataset(sf, &args);
        let env = build_env(&ds, &args);
        for (i, g) in GROUPINGS.iter().enumerate() {
            let cell = match run_grouping(SystemKind::Robust, &env, *g, false, &args) {
                Outcome::Done { groups, .. } => groups.to_string(),
                other => other.cell(),
            };
            rows[i].push(cell);
        }
    }
    print_table(&header, &rows);
}
