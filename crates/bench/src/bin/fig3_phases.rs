//! **Figure 3** (architecture figure): a phase breakdown of one robust
//! aggregation run — thread-local pre-aggregation vs. partition-wise
//! aggregation, hash-table resets, partitions, and spill traffic — the
//! quantities the paper's architecture diagram describes.

use rexa_bench::*;
use rexa_tpch::Grouping;

fn main() {
    let args = HarnessArgs::parse();
    let grouping = Grouping::by_id(4).unwrap();
    println!(
        "Figure 3: phase breakdown of the robust aggregation | grouping 4 thin, sf=32 eq, mem={} MiB",
        args.memory_limit() >> 20
    );
    let ds = dataset(32.0, &args);
    let env = build_env(&ds, &args);
    match run_grouping(SystemKind::Robust, &env, grouping, false, &args) {
        Outcome::Done {
            secs,
            groups,
            stats: Some(s),
        } => {
            let header: Vec<String> = ["metric", "value"].map(String::from).to_vec();
            let rows = vec![
                vec!["input rows".into(), s.rows_in.to_string()],
                vec!["groups out".into(), groups.to_string()],
                vec!["total seconds".into(), format!("{secs:.3}")],
                vec![
                    "phase 1 (thread-local pre-aggregation)".into(),
                    format!("{:.3}s", s.phase1.as_secs_f64()),
                ],
                vec![
                    "phase 2 (partition-wise aggregation)".into(),
                    format!("{:.3}s", s.phase2.as_secs_f64()),
                ],
                vec!["radix partitions".into(), s.partitions.to_string()],
                vec!["hash-table resets".into(), s.resets.to_string()],
                vec![
                    "temp bytes written".into(),
                    format!("{:.1} MiB", s.buffer.temp_bytes_written as f64 / 1048576.0),
                ],
                vec![
                    "temp bytes read".into(),
                    format!("{:.1} MiB", s.buffer.temp_bytes_read as f64 / 1048576.0),
                ],
                vec![
                    "evictions (persistent/temporary)".into(),
                    format!(
                        "{}/{}",
                        s.buffer.evictions_persistent, s.buffer.evictions_temporary
                    ),
                ],
                vec!["buffer reuses".into(), s.buffer.buffer_reuses.to_string()],
            ];
            print_table(&header, &rows);
        }
        other => println!("run did not complete: {other:?}"),
    }
}
