//! **Figure 1**: the performance cliff. Runtime vs. input size for grouping 4
//! (`GROUP BY l_orderkey`, thin) as intermediates cross the memory limit:
//!
//! * the **robust** engine degrades gracefully (gentle slope past the limit),
//! * the **switch** baseline jumps discontinuously at its crossover (wasted
//!   in-memory attempt + slower external algorithm),
//! * the **in-memory** baseline aborts ('A') past the limit,
//! * the **external sort** baseline is uniformly slower everywhere.

use rexa_bench::*;
use rexa_tpch::Grouping;

fn main() {
    let args = HarnessArgs::parse();
    println!(
        "Figure 1: the performance cliff | grouping 4 thin, mem={} MiB, scale={}",
        args.memory_limit() >> 20,
        args.scale
    );
    // A fine-grained SF sweep crossing the memory limit.
    let paper_sfs = [8.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0, 128.0, 192.0, 256.0];
    let grouping = Grouping::by_id(4).unwrap();

    let mut header = vec!["paper_sf".to_string(), "rows".to_string()];
    for kind in SystemKind::ALL {
        header.push(kind.label().to_string());
    }
    header.push("rexa_spilled_mib".to_string());
    let mut rows = Vec::new();
    println!("csv:paper_sf,rows,system,cell");
    for sf in paper_sfs {
        let ds = dataset(sf, &args);
        let mut row = vec![format!("{sf}"), format!("{}", ds.coll.rows())];
        let mut spilled = 0.0f64;
        for kind in SystemKind::ALL {
            let env = build_env(&ds, &args);
            let out = run_grouping(kind, &env, grouping, false, &args);
            println!(
                "csv:{sf},{},{},{}",
                ds.coll.rows(),
                kind.label(),
                out.cell()
            );
            if let Outcome::Done { stats: Some(s), .. } = &out {
                spilled = s.buffer.temp_bytes_written as f64 / (1 << 20) as f64;
            }
            row.push(out.cell());
        }
        row.push(format!("{spilled:.1}"));
        rows.push(row);
    }
    print_table(&header, &rows);
    println!(
        "\nExpected shape: rexa stays near-linear across the limit; switch jumps at its\n\
         crossover; inmem turns to 'A'; extsort is uniformly slower."
    );
}
