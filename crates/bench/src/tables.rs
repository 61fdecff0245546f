//! Shared driver for Tables II (thin) and III (wide): groupings 1–13 at the
//! given paper scale factors across the four systems, with the per-SF
//! geometric mean normalized to the robust engine. Cells are median seconds,
//! 'A' (aborted, out of memory), or 'T' (timed out) — exactly the cell
//! vocabulary of the paper's tables.

use crate::*;
use rexa_tpch::GROUPINGS;

/// Run the grouping-table experiment and print it.
pub fn run_groupings_table(wide: bool, paper_sfs: &[f64]) {
    let args = HarnessArgs::parse();
    let paper_sfs = if args.smoke {
        &paper_sfs[..paper_sfs.len().min(2)]
    } else {
        paper_sfs
    };
    let variant = if wide { "wide" } else { "thin" };
    println!(
        "Table {}: {variant} groupings | scale={} mem={} MiB threads={} timeout={}s reps={}",
        if wide { "III" } else { "II" },
        args.scale,
        args.memory_limit() >> 20,
        args.threads,
        args.timeout.as_secs(),
        args.reps,
    );

    let mut header = vec!["grouping".to_string()];
    for sf in paper_sfs {
        for kind in SystemKind::ALL {
            header.push(format!("sf{}:{}", sf, kind.label()));
        }
    }
    let mut rows: Vec<Vec<String>> = Vec::new();
    // outcomes[sf][system][grouping]
    let mut outcomes: Vec<Vec<Vec<Outcome>>> = Vec::new();

    for &sf in paper_sfs {
        let ds = dataset(sf, &args);
        let mut per_system = Vec::new();
        for kind in SystemKind::ALL {
            let env = build_env(&ds, &args);
            let mut per_grouping = Vec::new();
            for g in GROUPINGS {
                let out = run_grouping(kind, &env, g, wide, &args);
                eprintln!(
                    "  sf={sf} {} grouping {} ({}): {}",
                    kind.label(),
                    g.id,
                    g.describe(),
                    out.cell()
                );
                per_grouping.push(out);
            }
            per_system.push(per_grouping);
        }
        outcomes.push(per_system);
    }

    for (gi, g) in GROUPINGS.iter().enumerate() {
        let mut row = vec![format!("{} ({})", g.id, g.describe())];
        for (si, _) in paper_sfs.iter().enumerate() {
            for (ki, _) in SystemKind::ALL.iter().enumerate() {
                row.push(outcomes[si][ki][gi].cell());
            }
        }
        rows.push(row);
    }
    // Geometric mean normalized to the robust engine, per SF.
    let mut gm_row = vec!["geomean/rexa".to_string()];
    for (si, _) in paper_sfs.iter().enumerate() {
        for (ki, _) in SystemKind::ALL.iter().enumerate() {
            let cell = match geo_mean_normalized(&outcomes[si][0], &outcomes[si][ki]) {
                Some(g) => format!("{g:.2}"),
                None => "-".to_string(),
            };
            gm_row.push(cell);
        }
    }
    rows.push(gm_row);
    print_table(&header, &rows);

    if args.csv {
        println!("\ncsv:variant,paper_sf,system,grouping,cell");
        for (si, sf) in paper_sfs.iter().enumerate() {
            for (ki, kind) in SystemKind::ALL.iter().enumerate() {
                for (gi, g) in GROUPINGS.iter().enumerate() {
                    println!(
                        "csv:{variant},{sf},{},{},{}",
                        kind.label(),
                        g.id,
                        outcomes[si][ki][gi].cell()
                    );
                }
            }
        }
    }
}

/// Shared driver for Figures 5 (thin) and 6 (wide): runtime vs. paper SF for
/// groupings 3, 6, and 13, every system, log-log series. With
/// `--threads-list T1,T2,…` the robust engine additionally runs at each
/// listed thread count (columns `gN:rexa@tT`), making worker threads a
/// second axis of the figure; `--smoke` truncates the SF list for CI.
pub fn run_scaling_figure(wide: bool, paper_sfs: &[f64]) {
    let args = HarnessArgs::parse();
    let paper_sfs = if args.smoke {
        &paper_sfs[..paper_sfs.len().min(2)]
    } else {
        paper_sfs
    };
    let variant = if wide { "wide" } else { "thin" };
    println!(
        "Figure {}: execution time vs. scale factor, {variant} groupings 3/6/13 | scale={} mem={} MiB",
        if wide { 6 } else { 5 },
        args.scale,
        args.memory_limit() >> 20,
    );
    let groupings = [3usize, 6, 13].map(|id| rexa_tpch::Grouping::by_id(id).unwrap());

    let mut header = vec!["paper_sf".to_string()];
    for g in &groupings {
        for kind in SystemKind::ALL {
            header.push(format!("g{}:{}", g.id, kind.label()));
        }
        for &t in &args.threads_list {
            header.push(format!("g{}:rexa@t{t}", g.id));
        }
    }
    let mut rows = Vec::new();
    println!("csv:variant,paper_sf,grouping,system,cell");
    for &sf in paper_sfs {
        let ds = dataset(sf, &args);
        let mut row = vec![format!("{sf}")];
        for g in &groupings {
            for kind in SystemKind::ALL {
                let env = build_env(&ds, &args);
                let out = run_grouping(kind, &env, *g, wide, &args);
                println!(
                    "csv:{variant},{sf},{},{},{}",
                    g.id,
                    kind.label(),
                    out.cell()
                );
                row.push(out.cell());
            }
            // The threads axis: the robust engine again at each extra
            // worker count, same dataset and memory limit.
            for &t in &args.threads_list {
                let mut targs = args.clone();
                targs.threads = t;
                let env = build_env(&ds, &targs);
                let out = run_grouping(SystemKind::Robust, &env, *g, wide, &targs);
                println!("csv:{variant},{sf},{},rexa@t{t},{}", g.id, out.cell());
                row.push(out.cell());
            }
        }
        rows.push(row);
    }
    print_table(&header, &rows);
}
