//! `compare A.json B.json`: one row per (workload, end-to-end metric).

use crate::json::Json;
use crate::report::END_TO_END;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the metric's bound.
    Regressed,
    /// The runs of one side spread wider than the bound: a difference of
    /// that size cannot be told from noise.
    Unresolved,
}

/// `(relative change of B against A, verdict)`. The change is signed so
/// that positive means worse; its base is A's value.
pub fn verdict(
    a: f64,
    b: f64,
    lower_is_better: bool,
    bound: f64,
    spread: Option<f64>,
) -> (f64, Verdict) {
    let worse_by = if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    };
    let verdict = if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// The entry of workload `name` in a result file.
pub fn workload<'a>(file: &'a Json, name: &str) -> Option<&'a Json> {
    file.get("workloads")?
        .as_array()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// Print the comparison; `Err` when the files cannot be compared, else
/// whether any metric regressed.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    // Absolute times from different machines, file systems or toolchains
    // say nothing about the code. The commit is what is being compared.
    for key in [
        "cores",
        "ram_mib",
        "scratch_fs",
        "o_direct",
        "kernel",
        "rustc",
    ] {
        let (fa, fb) = (
            a.get("fingerprint").and_then(|f| f.get(key)),
            b.get("fingerprint").and_then(|f| f.get(key)),
        );
        if fa != fb {
            return Err(format!(
                "fingerprints differ on {key}: {} vs {}; absolute values are not comparable",
                fa.map_or("missing".into(), Json::compact),
                fb.map_or("missing".into(), Json::compact),
            ));
        }
    }
    for key in ["seconds", "threads", "smoke"] {
        if a.get(key) != b.get(key) {
            return Err(format!("run settings differ on {key}"));
        }
    }

    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>9} {:>6} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread"
    );
    let mut regressed = false;
    for wa in a.get("workloads").map_or(&[][..], Json::as_array) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("");
        let Some(wb) = workload(b, name) else {
            println!("{name:<14} missing from B");
            continue;
        };
        for def in &END_TO_END {
            let metric =
                |w: &Json, field: &str| w.get("end_to_end")?.get(def.name)?.get(field)?.as_f64();
            let (Some(va), Some(vb)) = (metric(wa, "value"), metric(wb, "value")) else {
                continue;
            };
            let spread = match (metric(wa, "spread"), metric(wb, "spread")) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let (worse_by, v) = verdict(va, vb, def.better == "lower", bound, spread);
            regressed |= v == Verdict::Regressed;
            println!(
                "{:<14} {:<24} {:>14.4} {:>14.4} {:>+8.2}% {:>5.0}% {:>8}  {}",
                name,
                def.name,
                va,
                vb,
                worse_by * 100.0,
                bound * 100.0,
                spread.map_or("-".into(), |s| format!("{:.2}%", s * 100.0)),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
    }
    println!("(worse by: share of A's value, positive = B worse)");
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Latency up 5% within a 10% bound.
        let (d, v) = verdict(100.0, 105.0, true, 0.10, Some(0.02));
        assert!((d - 0.05).abs() < 1e-12);
        assert_eq!(v, Verdict::Ok);
        // Latency up 15%.
        assert_eq!(
            verdict(100.0, 115.0, true, 0.10, Some(0.02)).1,
            Verdict::Regressed
        );
        // Throughput down 15% is worse; up 15% is not.
        assert_eq!(
            verdict(100.0, 85.0, false, 0.10, None).1,
            Verdict::Regressed
        );
        assert_eq!(verdict(100.0, 115.0, false, 0.10, None).1, Verdict::Ok);
        // A large improvement is still ok.
        assert_eq!(verdict(100.0, 50.0, true, 0.10, Some(0.01)).1, Verdict::Ok);
        // Spread wider than the bound: neither a regression nor its absence
        // can be claimed.
        assert_eq!(
            verdict(100.0, 115.0, true, 0.10, Some(0.12)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 100.0, true, 0.10, Some(0.12)).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn differing_fingerprints_refuse_comparison() {
        let file = |cores: f64| {
            Json::obj([
                ("fingerprint", Json::obj([("cores", Json::Num(cores))])),
                ("workloads", Json::Arr(vec![])),
            ])
        };
        assert!(compare(&file(2.0), &file(2.0)).is_ok());
        let err = compare(&file(2.0), &file(8.0)).unwrap_err();
        assert!(err.contains("cores"), "{err}");
    }
}
