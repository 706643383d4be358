//! `compare a.json b.json`: per workload and end-to-end metric, the change
//! of the median from `a` to `b` against the metric's bound, with the
//! per-layer changes listed beneath. The agreement check between two sets
//! of runs, and the seed of a `bench-diff`.

use unison_telemetry::json::{self, Value};

use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// A side's inter-quartile range is wider than the bound and the two
    /// sides' runs overlap: the data cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges a lower-is-better metric that went from `a` to `b`.
pub fn judge(a: &Summary, b: &Summary, bound: f64) -> Verdict {
    let wide = a.iqr_share() > bound || b.iqr_share() > bound;
    let overlap = a.min <= b.max && b.min <= a.max;
    if wide && overlap {
        Verdict::Unresolved
    } else if b.median > a.median * (1.0 + bound) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn summary_of(v: &Value) -> Option<(Summary, f64, String)> {
    let num = |key: &str| v.get(key).and_then(Value::as_num);
    let summary = Summary {
        median: num("median")?,
        q1: num("q1")?,
        q3: num("q3")?,
        min: num("min")?,
        max: num("max")?,
        n: num("n")? as usize,
    };
    Some((summary, num("bound")?, v.get("unit")?.as_str()?.to_string()))
}

fn pairs<'a>(v: &'a Value, key: &str) -> &'a [(String, Value)] {
    match v.get(key) {
        Some(Value::Obj(pairs)) => pairs,
        _ => &[],
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(crate::report::SCHEMA) => Ok(doc),
        other => Err(format!(
            "{path}: schema {other:?}, expected {}",
            crate::report::SCHEMA
        )),
    }
}

fn percent(a: f64, b: f64) -> String {
    if a == 0.0 {
        "n/a".into()
    } else {
        format!("{:+.1} %", (b - a) / a * 100.0)
    }
}

/// Prints the comparison; `Ok(true)` when nothing regressed and every exact
/// count agrees.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (label, doc) in [("a", &a), ("b", &b)] {
        let p = |key: &str| {
            doc.get("provenance")
                .and_then(|p| p.get(key))
                .map_or("?".into(), Value::to_json)
        };
        println!(
            "{label}: commit {} on {} cores ({}), seed {}",
            p("git_commit"),
            p("nproc"),
            p("cpu_model"),
            p("seed")
        );
    }
    let workloads = |doc: &Value| {
        doc.get("workloads")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    let mut clean = true;
    let in_b = workloads(&b);
    for wa in workloads(&a) {
        let name = wa
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(wb) = in_b
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(&name))
        else {
            println!("\n== {name}: only in {path_a}");
            continue;
        };
        println!("\n== {name}");
        for (metric, va) in pairs(&wa, "end_to_end") {
            let Some(vb) = wb.get("end_to_end").and_then(|e| e.get(metric)) else {
                continue;
            };
            let (Some((sa, bound, unit)), Some((sb, _, _))) = (summary_of(va), summary_of(vb))
            else {
                return Err(format!("{name}.{metric}: malformed summary"));
            };
            let verdict = judge(&sa, &sb, bound);
            clean &= verdict != Verdict::Regressed;
            println!(
                "   {metric:<12} {:>11.6} -> {:>11.6} {unit:<3} {:>8}  bound {:>2.0} %  {}",
                sa.median,
                sb.median,
                percent(sa.median, sb.median),
                bound * 100.0,
                verdict.label()
            );
            if verdict == Verdict::Unresolved {
                for (side, s) in [("a", &sa), ("b", &sb)] {
                    println!(
                        "      {side}: q1 {:.6} q3 {:.6} (IQR {:.1} % of median) min {:.6} max {:.6} n {}",
                        s.q1, s.q3, s.iqr_share() * 100.0, s.min, s.max, s.n
                    );
                }
            }
        }
        for (config, ea) in pairs(&wa, "exact") {
            let eb = wb.get("exact").and_then(|e| e.get(config));
            if eb.is_some_and(|eb| eb != ea) {
                clean = false;
                println!(
                    "   exact counts of {config} differ:\n      a {}\n      b {}",
                    ea.to_json(),
                    eb.map_or(String::new(), Value::to_json)
                );
            }
        }
        for (metric, va) in pairs(&wa, "per_layer") {
            let value = |v: &Value| v.get("value").and_then(Value::as_num);
            let vb = wb.get("per_layer").and_then(|l| l.get(metric));
            if let (Some(x), Some(y)) = (value(va), vb.and_then(value)) {
                let unit = va.get("unit").and_then(Value::as_str).unwrap_or("");
                println!(
                    "      {metric:<40} {x:>16.4} -> {y:>16.4} {unit:<6} {}",
                    percent(x, y)
                );
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let tight = |center: f64| summarize(&[center * 0.99, center, center * 1.01]).unwrap();
        let noisy = |center: f64| {
            summarize(&[
                center * 0.8,
                center * 0.9,
                center,
                center * 1.1,
                center * 1.2,
            ])
            .unwrap()
        };
        assert_eq!(judge(&tight(1.0), &tight(1.05), 0.08), Verdict::Ok);
        assert_eq!(judge(&tight(1.0), &tight(0.5), 0.08), Verdict::Ok);
        assert_eq!(judge(&tight(1.0), &tight(1.2), 0.08), Verdict::Regressed);
        // Wide and overlapping: cannot tell, whichever way the medians lean.
        assert_eq!(judge(&noisy(1.0), &noisy(1.05), 0.08), Verdict::Unresolved);
        assert_eq!(judge(&noisy(1.0), &tight(1.15), 0.08), Verdict::Unresolved);
        // Wide but disjoint: every run of one side beats every run of the other.
        assert_eq!(judge(&noisy(1.0), &noisy(2.0), 0.08), Verdict::Regressed);
        assert_eq!(judge(&noisy(2.0), &noisy(1.0), 0.08), Verdict::Ok);
    }
}
