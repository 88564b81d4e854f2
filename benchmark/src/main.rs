//! Command line of the benchmark.
//!
//! ```text
//! tabviz-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tabviz-benchmark run --seed <n> [--seconds <s>] [--repeat <k>] [--out <file>]
//! tabviz-benchmark compare <A.json> <B.json>
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use tabviz::obs::json::{escape, parse, JsonValue};
use tabviz_benchmark::compare::{compare, render, Verdict};
use tabviz_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use tabviz_benchmark::trace::{self_time_by_name, to_jsonl};
use tabviz_benchmark::workloads::{self, Budget, RunConfig, Scale};

/// The measured window `BENCHMARK.json` fixes (`run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        _ => run_one(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// The value following `--name`, if the flag is present.
fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)?
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("{name}: cannot read '{v}'"))
        })
        .transpose()
}

/// Where trace files and `results.json` go: `benchmark/out` from the
/// repository root, `out` from inside the package.
fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// One workload, one run: the driver's contract. Metric lines, then one
/// JSON object as the last line of standard output.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err("built without optimisations; use `cargo run --release`".into());
    }
    let workload = flag(args, "--workload")?.ok_or("--workload <name> is required")?;
    let seed: u64 = parsed(args, "--seed")?.ok_or("--seed <n> is required")?;
    let seconds: f64 = parsed(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let traced = match flag(args, "--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let cfg = RunConfig {
        seed,
        budget: Budget::Seconds(seconds),
        traced,
        scale: Scale::FULL,
    };
    let out = workloads::run(workload, &cfg)?;

    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload={workload} seed={seed} seconds={seconds} trace={} available_parallelism={parallelism} schedule_digest={:016x}",
        traced as u8, out.schedule_digest
    );
    let defs: &[MetricDef] = if traced { PER_LAYER } else { END_TO_END };
    for d in defs {
        println!("{} {} {}", d.name, d.unit, out.metrics.get(d.name));
    }
    for why in &out.failures {
        eprintln!("failed: {why}");
    }
    if traced {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{workload}.jsonl"));
        std::fs::write(&path, to_jsonl(&out.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{} spans written to {}", out.spans.len(), path.display());
        eprintln!(
            "{:<28} {:>8} {:>12} {:>12}",
            "span", "count", "total ms", "self ms"
        );
        for (name, (total, own, count)) in self_time_by_name(&out.spans) {
            eprintln!(
                "{name:<28} {count:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json(defs)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// First line of a command's standard output, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload, untraced then traced, each run in a child process of its
/// own so set-up time and peak memory are per run. Writes `results.json`.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = parsed(args, "--seed")?.ok_or("--seed <n> is required")?;
    let seconds: f64 = parsed(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let repeat: usize = parsed(args, "--repeat")?.unwrap_or(1).max(1);
    let out_path =
        flag(args, "--out")?.map_or_else(|| out_dir().join("results.json"), PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"header\": {{\"available_parallelism\": {parallelism}, \"rustc\": \"{}\", \"git_commit\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"repeat\": {repeat}}},",
        escape(&tool_line("rustc", &["--version"])),
        escape(&tool_line("git", &["rev-parse", "HEAD"])),
    );
    json.push_str("  \"workloads\": {\n");
    let mut all_correct = true;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        let mut digest = String::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut sections = Vec::new();
        for (trace, section, defs) in [
            ("0", "end_to_end", END_TO_END),
            ("1", "per_layer", PER_LAYER),
        ] {
            let mut columns: Vec<Vec<f64>> = vec![Vec::new(); defs.len()];
            for _ in 0..repeat {
                let output = Command::new(&exe)
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", trace])
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("{workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let last = stdout.lines().last().unwrap_or_default();
                let result = parse(last).map_err(|e| format!("{workload}: no result ({e})"))?;
                all_correct &= result.get("correct") == Some(&JsonValue::Bool(true));
                let count =
                    |key: &str| result.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
                attempted += count("attempted");
                failed += count("failed");
                if let Some(d) = stdout
                    .lines()
                    .find_map(|l| l.split("schedule_digest=").nth(1))
                {
                    digest = d.trim().to_string();
                }
                for (column, d) in columns.iter_mut().zip(defs) {
                    let value = result
                        .get("metrics")
                        .and_then(|m| m.get(d.name))
                        .and_then(|m| m.get("value"))
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("{workload}: '{}' missing", d.name))?;
                    println!("{workload} {} {} {value}", d.name, d.unit);
                    column.push(value);
                }
            }
            let body: Vec<String> = defs
                .iter()
                .zip(&columns)
                .map(|(d, values)| format!("\"{}\": {values:?}", d.name))
                .collect();
            sections.push(format!("      \"{section}\": {{{}}}", body.join(", ")));
        }
        let _ = writeln!(
            json,
            "    \"{workload}\": {{\n      \"schedule_digest\": \"{digest}\", \"attempted\": {attempted}, \"failed\": {failed},\n{}\n    }}{}",
            sections.join(",\n"),
            if w + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    // This benchmark measures; it claims nothing.
    json.push_str("  },\n  \"claim\": null\n}\n");
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, json).map_err(|e| format!("{}: {e}", out_path.display()))?;
    eprintln!("results written to {}", out_path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two results files".into());
    };
    // From the repository root, or from inside the package.
    let benchmark = if Path::new("BENCHMARK.json").exists() {
        Path::new("BENCHMARK.json")
    } else {
        Path::new("../BENCHMARK.json")
    };
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let rows = compare(
        &read(benchmark)?,
        &read(Path::new(a))?,
        &read(Path::new(b))?,
    )?;
    print!("{}", render(&rows));
    let regressed = rows.iter().any(|r| r.verdict == Verdict::Regressed);
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
