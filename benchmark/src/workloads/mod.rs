//! The four workloads and what they share: sizing, the seeded generator,
//! set-up timing, the closed-loop driver and process memory.

pub mod closed;
pub mod storm;

use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::Span;
use std::sync::Arc;
use std::time::Instant;
use tabviz::storage::{Database, Table};
use tabviz::workloads::{generate_flights, FaaConfig};

/// How much one run measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Measure for this long (the driver's `--seconds`).
    Seconds(f64),
    /// Measure exactly this many operations, so counters repeat exactly.
    Ops(usize),
}

/// Input sizes. `FULL` is what `BENCHMARK.json` describes; `CHECK` is the
/// same code at about a twentieth of the size, for the determinism tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Divides every row count and warm-up length.
    pub divisor: usize,
    /// Set-up is repeated at least this often, and until it has taken
    /// `setup_min_s` in total (at most `MAX_SETUP_ROUNDS` times); `setup_s`
    /// is the median, so a set-up of a tenth of a second is not one sample.
    pub setup_rounds: usize,
    pub setup_min_s: f64,
    /// A probe stops after this many calls and this much time …
    pub probe_min_calls: usize,
    pub probe_min_ms: u64,
    /// … or after this much time whatever the call count.
    pub probe_max_ms: u64,
}

impl Scale {
    pub const FULL: Scale = Scale {
        divisor: 1,
        setup_rounds: 3,
        setup_min_s: 1.0,
        probe_min_calls: 30,
        probe_min_ms: 60,
        probe_max_ms: 250,
    };
    pub const CHECK: Scale = Scale {
        divisor: 20,
        setup_rounds: 1,
        setup_min_s: 0.0,
        probe_min_calls: 3,
        probe_min_ms: 0,
        probe_max_ms: 20,
    };
}

pub struct RunConfig {
    pub seed: u64,
    pub budget: Budget,
    pub traced: bool,
    pub scale: Scale,
}

pub struct RunOutput {
    pub attempted: u64,
    /// Operations that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// The first few oracle mismatches and errors, for the log.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Digest of the generated operation list: equal seeds, equal digests.
    pub schedule_digest: u64,
    pub spans: Vec<Span>,
}

pub fn run(workload: &str, cfg: &RunConfig) -> Result<RunOutput, String> {
    match workload {
        "extract_explore" => closed::run_extract_explore(cfg),
        "warehouse_load" => closed::run_warehouse_load(cfg),
        "public_storm" => storm::run(cfg, false),
        "refresh_storm" => storm::run(cfg, true),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// SplitMix64: the harness's own generator, so inputs depend on the seed
/// and on nothing inside the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }
}

/// Order-sensitive digest step (FNV-1a over the value's bytes).
pub fn digest_step(h: u64, v: u64) -> u64 {
    v.to_le_bytes().iter().fold(h, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Times of the phases of set-up, one entry per round.
#[derive(Default)]
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub generate_ms: Vec<f64>,
    pub build_table_ms: Vec<f64>,
}

impl SetupTimes {
    pub fn report(&self, m: &mut Metrics) {
        m.set("setup_s", median(&self.total_s));
        m.set("workloads.generate_ms", median(&self.generate_ms));
        m.set("storage.build_table_ms", median(&self.build_table_ms));
    }
}

const MAX_SETUP_ROUNDS: usize = 9;

/// Run `setup` repeatedly as the scale asks, timing each round, and keep the
/// last system built. A round is everything between "have a seed" and "first
/// answer returned": data generation, table build, system construction and
/// one operation, so work a later change moves into construction or first
/// use shows here.
pub fn timed_setup<S>(
    scale: &Scale,
    mut setup: impl FnMut(&mut SetupTimes) -> Result<S, String>,
) -> Result<(S, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let system = setup(&mut times)?;
        times.total_s.push(t0.elapsed().as_secs_f64());
        let rounds = times.total_s.len();
        let enough =
            rounds >= scale.setup_rounds && started.elapsed().as_secs_f64() >= scale.setup_min_s;
        if enough || rounds >= MAX_SETUP_ROUNDS {
            return Ok((system, times));
        }
    }
}

/// Generate the flights table and load it, sorted by carrier and date, into
/// a fresh database; the two steps are timed apart.
pub fn build_flights_db(
    seed: u64,
    rows: usize,
    times: &mut SetupTimes,
) -> Result<Arc<Database>, String> {
    let t0 = Instant::now();
    let flights = generate_flights(&FaaConfig {
        rows,
        seed,
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    times.generate_ms.push(ms_since(t0));
    let t1 = Instant::now();
    let table =
        Table::from_chunk("flights", &flights, &["carrier", "date"]).map_err(|e| e.to_string())?;
    times.build_table_ms.push(ms_since(t1));
    let db = Arc::new(Database::new("faa"));
    db.put(table).map_err(|e| e.to_string())?;
    Ok(db)
}

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Keep at most `cap` failure messages.
pub fn note_failure(failures: &mut Vec<String>, message: String) {
    const CAP: usize = 8;
    if failures.len() < CAP {
        failures.push(message);
    }
}
