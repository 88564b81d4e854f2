//! Synthetic FAA Flights On-Time data.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use tabviz_common::{Chunk, ColumnVec, DataType, Field, NullMask, Result, Schema, StrVec, Values};
use tabviz_tql::datefn;

/// The carriers in the synthetic fleet, with rough relative volumes
/// (zipf-ish: a few majors dominate, like the real data).
pub const CARRIERS: &[(&str, &str, u32)] = &[
    ("WN", "Southwest Airlines", 100),
    ("DL", "Delta Air Lines", 80),
    ("AA", "American Airlines", 75),
    ("UA", "United Airlines", 60),
    ("US", "US Airways", 45),
    ("EV", "ExpressJet", 40),
    ("OO", "SkyWest", 38),
    ("B6", "JetBlue Airways", 25),
    ("AS", "Alaska Airlines", 18),
    ("NK", "Spirit Airlines", 12),
    ("F9", "Frontier Airlines", 9),
    ("HA", "Hawaiian Airlines", 6),
];

/// Airports: (code, state), biggest hubs first.
pub const AIRPORTS: &[(&str, &str)] = &[
    ("ATL", "GA"),
    ("ORD", "IL"),
    ("DFW", "TX"),
    ("DEN", "CO"),
    ("LAX", "CA"),
    ("SFO", "CA"),
    ("PHX", "AZ"),
    ("IAH", "TX"),
    ("LAS", "NV"),
    ("SEA", "WA"),
    ("MSP", "MN"),
    ("DTW", "MI"),
    ("BOS", "MA"),
    ("EWR", "NJ"),
    ("CLT", "NC"),
    ("LGA", "NY"),
    ("JFK", "NY"),
    ("SLC", "UT"),
    ("BWI", "MD"),
    ("MDW", "IL"),
    ("MCO", "FL"),
    ("MIA", "FL"),
    ("SAN", "CA"),
    ("TPA", "FL"),
    ("PDX", "OR"),
    ("STL", "MO"),
    ("HNL", "HI"),
    ("OGG", "HI"),
    ("DCA", "VA"),
    ("PHL", "PA"),
];

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct FaaConfig {
    pub rows: usize,
    pub seed: u64,
    /// First day (days since epoch) — defaults to 2005-01-01, covering the
    /// paper's "past decade".
    pub start_day: i32,
    pub n_days: i32,
}

impl Default for FaaConfig {
    fn default() -> Self {
        FaaConfig {
            rows: 100_000,
            seed: 0x5EED,
            start_day: datefn::days_from_civil(2005, 1, 1),
            n_days: 3650,
        }
    }
}

impl FaaConfig {
    pub fn with_rows(rows: usize) -> Self {
        FaaConfig {
            rows,
            ..Default::default()
        }
    }
}

/// The fact-table schema.
pub fn flights_schema() -> Arc<Schema> {
    Arc::new(Schema::new_unchecked(vec![
        Field::new("date", DataType::Date).not_null(),
        Field::new("carrier", DataType::Str).not_null(),
        Field::new("origin", DataType::Str).not_null(),
        Field::new("dest", DataType::Str).not_null(),
        Field::new("origin_state", DataType::Str).not_null(),
        Field::new("dest_state", DataType::Str).not_null(),
        Field::new("market", DataType::Str).not_null(),
        Field::new("dep_hour", DataType::Int).not_null(),
        Field::new("weekday", DataType::Int).not_null(),
        Field::new("distance", DataType::Int).not_null(),
        Field::new("dep_delay", DataType::Int),
        Field::new("arr_delay", DataType::Int),
        Field::new("cancelled", DataType::Bool).not_null(),
    ]))
}

/// A string column of codes into a fixed table.
fn coded(table: &Arc<Vec<String>>, codes: Vec<u32>) -> ColumnVec {
    ColumnVec::from_values(Values::Str(StrVec::new(Arc::clone(table), codes)))
}

fn table<'a>(strs: impl Iterator<Item = &'a str>) -> Arc<Vec<String>> {
    Arc::new(strs.map(str::to_string).collect())
}

/// Generate the flights fact table, column by column. Deterministic in
/// `seed`. A string column is codes into a fixed table: carrier, airport and
/// state by index into [`CARRIERS`] / [`AIRPORTS`], market by airport pair.
pub fn generate_flights(config: &FaaConfig) -> Result<Chunk> {
    let (n, na) = (config.rows, AIRPORTS.len());
    // The market of airports `a` and `b`, in either order, is entry `a * na + b`.
    let markets: Vec<String> = (0..na * na)
        .map(|k| {
            let (a, b) = (AIRPORTS[k / na].0, AIRPORTS[k % na].0);
            if a < b {
                format!("{a}-{b}")
            } else {
                format!("{b}-{a}")
            }
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Cumulative carrier weights for sampling.
    let total_w: u32 = CARRIERS.iter().map(|&(_, _, w)| w).sum();
    let mut date = Vec::with_capacity(n);
    let mut carrier = Vec::with_capacity(n);
    let mut origin = Vec::with_capacity(n);
    let mut dest = Vec::with_capacity(n);
    let mut market = Vec::with_capacity(n);
    let mut dep_hours = Vec::with_capacity(n);
    let mut weekdays = Vec::with_capacity(n);
    let mut distances = Vec::with_capacity(n);
    let mut dep_delays = Vec::with_capacity(n);
    let mut arr_delays = Vec::with_capacity(n);
    let mut cancels = Vec::with_capacity(n);
    for _ in 0..n {
        let day = config.start_day + rng.random_range(0..config.n_days.max(1));
        let weekday = datefn::weekday(day);
        let month = datefn::month(day);

        let mut pick = rng.random_range(0..total_w);
        let mut ci = 0;
        for (i, c) in CARRIERS.iter().enumerate() {
            if pick < c.2 {
                ci = i;
                break;
            }
            pick -= c.2;
        }

        // Hubs dominate: index sampled with quadratic bias toward 0.
        let oi = biased_index(&mut rng, na);
        let mut di = biased_index(&mut rng, na);
        if di == oi {
            di = (di + 1) % na;
        }

        let dep_hour = sample_hour(&mut rng);
        // Delay model: base noise + evening cascades + winter/summer bumps
        // + Friday/Sunday peaks; heavy tail via occasional big delays.
        let mut delay = rng.random_range(-10..15) as f64;
        delay += (dep_hour as f64 - 8.0).max(0.0) * 1.2;
        if month == 12 || month == 1 || month == 6 || month == 7 {
            delay += 4.0;
        }
        if weekday == 5 || weekday == 0 {
            delay += 3.0;
        }
        if rng.random::<f64>() < 0.05 {
            delay += rng.random_range(30..240) as f64;
        }
        let dep_delay = delay.round() as i64;
        let arr_delay = dep_delay + rng.random_range(-12..10);

        let cancelled = rng.random::<f64>() < 0.018 + if month == 1 { 0.012 } else { 0.0 };
        let distance = 150 + ((oi as i64 * 37 + di as i64 * 53) % 2300);

        date.push(day);
        carrier.push(ci as u32);
        origin.push(oi as u32);
        dest.push(di as u32);
        market.push((oi * na + di) as u32);
        dep_hours.push(dep_hour as i64);
        weekdays.push(weekday as i64);
        distances.push(distance);
        // Cancelled flights have NULL delays; the placeholder is 0.
        dep_delays.push(if cancelled { 0 } else { dep_delay });
        arr_delays.push(if cancelled { 0 } else { arr_delay });
        cancels.push(cancelled);
    }

    let airports = table(AIRPORTS.iter().map(|a| a.0));
    let states = table(AIRPORTS.iter().map(|a| a.1));
    let flown = NullMask::from_valid_bits(cancels.iter().map(|&c| !c).collect());
    let columns = vec![
        ColumnVec::from_values(Values::Date(date)),
        coded(&table(CARRIERS.iter().map(|c| c.0)), carrier),
        coded(&airports, origin.clone()),
        coded(&airports, dest.clone()),
        coded(&states, origin),
        coded(&states, dest),
        coded(&Arc::new(markets), market),
        ColumnVec::from_values(Values::Int(dep_hours)),
        ColumnVec::from_values(Values::Int(weekdays)),
        ColumnVec::from_values(Values::Int(distances)),
        ColumnVec::new(Values::Int(dep_delays), flown.clone()),
        ColumnVec::new(Values::Int(arr_delays), flown),
        ColumnVec::from_values(Values::Bool(cancels)),
    ];
    Chunk::new(flights_schema(), columns)
}

fn biased_index(rng: &mut StdRng, n: usize) -> usize {
    let u: f64 = rng.random();
    ((u * u) * n as f64) as usize % n
}

fn sample_hour(rng: &mut StdRng) -> u32 {
    // Bimodal: morning and late-afternoon banks.
    if rng.random::<f64>() < 0.5 {
        6 + rng.random_range(0..5)
    } else {
        15 + rng.random_range(0..6)
    }
}

/// The carriers dimension table: `code`, `name`.
pub fn carriers_dim() -> Result<Chunk> {
    dimension(["code", "name"], || CARRIERS.iter().map(|c| [c.0, c.1]))
}

/// The airports dimension table: `code`, `state`.
pub fn airports_dim() -> Result<Chunk> {
    dimension(["code", "state"], || AIRPORTS.iter().map(|a| [a.0, a.1]))
}

/// A two-column string table with one row per pair `rows` yields.
fn dimension<'a, I>(names: [&str; 2], rows: impl Fn() -> I) -> Result<Chunk>
where
    I: Iterator<Item = [&'a str; 2]>,
{
    let fields = names.map(|name| Field::new(name, DataType::Str).not_null());
    let columns = (0..2).map(|k| {
        let strs = table(rows().map(|row| row[k]));
        coded(&strs, (0..strs.len() as u32).collect())
    });
    Chunk::new(
        Arc::new(Schema::new_unchecked(fields.into())),
        columns.collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabviz_common::Value;

    #[test]
    fn deterministic_in_seed() {
        let c = FaaConfig {
            rows: 500,
            ..Default::default()
        };
        let a = generate_flights(&c).unwrap();
        let b = generate_flights(&c).unwrap();
        assert_eq!(a.to_rows(), b.to_rows());
        let c2 = FaaConfig { seed: 99, ..c };
        let d = generate_flights(&c2).unwrap();
        assert_ne!(a.to_rows(), d.to_rows());
    }

    #[test]
    fn shape_matches_schema() {
        let c = generate_flights(&FaaConfig {
            rows: 1000,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(c.len(), 1000);
        assert_eq!(c.num_columns(), 13);
        // Cancelled flights have NULL delays.
        for r in c.to_rows() {
            if r[12] == Value::Bool(true) {
                assert_eq!(r[10], Value::Null);
            } else {
                assert_ne!(r[10], Value::Null);
            }
        }
    }

    #[test]
    fn carrier_volumes_are_skewed() {
        let c = generate_flights(&FaaConfig {
            rows: 20_000,
            ..Default::default()
        })
        .unwrap();
        let carrier_idx = 1;
        let mut wn = 0;
        let mut ha = 0;
        for i in 0..c.len() {
            match c.column(carrier_idx).get(i) {
                Value::Str(s) if s == "WN" => wn += 1,
                Value::Str(s) if s == "HA" => ha += 1,
                _ => {}
            }
        }
        assert!(wn > ha * 5, "WN {wn} should dwarf HA {ha}");
    }

    #[test]
    fn cancellation_rate_plausible() {
        let c = generate_flights(&FaaConfig {
            rows: 20_000,
            ..Default::default()
        })
        .unwrap();
        let cancelled = c
            .to_rows()
            .iter()
            .filter(|r| r[12] == Value::Bool(true))
            .count();
        let rate = cancelled as f64 / 20_000.0;
        assert!(rate > 0.005 && rate < 0.06, "rate {rate}");
    }

    #[test]
    fn market_is_direction_independent() {
        let c = generate_flights(&FaaConfig {
            rows: 2_000,
            ..Default::default()
        })
        .unwrap();
        for r in c.to_rows() {
            let (Value::Str(o), Value::Str(d), Value::Str(m)) = (&r[2], &r[3], &r[6]) else {
                panic!("bad types");
            };
            let expect = if o < d {
                format!("{o}-{d}")
            } else {
                format!("{d}-{o}")
            };
            assert_eq!(*m, expect);
        }
    }

    #[test]
    fn dimensions_cover_fact_values() {
        let dims = carriers_dim().unwrap();
        assert_eq!(dims.len(), CARRIERS.len());
        let air = airports_dim().unwrap();
        assert_eq!(air.len(), AIRPORTS.len());
    }
}
