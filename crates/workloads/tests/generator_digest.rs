//! The generators' output is pinned: a digest of every row of the flights
//! fact table at two seeds, and of both dimension tables. A change to how
//! the tables are built must leave these constants alone; only a change to
//! what is generated may move them.

use tabviz_common::hash::hash_str;
use tabviz_common::Chunk;
use tabviz_workloads::faa::{airports_dim, carriers_dim, generate_flights, FaaConfig};

/// Fold of every row's debug text, in row order.
fn digest(chunk: &Chunk) -> u64 {
    chunk.to_rows().iter().fold(chunk.len() as u64, |h, row| {
        hash_str(h, &format!("{row:?}"))
    })
}

fn flights(seed: u64) -> u64 {
    let config = FaaConfig {
        rows: 20_000,
        seed,
        ..Default::default()
    };
    digest(&generate_flights(&config).unwrap())
}

#[test]
fn flights_digest_is_pinned() {
    assert_eq!(flights(0x5EED), 0x5c53_d51c_cc34_852e);
    assert_eq!(flights(42), 0xd89e_97ac_56fe_018f);
}

#[test]
fn dimension_digests_are_pinned() {
    assert_eq!(digest(&carriers_dim().unwrap()), 0xa755_df6c_bf4b_8109);
    assert_eq!(digest(&airports_dim().unwrap()), 0x5251_0302_5229_ce43);
}
