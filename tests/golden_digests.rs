//! Cross-build golden digests of the crawl engines' durable output.
//!
//! `tests/determinism.rs` compares two runs of the *same* build, so a
//! refactor that changes behaviour identically in both runs passes it.
//! These tests pin the bytes themselves: the encoded snapshot of the final
//! engine state and the write-ahead-log file after a short crawl with
//! failure injection, for every engine, plus every shard's checkpoint in a
//! two-shard fleet per incremental engine family (routed batches
//! included). A digest may change only with a deliberate, documented
//! change of crawl behaviour or snapshot layout.

use std::path::{Path, PathBuf};
use webevo::core::CrawlModule;
use webevo::prelude::*;
use webevo::store::{encode_snapshot, fnv64, WAL_FILE};

/// A unique temp directory per test (tests run concurrently).
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("webevo-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The digests one engine (or one fleet shard) leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Digests {
    /// `fnv64(encode_snapshot(state))` of the final state.
    state: u64,
    /// The same with the CrawlModule attempt counters zeroed.
    state_without_crawl_counters: u64,
    /// `fnv64` of the WAL file bytes.
    wal: u64,
}

fn digests(state: &CrawlerState, wal_path: &Path) -> Digests {
    let mut zeroed = state.clone();
    zeroed.crawl = CrawlModule::default();
    let wal = std::fs::read(wal_path).expect("the WAL file exists");
    Digests {
        state: fnv64(&encode_snapshot(state)),
        state_without_crawl_counters: fnv64(&encode_snapshot(&zeroed)),
        wal: fnv64(&wal),
    }
}

/// Crawl 18 days under a 4-day checkpoint cadence, commit the WAL, and
/// digest the live engine state and the WAL file. The single-threaded
/// engines fetch through a failure-injected fetcher; the threaded engine's
/// workers spawn their own fetchers, whose failures are the universe's
/// dead pages.
fn session_digests(tag: &str, kind: EngineKind) -> Digests {
    let dir = temp_dir(tag);
    let universe = WebUniverse::generate(UniverseConfig::test_scale(91));
    let budget = CrawlBudget::paper_monthly(50).with_cycle_days(5.0);
    let mut fetcher = SimFetcher::new(&universe).with_failure_rate(0.15);
    let mut builder = CrawlSession::builder()
        .engine(kind)
        .budget(budget)
        .universe(&universe)
        .checkpoint(&dir, 4.0);
    if !matches!(kind, EngineKind::Threaded { .. }) {
        builder = builder.fetcher(&mut fetcher);
    }
    let mut session = builder.build().expect("checkpoint dir is writable");
    session.run(18.0).expect("the crawl runs");
    assert!(session.metrics().failed_fetches > 0, "{tag}: failures were injected");
    session.sync().expect("the WAL commits");
    let state = session.export_state();
    let out = digests(&state, &dir.join(WAL_FILE));
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Run a two-shard fleet of `kind` engines for 14 days under a 4-day
/// cadence (failure-injected where the engine crawls through the fleet's
/// fetchers) and digest each shard's recovered snapshot and WAL file.
fn fleet_digests(tag: &str, kind: EngineKind) -> Vec<Digests> {
    let dir = temp_dir(tag);
    let universe = WebUniverse::generate(UniverseConfig::test_scale(92));
    let mut builder = FleetSession::builder()
        .shards(2)
        .engine(kind)
        .budget(CrawlBudget::paper_monthly(48).with_cycle_days(6.0))
        .universe(&universe)
        .checkpoint(&dir, 4.0);
    if !matches!(kind, EngineKind::Threaded { .. }) {
        builder = builder.failure_rate(0.1);
    }
    let mut fleet = builder.build().expect("a valid fleet");
    let results = fleet.run(14.0).expect("the fleet runs").clone();
    assert!(results.routed_links() > 0, "{tag}: cross-shard links were exchanged");
    drop(fleet);
    let out = (0..2)
        .map(|i| {
            let shard_dir = dir.join(format!("shard-{i}"));
            let recovered = recover(&shard_dir).expect("decodes").expect("snapshot exists");
            assert!(
                recovered.wal.iter().any(|e| matches!(e, WalEvent::Routed(_))),
                "{tag}: shard {i}'s WAL carries routed batches"
            );
            digests(&recovered.state, &shard_dir.join(WAL_FILE))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

// The threaded engine once exported `CrawlModule::default()` and never
// counted fetch attempts; sharing the incremental engine's per-fetch path
// made it count them. Its `state` digests changed with that, and only
// that: with the counters zeroed (`state_without_crawl_counters`) and in
// the WAL bytes, they match the earlier engine's digests exactly.

const fn pinned(state: u64, state_without_crawl_counters: u64, wal: u64) -> Digests {
    Digests { state, state_without_crawl_counters, wal }
}

#[test]
fn incremental_session_digests_are_pinned() {
    assert_eq!(
        session_digests("inc", EngineKind::Incremental),
        pinned(0x9baffeb7cf42cf75, 0x0ac2901da4451b7a, 0x0d531c4d53bd60d8)
    );
}

#[test]
fn threaded_one_worker_session_digests_are_pinned() {
    assert_eq!(
        session_digests("thr1", EngineKind::Threaded { workers: 1 }),
        pinned(0xe2d8e477f73ad536, 0x696a4b59dc18f1d7, 0xb61079685b50ce98)
    );
}

#[test]
fn threaded_four_worker_session_digests_are_pinned() {
    assert_eq!(
        session_digests("thr4", EngineKind::Threaded { workers: 4 }),
        pinned(0x105701615d9705c1, 0x790f5f8e7b19dfc1, 0x27fb9eca18b1b3e4)
    );
}

#[test]
fn periodic_session_digests_are_pinned() {
    assert_eq!(
        session_digests("per", EngineKind::Periodic),
        pinned(0x060d6f9726d81a98, 0x060d6f9726d81a98, 0x87c72b4717b92629)
    );
}

#[test]
fn incremental_fleet_shard_digests_are_pinned() {
    assert_eq!(
        fleet_digests("inc-fleet", EngineKind::Incremental),
        [
            pinned(0xf9d6df535b277b40, 0xb774ac787fbb4b26, 0xa77c9bee2192b545),
            pinned(0xd8c8d5c44b4db901, 0xb15973472a13677d, 0x209dc93f596ef179),
        ]
    );
}

#[test]
fn threaded_fleet_shard_digests_are_pinned() {
    assert_eq!(
        fleet_digests("thr-fleet", EngineKind::Threaded { workers: 2 }),
        [
            pinned(0x666fa8ac2c3f98be, 0x7ae1354c946fcb7a, 0x023bc3a7cc74deb8),
            pinned(0x6c3f4b4430ab9370, 0x3d062a5195104045, 0x82173324e93ad01e),
        ]
    );
}
