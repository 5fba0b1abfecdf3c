//! Property: the parallel staged build is an optimization, not a
//! semantic change.
//!
//! For any seed and overlay size, building with worker threads must
//! produce a world bit-identical to the single-threaded build: the
//! same [`EngineSnapshot`] digest (HFC topology, service placement,
//! and coordinate bits) and the same canonical [`HfcSnapshot`]. The
//! one parallelized stage — the per-host embedding solves — is
//! covered, because every coordinate feeds the digest.
//!
//! Thread counts above the host's core count are deliberate: on a
//! small CI machine oversubscription still drives the chunked
//! work-splitting code paths, which is where ordering bugs would
//! live.

use proptest::prelude::*;
use son_core::{Environment, ServiceOverlay, SonConfig};

fn config(proxies: usize, seed: u64, threads: usize) -> SonConfig {
    let mut env = Environment::scaled(proxies, seed);
    // The 6:5 physical ratio leaves no slack at sub-paper sizes once
    // transit nodes and client attachments claim their stubs; double
    // it so every sampled size hosts.
    env.physical_nodes = proxies * 2;
    let mut config = SonConfig::from_environment(env);
    config.threads = threads;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn parallel_build_is_bit_identical_to_sequential(
        // `Environment::scaled` needs ~65+ proxies before the 6:5
        // physical ratio clears the transit core's fixed stub cost.
        seed in 0u64..1_000,
        proxies in 100usize..240,
        threads in 2usize..6,
    ) {
        let sequential = ServiceOverlay::build(&config(proxies, seed, 1));
        let parallel = ServiceOverlay::build(&config(proxies, seed, threads));

        prop_assert_eq!(
            sequential.engine_snapshot().digest(),
            parallel.engine_snapshot().digest(),
            "digest diverged at {} proxies, seed {}, {} threads",
            proxies, seed, threads
        );
        prop_assert_eq!(sequential.hfc().snapshot(), parallel.hfc().snapshot());
    }
}

/// The same invariant holds with the bounded delay cache in play and
/// at a size where every worker has real work.
#[test]
fn parallel_build_matches_at_depth_and_bound() {
    let build = |threads: usize| {
        let mut c = config(400, 7, threads);
        c.delay_rows_limit = Some(64);
        ServiceOverlay::build(&c)
    };
    let sequential = build(1);
    let parallel = build(4);
    assert_eq!(
        sequential.engine_snapshot().digest(),
        parallel.engine_snapshot().digest()
    );
    assert_eq!(sequential.hfc().snapshot(), parallel.hfc().snapshot());
}
