//! # son-workload
//!
//! Workload and environment generation reproducing the paper's
//! simulation settings (Section 6, Table 1):
//!
//! | physical topology | landmarks | proxies | clients | services/proxy | request length |
//! |-------------------|-----------|---------|---------|----------------|----------------|
//! | 300               | 10        | 250     | 40      | 4–10           | 4–10           |
//! | 600               | 10        | 500     | 90      | 4–10           | 4–10           |
//! | 900               | 10        | 750     | 140     | 4–10           | 4–10           |
//! | 1200              | 10        | 1000    | 120     | 4–10           | 4–10           |
//!
//! The paper does not state the size of the service universe; we default
//! to 60 named services, which yields realistic provider densities
//! (each service offered by roughly 10% of proxies).

pub mod env;
pub mod generate;
pub mod scenario;
pub mod unique;
pub mod zipf;

pub use env::{table1_environments, Environment};
pub use generate::{
    assign_qos, assign_services, generate_requests, place_proxies_excluding, RequestProfile,
};
pub use scenario::{Scenario, ScenarioPhase};
pub use unique::NonRepeatingWorkload;
pub use zipf::{zipf_request_mix, Zipf};
