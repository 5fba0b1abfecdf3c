//! QoS attributes — the paper's second future direction (§7):
//!
//! > How to embed QoS (e.g., network bandwidth, machine load, machine
//! > volatility) into hierarchical service topologies, and properly
//! > aggregate those pieces of information into meaningful service
//! > routing state, are important issues.
//!
//! We model the node-level QoS parameters the paper names (reference
//! \[11\]'s machine capacity and volatility): each proxy carries a
//! [`QosProfile`] and a request may add a [`QosRequirement`]. A proxy
//! is *admissible* for a request when its profile satisfies the
//! requirement; QoS routing is then capability filtering — both the
//! cluster aggregates and the intra-cluster provider tables are built
//! over admissible proxies only, which keeps the hierarchical
//! aggregates exact (no optimistic bounds, no crankback).

use std::fmt;

/// Static QoS attributes of a proxy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosProfile {
    /// Egress bandwidth available for service traffic, in Mbit/s.
    pub bandwidth_mbps: f64,
    /// Current machine load in `[0, 1]` (1 = saturated).
    pub load: f64,
    /// Volatility: probability the proxy disappears mid-session, in
    /// `[0, 1]` (reference \[11\]'s machine volatility).
    pub volatility: f64,
}

impl Default for QosProfile {
    fn default() -> Self {
        QosProfile {
            bandwidth_mbps: 100.0,
            load: 0.0,
            volatility: 0.0,
        }
    }
}

impl QosProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_mbps` is negative/non-finite or `load` /
    /// `volatility` fall outside `[0, 1]`.
    pub fn new(bandwidth_mbps: f64, load: f64, volatility: f64) -> Self {
        assert!(
            bandwidth_mbps.is_finite() && bandwidth_mbps >= 0.0,
            "bandwidth must be finite and non-negative"
        );
        assert!((0.0..=1.0).contains(&load), "load must be in [0, 1]");
        assert!(
            (0.0..=1.0).contains(&volatility),
            "volatility must be in [0, 1]"
        );
        QosProfile {
            bandwidth_mbps,
            load,
            volatility,
        }
    }
}

impl fmt::Display for QosProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0}Mbps/load{:.2}/vol{:.2}",
            self.bandwidth_mbps, self.load, self.volatility
        )
    }
}

/// QoS constraints attached to a service request. Every bound is
/// optional; `QosRequirement::default()` admits everything.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QosRequirement {
    /// Minimum acceptable egress bandwidth in Mbit/s.
    pub min_bandwidth_mbps: Option<f64>,
    /// Maximum acceptable machine load.
    pub max_load: Option<f64>,
    /// Maximum acceptable volatility.
    pub max_volatility: Option<f64>,
}

impl QosRequirement {
    /// Returns `true` when `profile` satisfies every stated bound.
    ///
    /// # Example
    ///
    /// ```
    /// use son_overlay::{QosProfile, QosRequirement};
    ///
    /// let profile = QosProfile::new(50.0, 0.4, 0.1);
    /// let lax = QosRequirement::default();
    /// let strict = QosRequirement {
    ///     min_bandwidth_mbps: Some(80.0),
    ///     ..QosRequirement::default()
    /// };
    /// assert!(lax.admits(&profile));
    /// assert!(!strict.admits(&profile));
    /// ```
    pub fn admits(&self, profile: &QosProfile) -> bool {
        if let Some(min_bw) = self.min_bandwidth_mbps {
            if profile.bandwidth_mbps < min_bw {
                return false;
            }
        }
        if let Some(max_load) = self.max_load {
            if profile.load > max_load {
                return false;
            }
        }
        if let Some(max_vol) = self.max_volatility {
            if profile.volatility > max_vol {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_requirement_admits_everything() {
        let req = QosRequirement::default();
        assert!(req.admits(&QosProfile::new(0.0, 1.0, 1.0)));
        assert!(req.admits(&QosProfile::default()));
    }

    #[test]
    fn each_bound_is_enforced() {
        let profile = QosProfile::new(50.0, 0.5, 0.2);
        let by_bw = QosRequirement {
            min_bandwidth_mbps: Some(60.0),
            ..QosRequirement::default()
        };
        let by_load = QosRequirement {
            max_load: Some(0.4),
            ..QosRequirement::default()
        };
        let by_vol = QosRequirement {
            max_volatility: Some(0.1),
            ..QosRequirement::default()
        };
        assert!(!by_bw.admits(&profile));
        assert!(!by_load.admits(&profile));
        assert!(!by_vol.admits(&profile));
        let all_ok = QosRequirement {
            min_bandwidth_mbps: Some(50.0),
            max_load: Some(0.5),
            max_volatility: Some(0.2),
        };
        assert!(all_ok.admits(&profile));
    }

    #[test]
    fn boundary_values_are_inclusive() {
        let profile = QosProfile::new(10.0, 0.3, 0.0);
        let exact = QosRequirement {
            min_bandwidth_mbps: Some(10.0),
            max_load: Some(0.3),
            max_volatility: Some(0.0),
        };
        assert!(exact.admits(&profile));
    }

    #[test]
    #[should_panic(expected = "load must be in")]
    fn invalid_load_panics() {
        let _ = QosProfile::new(1.0, 1.5, 0.0);
    }

    #[test]
    fn display_is_compact() {
        let p = QosProfile::new(100.0, 0.25, 0.05);
        assert_eq!(p.to_string(), "100Mbps/load0.25/vol0.05");
    }
}
