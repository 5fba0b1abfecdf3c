//! Proxy health and capacity: the serving-path view of liveness.
//!
//! PR 4 made the *state protocol* crash-tolerant; this module gives the
//! *serving* layer the matching vocabulary. Every proxy carries a
//! [`ProxyStatus`]: a [`Health`] state (fed from fault-plan crash
//! events and the state protocol's missed-refresh detector), a
//! capacity (how many concurrent service executions it admits per
//! serving batch), and a utilization gauge in `[0, 1]` mirrored from
//! son-telemetry.
//!
//! A [`StatusMap`] bundles one status per proxy. The empty map is the
//! pre-overload world: every proxy `Up`, uncapped, idle — routers and
//! engines treat it as "no constraints", so existing call sites keep
//! their exact behaviour.

use crate::proxy::ProxyId;

/// Liveness of a proxy as seen by the serving path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Health {
    /// Serving normally.
    #[default]
    Up,
    /// Alive but shedding: its state refreshes are stale or it is being
    /// drained — existing sessions finish, new sessions pay a penalty.
    Draining,
    /// Crashed or unreachable: must not appear on any served path.
    Down,
}

impl Health {
    /// Whether new paths may traverse this proxy at all. `Draining`
    /// proxies are still routable (at a cost); `Down` proxies never.
    pub fn is_routable(self) -> bool {
        !matches!(self, Health::Down)
    }
}

/// Capacity value meaning "no admission limit".
const UNCAPPED: u32 = u32::MAX;

/// Health, capacity, and live load of one proxy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxyStatus {
    /// Liveness state.
    pub health: Health,
    /// Service executions admitted per serving batch (`u32::MAX` for
    /// no limit).
    pub capacity: u32,
    /// Live-load gauge in `[0, 1]` (fraction of capacity in use).
    pub utilization: f64,
}

impl Default for ProxyStatus {
    fn default() -> Self {
        ProxyStatus {
            health: Health::Up,
            capacity: UNCAPPED,
            utilization: 0.0,
        }
    }
}

/// One [`ProxyStatus`] per proxy.
///
/// Out-of-range lookups return the default status (`Up`, uncapped,
/// idle), so an empty map imposes no constraints anywhere.
///
/// # Example
///
/// ```
/// use son_overlay::{Health, ProxyId, StatusMap};
///
/// let mut statuses = StatusMap::all_up(3);
/// statuses.set_health(ProxyId::new(1), Health::Down);
/// assert!(statuses.is_routable(ProxyId::new(0)));
/// assert!(!statuses.is_routable(ProxyId::new(1)));
/// assert_eq!(statuses.down_proxies(), vec![ProxyId::new(1)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatusMap {
    entries: Vec<ProxyStatus>,
}

impl StatusMap {
    /// The empty map: every proxy healthy and unconstrained.
    pub fn new() -> Self {
        StatusMap::default()
    }

    /// `n` proxies, all `Up`, uncapped, idle.
    pub fn all_up(n: usize) -> Self {
        StatusMap {
            entries: vec![ProxyStatus::default(); n],
        }
    }

    /// `n` proxies, all `Up` except the listed ones, which are `Down` —
    /// the one way to exclude a crashed proxy from serving.
    pub fn from_down(n: usize, down: &[ProxyId]) -> Self {
        let mut map = StatusMap::all_up(n);
        for &p in down {
            map.set_health(p, Health::Down);
        }
        map
    }

    /// Builds the map from one health state per proxy (e.g. the state
    /// protocol's detector output), leaving capacities uncapped.
    pub fn from_health(health: &[Health]) -> Self {
        StatusMap {
            entries: health
                .iter()
                .map(|&h| ProxyStatus {
                    health: h,
                    ..ProxyStatus::default()
                })
                .collect(),
        }
    }

    /// Number of proxies with an explicit status.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map carries no explicit statuses (the unconstrained
    /// world).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The status of `proxy` (default when none was recorded).
    pub fn get(&self, proxy: ProxyId) -> ProxyStatus {
        self.entries.get(proxy.index()).copied().unwrap_or_default()
    }

    /// The health of `proxy`.
    pub fn health(&self, proxy: ProxyId) -> Health {
        self.get(proxy).health
    }

    /// The per-batch admission capacity of `proxy`.
    pub fn capacity(&self, proxy: ProxyId) -> u32 {
        self.get(proxy).capacity
    }

    /// The live-load gauge of `proxy`.
    pub fn utilization(&self, proxy: ProxyId) -> f64 {
        self.get(proxy).utilization
    }

    /// Whether new paths may traverse `proxy`.
    pub fn is_routable(&self, proxy: ProxyId) -> bool {
        self.health(proxy).is_routable()
    }

    /// Overwrites the status of `proxy`, growing the map with defaults
    /// as needed.
    pub fn set(&mut self, proxy: ProxyId, status: ProxyStatus) {
        if proxy.index() >= self.entries.len() {
            self.entries
                .resize(proxy.index() + 1, ProxyStatus::default());
        }
        self.entries[proxy.index()] = status;
    }

    /// Sets only the health of `proxy`.
    pub fn set_health(&mut self, proxy: ProxyId, health: Health) {
        let mut status = self.get(proxy);
        status.health = health;
        self.set(proxy, status);
    }

    /// Sets only the capacity of `proxy`.
    pub fn set_capacity(&mut self, proxy: ProxyId, capacity: u32) {
        let mut status = self.get(proxy);
        status.capacity = capacity;
        self.set(proxy, status);
    }

    /// Sets only the utilization gauge of `proxy` (clamped to `[0, 1]`).
    pub fn set_utilization(&mut self, proxy: ProxyId, utilization: f64) {
        let mut status = self.get(proxy);
        status.utilization = utilization.clamp(0.0, 1.0);
        self.set(proxy, status);
    }

    /// Every proxy currently `Down`, in ascending id order.
    pub fn down_proxies(&self) -> Vec<ProxyId> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, s)| s.health == Health::Down)
            .map(|(i, _)| ProxyId::new(i))
            .collect()
    }

    /// Iterates `(proxy, status)` over every explicit entry.
    pub fn iter(&self) -> impl Iterator<Item = (ProxyId, &ProxyStatus)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, s)| (ProxyId::new(i), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_constrains_nothing() {
        let map = StatusMap::new();
        assert!(map.is_empty());
        let p = ProxyId::new(99);
        assert_eq!(map.health(p), Health::Up);
        assert_eq!(map.capacity(p), UNCAPPED);
        assert_eq!(map.utilization(p), 0.0);
        assert!(map.is_routable(p));
        assert!(map.down_proxies().is_empty());
    }

    #[test]
    fn down_proxies_are_unroutable() {
        let map = StatusMap::from_down(4, &[ProxyId::new(1), ProxyId::new(3)]);
        assert!(map.is_routable(ProxyId::new(0)));
        assert!(!map.is_routable(ProxyId::new(1)));
        assert!(!map.is_routable(ProxyId::new(3)));
        assert_eq!(map.down_proxies(), vec![ProxyId::new(1), ProxyId::new(3)]);
        assert!(!Health::Down.is_routable());
        assert!(Health::Draining.is_routable());
    }

    #[test]
    fn setters_grow_and_clamp() {
        let mut map = StatusMap::new();
        map.set_capacity(ProxyId::new(2), 7);
        assert_eq!(map.len(), 3);
        assert_eq!(map.capacity(ProxyId::new(2)), 7);
        assert_eq!(map.health(ProxyId::new(2)), Health::Up);
        map.set_utilization(ProxyId::new(2), 3.5);
        assert_eq!(map.utilization(ProxyId::new(2)), 1.0);
        map.set_health(ProxyId::new(2), Health::Draining);
        // Orthogonal fields survive partial updates.
        assert_eq!(map.capacity(ProxyId::new(2)), 7);
        assert_eq!(map.utilization(ProxyId::new(2)), 1.0);
    }

    #[test]
    fn from_health_tracks_states() {
        let map = StatusMap::from_health(&[Health::Up, Health::Down, Health::Draining]);
        assert_eq!(map.down_proxies(), vec![ProxyId::new(1)]);
        assert_eq!(map.health(ProxyId::new(2)), Health::Draining);
        assert_eq!(map.capacity(ProxyId::new(1)), UNCAPPED);
    }
}
