//! The tables a hierarchical router fills lazily, kept apart from the
//! router so that every router over one overlay state shares them.

use super::HierConfig;
use crate::level::LevelTable;
use crate::providers::ProviderIndex;
use son_overlay::{ClusterId, HfcTopology, ServiceSet};
use std::sync::{Arc, Mutex, OnceLock};

/// `[l - 1][g]`: the level solver's table over the units of level `l`
/// inside group `g` of level `l + 1` (over every unit of the top level,
/// as `[top - 1][0]`).
pub(crate) type LevelTables = Vec<Vec<OnceLock<LevelTable>>>;

/// A planning layout: the router's tuning and the level it plans at.
type Layout = (HierConfig, usize);

/// Everything a [`HierarchicalRouter`](super::HierarchicalRouter) fills
/// on first use: one provider index per cluster, their union, and the
/// level solver's tables per [`HierConfig`] and top level (the router
/// inputs that change a table beside the overlay state).
///
/// A store belongs to one overlay state and outlives its routers: the
/// serving engine keeps one per snapshot, and every router over it is a
/// view that fills it, so each table is built at most once per snapshot.
///
/// An empty store (`RouterTables::default()`) allocates nothing until
/// its first use sizes it to the topology.
#[derive(Debug, Default)]
pub struct RouterTables {
    clusters: OnceLock<Vec<OnceLock<ProviderIndex>>>,
    global: OnceLock<ProviderIndex>,
    layouts: Mutex<Vec<(Layout, Arc<LevelTables>)>>,
}

impl RouterTables {
    /// A store whose provider indexes — every cluster's and their
    /// union — are filled up front from one index per cluster.
    pub(crate) fn from_indexes(indexes: Vec<ProviderIndex>) -> Self {
        RouterTables {
            global: OnceLock::from(ProviderIndex::union(&indexes)),
            clusters: OnceLock::from(indexes.into_iter().map(OnceLock::from).collect::<Vec<_>>()),
            layouts: Mutex::default(),
        }
    }

    /// The provider index of `cluster`, built from its members'
    /// `services` on first use.
    pub(crate) fn cluster(
        &self,
        cluster: usize,
        hfc: &HfcTopology,
        services: &[ServiceSet],
    ) -> &ProviderIndex {
        let clusters = self
            .clusters
            .get_or_init(|| hfc.clusters().map(|_| OnceLock::new()).collect());
        clusters[cluster].get_or_init(|| {
            ProviderIndex::from_entries(
                hfc.members(ClusterId::new(cluster))
                    .iter()
                    .map(|&m| (m, &services[m.index()])),
            )
        })
    }

    /// The union of every cluster's index — the global view the flat
    /// router and the engine's fail-over search — built from `services`
    /// on first use.
    pub fn global(&self, services: &[ServiceSet]) -> &ProviderIndex {
        self.global
            .get_or_init(|| ProviderIndex::from_service_sets(services))
    }

    /// The level tables of the layout `(config, top)`, made by `unset`
    /// on the layout's first use.
    pub(crate) fn levels(
        &self,
        config: HierConfig,
        top: usize,
        unset: impl FnOnce() -> LevelTables,
    ) -> Arc<LevelTables> {
        let mut layouts = self.layouts.lock().expect("level table lock poisoned");
        if let Some((_, tables)) = layouts.iter().find(|(key, _)| *key == (config, top)) {
            return Arc::clone(tables);
        }
        let tables = Arc::new(unset());
        layouts.push(((config, top), Arc::clone(&tables)));
        tables
    }

    /// How many indexes and level tables have been built so far. Each
    /// is built at most once, so this also counts the builds.
    pub fn filled(&self) -> usize {
        fn set<T>(locks: &[OnceLock<T>]) -> usize {
            locks.iter().filter(|lock| lock.get().is_some()).count()
        }
        let layouts = self.layouts.lock().expect("level table lock poisoned");
        self.clusters.get().map_or(0, |clusters| set(clusters))
            + usize::from(self.global.get().is_some())
            + layouts
                .iter()
                .flat_map(|(_, tables)| tables.iter())
                .map(|groups| set(groups))
                .sum::<usize>()
    }
}
