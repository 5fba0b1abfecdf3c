//! Graphviz DOT export of the physical network and the clustered
//! overlay — for inspecting what the pipeline built (the
//! paper's Figures 1 and 6, regenerable for any world).

use crate::overlay_system::ServiceOverlay;
use son_netsim::topology::NodeKind;
use std::fmt::Write as _;

/// Renders the physical transit-stub network as an undirected DOT
/// graph: transit nodes as boxes, stub nodes as circles, positions
/// pinned to the generator's plane.
pub fn physical_to_dot(overlay: &ServiceOverlay) -> String {
    let net = overlay.physical();
    let mut out = String::from("graph physical {\n  layout=neato;\n  node [fontsize=8];\n");
    for id in net.graph().node_ids() {
        let pos = net.positions()[id.index()];
        let shape = match net.kinds()[id.index()] {
            NodeKind::Transit { .. } => "box",
            NodeKind::Stub { .. } => "circle",
        };
        let _ = writeln!(
            out,
            "  n{} [shape={shape}, pos=\"{:.1},{:.1}!\", width=0.15, height=0.15, label=\"\"];",
            id.index(),
            pos[0] / 50.0,
            pos[1] / 50.0,
        );
    }
    for a in net.graph().node_ids() {
        for &(b, w) in net.graph().neighbors(a) {
            if a < b {
                let _ = writeln!(
                    out,
                    "  n{} -- n{} [label=\"{:.0}\", fontsize=6];",
                    a.index(),
                    b.index(),
                    w
                );
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Renders the clustered overlay as DOT: one subgraph cluster per HFC
/// cluster, border proxies doubly circled, border links labelled with
/// their predicted delay.
pub fn hfc_to_dot(overlay: &ServiceOverlay) -> String {
    use son_overlay::DelayModel;
    let hfc = overlay.hfc();
    let mut out = String::from("graph hfc {\n  node [fontsize=9];\n");
    for c in hfc.clusters() {
        let _ = writeln!(out, "  subgraph cluster_{} {{", c.index());
        let _ = writeln!(out, "    label=\"C{}\";", c.index());
        for &m in hfc.members(c) {
            let shape = if hfc.is_border(m) {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(out, "    p{} [shape={shape}];", m.index());
        }
        out.push_str("  }\n");
    }
    for i in hfc.clusters() {
        for j in hfc.clusters() {
            if i < j {
                let pair = hfc.border(i, j);
                let d = overlay.predicted_delays().delay(pair.local, pair.remote);
                let _ = writeln!(
                    out,
                    "  p{} -- p{} [style=bold, label=\"{:.0}\"];",
                    pair.local.index(),
                    pair.remote.index(),
                    d
                );
            }
        }
    }
    out.push_str("}\n");
    out
}

/// A plain-text summary of the clustered overlay (cluster membership,
/// borders, aggregate services) — the Figure 4 view for every node.
pub fn hfc_to_text(overlay: &ServiceOverlay) -> String {
    let hfc = overlay.hfc();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} proxies in {} clusters ({} border proxies)",
        overlay.proxy_count(),
        hfc.cluster_count(),
        hfc.all_border_proxies().len()
    );
    for c in hfc.clusters() {
        let members: Vec<String> = hfc
            .members(c)
            .iter()
            .map(|m| {
                if hfc.is_border(*m) {
                    format!("[{m}]")
                } else {
                    m.to_string()
                }
            })
            .collect();
        let mut aggregate = son_overlay::ServiceSet::new();
        for &m in hfc.members(c) {
            aggregate.merge(&overlay.services()[m.index()]);
        }
        let _ = writeln!(
            out,
            "  C{}: {} services={}",
            c.index(),
            members.join(" "),
            aggregate
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay_system::SonConfig;

    fn overlay() -> ServiceOverlay {
        ServiceOverlay::build(&SonConfig::small(3))
    }

    fn braces_balance(s: &str) -> bool {
        let mut depth = 0i64;
        for ch in s.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                return false;
            }
        }
        depth == 0
    }

    #[test]
    fn physical_dot_covers_all_nodes_and_edges() {
        let o = overlay();
        let dot = physical_to_dot(&o);
        assert!(braces_balance(&dot));
        assert!(dot.starts_with("graph physical {"));
        for id in o.physical().graph().node_ids() {
            assert!(dot.contains(&format!("n{} [", id.index())));
        }
        assert_eq!(
            dot.matches(" -- ").count(),
            o.physical().graph().edge_count()
        );
    }

    #[test]
    fn hfc_dot_has_one_subgraph_per_cluster() {
        let o = overlay();
        let dot = hfc_to_dot(&o);
        assert!(braces_balance(&dot));
        assert_eq!(
            dot.matches("subgraph cluster_").count(),
            o.hfc().cluster_count()
        );
        // Every border link appears once per cluster pair.
        let c = o.hfc().cluster_count();
        assert_eq!(dot.matches("style=bold").count(), c * (c - 1) / 2);
        for p in 0..o.proxy_count() {
            assert!(dot.contains(&format!("p{p} [")), "proxy {p} missing");
        }
    }

    #[test]
    fn text_summary_lists_every_cluster() {
        let o = overlay();
        let text = hfc_to_text(&o);
        for c in o.hfc().clusters() {
            assert!(text.contains(&format!("C{}:", c.index())));
        }
        assert!(text.contains("border proxies"));
    }
}
