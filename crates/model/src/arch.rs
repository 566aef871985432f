//! The architecture model: processors and communication links (paper §3.3).
//!
//! A processor owns one computation unit plus one communication unit per
//! connected link; communication units execute data transfers (*comms*)
//! with non-blocking send / blocking receive semantics. Links may be
//! point-to-point (two endpoints, the paper's preferred topology) or
//! multipoint buses (more than two endpoints).
//!
//! The architecture also precomputes **routes**: for every ordered pair of
//! distinct processors, the shortest chain of links (by hop count, ties
//! broken by link id) used to carry inter-processor communications,
//! store-and-forward through intermediate processors.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::ids::{LinkId, ProcId};

/// A processor vertex.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Processor {
    name: String,
}

impl Processor {
    /// The processor's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A communication link (point-to-point if it has exactly two endpoints,
/// multipoint otherwise).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    name: String,
    endpoints: Vec<ProcId>,
}

impl Link {
    /// The link's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The processors connected by this link (at least two, distinct).
    pub fn endpoints(&self) -> &[ProcId] {
        &self.endpoints
    }

    /// True if the link connects exactly two processors.
    pub fn is_point_to_point(&self) -> bool {
        self.endpoints.len() == 2
    }

    /// True if `p` is an endpoint of this link.
    pub fn connects(&self, p: ProcId) -> bool {
        self.endpoints.contains(&p)
    }
}

/// One hop of a route: traverse `link` from `from` to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hop {
    /// Link traversed by this hop.
    pub link: LinkId,
    /// Sending processor of the hop.
    pub from: ProcId,
    /// Receiving processor of the hop.
    pub to: ProcId,
}

/// Builder for [`Arch`]. Construct with [`Arch::builder`].
#[derive(Debug, Clone)]
pub struct ArchBuilder {
    name: String,
    procs: Vec<Processor>,
    links: Vec<Link>,
}

impl ArchBuilder {
    /// Adds a processor; returns its id.
    pub fn proc(&mut self, name: impl Into<String>) -> ProcId {
        let id = ProcId::from_index(self.procs.len());
        self.procs.push(Processor { name: name.into() });
        id
    }

    /// Adds a link connecting the given processors; returns its id.
    ///
    /// Point-to-point links have exactly two endpoints; buses have more.
    pub fn link(&mut self, name: impl Into<String>, endpoints: &[ProcId]) -> LinkId {
        let id = LinkId::from_index(self.links.len());
        self.links.push(Link {
            name: name.into(),
            endpoints: endpoints.to_vec(),
        });
        id
    }

    /// Validates and freezes the architecture, computing all-pairs routes.
    ///
    /// # Errors
    ///
    /// * [`ModelError::EmptyArch`] if there is no processor;
    /// * [`ModelError::DuplicateName`] / [`ModelError::InvalidName`];
    /// * [`ModelError::DegenerateLink`] for links with fewer than two
    ///   distinct endpoints (or out-of-range endpoints);
    /// * [`ModelError::Disconnected`] if some processor pair has no route.
    pub fn build(self) -> Result<Arch, ModelError> {
        if self.procs.is_empty() {
            return Err(ModelError::EmptyArch);
        }
        let mut seen = std::collections::HashSet::new();
        for p in &self.procs {
            if p.name.is_empty() || p.name.chars().any(|c| c.is_whitespace()) {
                return Err(ModelError::InvalidName {
                    name: p.name.clone(),
                });
            }
            if !seen.insert(p.name.as_str()) {
                return Err(ModelError::DuplicateName {
                    name: p.name.clone(),
                    kind: "processor",
                });
            }
        }
        let mut seen = std::collections::HashSet::new();
        for l in &self.links {
            if l.name.is_empty() || l.name.chars().any(|c| c.is_whitespace()) {
                return Err(ModelError::InvalidName {
                    name: l.name.clone(),
                });
            }
            if !seen.insert(l.name.as_str()) {
                return Err(ModelError::DuplicateName {
                    name: l.name.clone(),
                    kind: "link",
                });
            }
            let mut uniq: Vec<ProcId> = l.endpoints.clone();
            uniq.sort();
            uniq.dedup();
            if uniq.len() < 2 || uniq.len() != l.endpoints.len() {
                return Err(ModelError::DegenerateLink {
                    link: l.name.clone(),
                });
            }
            for &p in &l.endpoints {
                if p.index() >= self.procs.len() {
                    return Err(ModelError::DegenerateLink {
                        link: l.name.clone(),
                    });
                }
            }
        }
        let routes = compute_routes(&self.procs, &self.links)?;
        Ok(Arch {
            name: self.name,
            procs: self.procs,
            links: self.links,
            routes,
        })
    }
}

/// Adjacency over the processor/link graph as index pairs: for every link,
/// every ordered endpoint pair, in link-id order. Shared by the primary
/// route BFS below and the [`crate::RouteTable`] disjoint-path computation,
/// so both always explore neighbours in the same order (which keeps the
/// shortest flow path aligned with the primary route).
pub(crate) fn link_adjacency(proc_count: usize, links: &[Link]) -> Vec<Vec<(usize, usize)>> {
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); proc_count];
    for (li, l) in links.iter().enumerate() {
        for &a in &l.endpoints {
            for &b in &l.endpoints {
                if a != b {
                    adj[a.index()].push((li, b.index()));
                }
            }
        }
    }
    adj
}

/// All-pairs BFS over the processor/link graph. Deterministic: neighbors
/// are explored in link-id order, endpoint order.
fn compute_routes(procs: &[Processor], links: &[Link]) -> Result<Vec<Vec<Vec<Hop>>>, ModelError> {
    let n = procs.len();
    let adj = link_adjacency(n, links);
    let mut routes: Vec<Vec<Vec<Hop>>> = vec![vec![Vec::new(); n]; n];
    for src in 0..n {
        // BFS from src
        let mut prev: Vec<Option<Hop>> = vec![None; n];
        let mut dist = vec![usize::MAX; n];
        dist[src] = 0;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(ProcId::from_index(src));
        while let Some(u) = queue.pop_front() {
            for &(link, v) in &adj[u.index()] {
                let v = ProcId::from_index(v);
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    prev[v.index()] = Some(Hop {
                        link: LinkId::from_index(link),
                        from: u,
                        to: v,
                    });
                    queue.push_back(v);
                }
            }
        }
        for dst in 0..n {
            if dst == src {
                continue;
            }
            if dist[dst] == usize::MAX {
                return Err(ModelError::Disconnected {
                    a: procs[src].name.clone(),
                    b: procs[dst].name.clone(),
                });
            }
            let mut hops = Vec::with_capacity(dist[dst]);
            let mut cur = dst;
            while cur != src {
                let hop = prev[cur].expect("reached node has a predecessor hop");
                hops.push(hop);
                cur = hop.from.index();
            }
            hops.reverse();
            routes[src][dst] = hops;
        }
    }
    Ok(routes)
}

/// A validated architecture graph (immutable).
///
/// # Example
///
/// ```
/// use ftbar_model::Arch;
///
/// let mut b = Arch::builder("tri");
/// let p1 = b.proc("P1");
/// let p2 = b.proc("P2");
/// let p3 = b.proc("P3");
/// b.link("L12", &[p1, p2]);
/// b.link("L13", &[p1, p3]);
/// b.link("L23", &[p2, p3]);
/// let arch = b.build()?;
/// assert_eq!(arch.route(p1, p3).len(), 1);
/// # Ok::<(), ftbar_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Arch {
    name: String,
    procs: Vec<Processor>,
    links: Vec<Link>,
    /// routes[src][dst]: hops of the chosen shortest route (empty iff
    /// src == dst).
    routes: Vec<Vec<Vec<Hop>>>,
}

impl Arch {
    /// Starts building an architecture with the given name.
    pub fn builder(name: impl Into<String>) -> ArchBuilder {
        ArchBuilder {
            name: name.into(),
            procs: Vec::new(),
            links: Vec::new(),
        }
    }

    /// The architecture's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processors.
    pub fn proc_count(&self) -> usize {
        self.procs.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterates over processor ids.
    pub fn procs(&self) -> impl ExactSizeIterator<Item = ProcId> {
        (0..self.procs.len() as u32).map(ProcId)
    }

    /// Iterates over link ids.
    pub fn links(&self) -> impl ExactSizeIterator<Item = LinkId> {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// Returns a processor by id.
    pub fn proc(&self, id: ProcId) -> &Processor {
        &self.procs[id.index()]
    }

    /// Returns a link by id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Finds a processor by name.
    pub fn proc_by_name(&self, name: &str) -> Option<ProcId> {
        self.procs().find(|&p| self.proc(p).name() == name)
    }

    /// Finds a link by name.
    pub fn link_by_name(&self, name: &str) -> Option<LinkId> {
        self.links().find(|&l| self.link(l).name() == name)
    }

    /// The precomputed route from `src` to `dst` (empty iff `src == dst`).
    pub fn route(&self, src: ProcId, dst: ProcId) -> &[Hop] {
        &self.routes[src.index()][dst.index()]
    }

    /// True if every route is a single hop (fully connected, the paper's
    /// experimental topology).
    pub fn is_fully_connected(&self) -> bool {
        self.procs().all(|a| {
            self.procs()
                .all(|b| a == b || self.routes[a.index()][b.index()].len() == 1)
        })
    }

    /// Links incident to processor `p`, in id order.
    pub fn links_of(&self, p: ProcId) -> Vec<LinkId> {
        self.links().filter(|&l| self.link(l).connects(p)).collect()
    }

    /// The link adjacency as index pairs (see [`link_adjacency`]).
    pub(crate) fn link_adjacency(&self) -> Vec<Vec<(usize, usize)>> {
        link_adjacency(self.procs.len(), &self.links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Arch {
        let mut b = Arch::builder("tri");
        let p1 = b.proc("P1");
        let p2 = b.proc("P2");
        let p3 = b.proc("P3");
        b.link("L12", &[p1, p2]);
        b.link("L13", &[p1, p3]);
        b.link("L23", &[p2, p3]);
        b.build().unwrap()
    }

    #[test]
    fn triangle_routes_are_direct() {
        let a = triangle();
        assert!(a.is_fully_connected());
        for src in a.procs() {
            for dst in a.procs() {
                if src == dst {
                    assert!(a.route(src, dst).is_empty());
                } else {
                    let r = a.route(src, dst);
                    assert_eq!(r.len(), 1);
                    assert_eq!(r[0].from, src);
                    assert_eq!(r[0].to, dst);
                    assert!(a.link(r[0].link).connects(src));
                    assert!(a.link(r[0].link).connects(dst));
                }
            }
        }
    }

    #[test]
    fn chain_routes_multi_hop() {
        let mut b = Arch::builder("chain");
        let p1 = b.proc("P1");
        let p2 = b.proc("P2");
        let p3 = b.proc("P3");
        b.link("L12", &[p1, p2]);
        b.link("L23", &[p2, p3]);
        let a = b.build().unwrap();
        assert!(!a.is_fully_connected());
        let r = a.route(p1, p3);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].from, p1);
        assert_eq!(r[0].to, p2);
        assert_eq!(r[1].from, p2);
        assert_eq!(r[1].to, p3);
    }

    #[test]
    fn bus_connects_everyone_in_one_hop() {
        let mut b = Arch::builder("bus");
        let ps: Vec<_> = (0..4).map(|i| b.proc(format!("P{i}"))).collect();
        b.link("BUS", &ps);
        let a = b.build().unwrap();
        assert!(a.is_fully_connected());
        assert!(!a.link(LinkId(0)).is_point_to_point());
        assert_eq!(a.route(ps[0], ps[3]).len(), 1);
    }

    #[test]
    fn disconnected_rejected() {
        let mut b = Arch::builder("x");
        b.proc("P1");
        b.proc("P2");
        assert!(matches!(b.build(), Err(ModelError::Disconnected { .. })));
    }

    #[test]
    fn single_proc_is_valid() {
        let mut b = Arch::builder("uni");
        b.proc("P1");
        let a = b.build().unwrap();
        assert_eq!(a.proc_count(), 1);
        assert!(a.is_fully_connected());
    }

    #[test]
    fn degenerate_links_rejected() {
        let mut b = Arch::builder("x");
        let p1 = b.proc("P1");
        b.proc("P2");
        b.link("L", &[p1]);
        assert!(matches!(b.build(), Err(ModelError::DegenerateLink { .. })));

        let mut b = Arch::builder("x");
        let p1 = b.proc("P1");
        b.proc("P2");
        b.link("L", &[p1, p1]);
        assert!(matches!(b.build(), Err(ModelError::DegenerateLink { .. })));

        let mut b = Arch::builder("x");
        let p1 = b.proc("P1");
        b.link("L", &[p1, ProcId(9)]);
        assert!(matches!(b.build(), Err(ModelError::DegenerateLink { .. })));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = Arch::builder("x");
        b.proc("P");
        b.proc("P");
        assert!(matches!(
            b.build(),
            Err(ModelError::DuplicateName {
                kind: "processor",
                ..
            })
        ));

        let mut b = Arch::builder("x");
        let p1 = b.proc("P1");
        let p2 = b.proc("P2");
        b.link("L", &[p1, p2]);
        b.link("L", &[p1, p2]);
        assert!(matches!(
            b.build(),
            Err(ModelError::DuplicateName { kind: "link", .. })
        ));
    }

    #[test]
    fn lookup_by_name() {
        let a = triangle();
        assert_eq!(a.proc_by_name("P2"), Some(ProcId(1)));
        assert_eq!(a.link_by_name("L23"), Some(LinkId(2)));
        assert!(a.proc_by_name("nope").is_none());
    }

    #[test]
    fn links_of_proc() {
        let a = triangle();
        let p1 = a.proc_by_name("P1").unwrap();
        let names: Vec<_> = a
            .links_of(p1)
            .into_iter()
            .map(|l| a.link(l).name().to_owned())
            .collect();
        assert_eq!(names, vec!["L12", "L13"]);
    }

    #[test]
    fn empty_arch_rejected() {
        assert!(matches!(
            Arch::builder("x").build(),
            Err(ModelError::EmptyArch)
        ));
    }
}
