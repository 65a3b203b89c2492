//! The SDFG-lite intermediate representation (Fig. 3 of the paper) and the
//! graph transformations of Figs. 5–6.
//!
//! Nodes are data containers (access nodes), tasklets (fine-grained
//! computation), and parametric map scopes; memlet edges carry symbolic
//! per-execution volumes. States sequence dataflow under control
//! dependencies. The representation serves two roles in this
//! reproduction: *analysis* — deriving the data-movement expressions the
//! paper uses to discover the communication-avoiding variant — and
//! *execution* — [`crate::lower`] turns the memlets into a dependency
//! DAG that `omen-sched` expands over the concrete point grids.

use crate::symbolic::Expr;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Typed error for structural validation and graph transformations.
///
/// Every failure mode of the IR — malformed scopes, out-of-range edges,
/// and transformations that would change program meaning — is a distinct
/// variant, so callers (and tests) can match on the cause instead of
/// string-scraping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The node was expected to be a [`Node::Map`].
    NotAMap {
        /// Offending node index.
        node: usize,
    },
    /// A map body refers past the end of the node arena.
    BodyOutOfRange {
        /// The map whose body is malformed.
        map: usize,
        /// The out-of-range child index.
        child: usize,
    },
    /// A map lists itself in its own body.
    SelfContainingMap {
        /// Offending map index.
        map: usize,
    },
    /// A node appears in the body of two different maps.
    DoubleOwnership {
        /// The doubly-owned node.
        node: usize,
        /// The first claiming map.
        first: usize,
        /// The second claiming map.
        second: usize,
    },
    /// A memlet's target is past the end of the node arena.
    MemletOutOfRange {
        /// Index of the memlet in the state's memlet list.
        memlet: usize,
        /// Its out-of-range target node.
        target: usize,
    },
    /// Map fission requires at least two children to split.
    FissionTooSmall {
        /// The map that is too small to fission.
        map: usize,
    },
    /// Map fusion requires identical iteration ranges.
    RangeMismatch {
        /// First map of the attempted fusion.
        a: usize,
        /// Second map of the attempted fusion.
        b: usize,
    },
    /// Fusing the two maps would break a memlet's producer/consumer
    /// ordering: a node outside the pair consumes data the first map
    /// produces and produces data the second map consumes, so it must
    /// run *between* them — impossible once they share one scope.
    FusionReordersDataflow {
        /// The intermediate node that sits on the `a → via → b` path.
        via: usize,
        /// Data written by the first map and read by `via`.
        carried: String,
        /// Data written by `via` and read by the second map.
        produced: String,
    },
    /// A task reads data whose only producers are scheduled after it
    /// (surfaced by lowering, where schedule order is arena order).
    UseBeforeDef {
        /// The data container read too early.
        data: String,
        /// Schedule position of the offending reader.
        task: usize,
    },
    /// An error inside one state of an [`Sdfg`].
    InState {
        /// Index of the failing state.
        state: usize,
        /// The underlying error.
        error: Box<GraphError>,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NotAMap { node } => write!(f, "node {node} is not a map"),
            GraphError::BodyOutOfRange { map, child } => {
                write!(f, "map {map} body index {child} out of range")
            }
            GraphError::SelfContainingMap { map } => write!(f, "map {map} contains itself"),
            GraphError::DoubleOwnership {
                node,
                first,
                second,
            } => write!(f, "node {node} owned by maps {first} and {second}"),
            GraphError::MemletOutOfRange { memlet, target } => {
                write!(f, "memlet {memlet} target {target} out of range")
            }
            GraphError::FissionTooSmall { map } => {
                write!(f, "fission of map {map} needs at least two children")
            }
            GraphError::RangeMismatch { a, b } => {
                write!(f, "fusion of maps {a} and {b} requires identical ranges")
            }
            GraphError::FusionReordersDataflow {
                via,
                carried,
                produced,
            } => write!(
                f,
                "fusion would reorder dataflow: node {via} consumes \"{carried}\" \
                 from the first map and produces \"{produced}\" for the second"
            ),
            GraphError::UseBeforeDef { data, task } => {
                write!(f, "task {task} reads \"{data}\" before any producer runs")
            }
            GraphError::InState { state, error } => write!(f, "state {state}: {error}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::InState { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// A node of a dataflow state.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// A data container (array) endpoint.
    Access {
        /// Array name.
        data: String,
    },
    /// Fine-grained computation.
    Tasklet {
        /// Label.
        name: String,
    },
    /// A parametric parallel scope over named iteration variables with
    /// symbolic range sizes.
    Map {
        /// Label.
        name: String,
        /// `(variable, range size)` pairs, outermost first.
        ranges: Vec<(String, Expr)>,
        /// Nodes inside the scope (indices into the state's arena).
        body: Vec<usize>,
        /// Marks the map whose iterations are distributed across ranks.
        distributed: bool,
    },
}

/// A data-movement edge.
#[derive(Clone, Debug, PartialEq)]
pub struct Memlet {
    /// Array moved.
    pub data: String,
    /// Elements moved per execution of the innermost enclosing scope.
    pub volume: Expr,
    /// `true` if the subset accessed depends only on iteration variables
    /// *owned by the local rank* after distribution (no remote traffic).
    pub local_after_distribution: bool,
    /// Direction: `false` carries `data` *into* node `to` (a read);
    /// `true` means node `to` *produces* `data` (a write). Lowering
    /// turns write→read pairs on the same container into dependency
    /// edges.
    pub write: bool,
    /// The node this memlet attaches to (index into the state arena).
    pub to: usize,
}

impl Memlet {
    /// A read memlet: `data` flows into node `to`.
    pub fn read(data: &str, volume: Expr, to: usize) -> Memlet {
        Memlet {
            data: data.to_string(),
            volume,
            local_after_distribution: false,
            write: false,
            to,
        }
    }

    /// A write memlet: node `to` produces `data`.
    pub fn write(data: &str, volume: Expr, to: usize) -> Memlet {
        Memlet {
            data: data.to_string(),
            volume,
            local_after_distribution: false,
            write: true,
            to,
        }
    }

    /// Marks the memlet rank-local after distribution (builder-style).
    pub fn local(mut self) -> Memlet {
        self.local_after_distribution = true;
        self
    }
}

/// One dataflow state.
#[derive(Clone, Debug, Default)]
pub struct State {
    /// Label.
    pub name: String,
    /// Node arena; `Node::Map` bodies refer into it.
    pub nodes: Vec<Node>,
    /// Memlets entering scopes/tasklets.
    pub memlets: Vec<Memlet>,
}

/// A stateful dataflow multigraph.
#[derive(Clone, Debug, Default)]
pub struct Sdfg {
    /// Program name.
    pub name: String,
    /// States in control-flow order.
    pub states: Vec<State>,
}

impl State {
    /// Adds a node, returning its index.
    pub fn add_node(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Adds a memlet.
    pub fn add_memlet(&mut self, m: Memlet) {
        self.memlets.push(m);
    }

    /// The map node marked `distributed`, if any.
    pub fn distributed_map(&self) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| matches!(n, Node::Map { distributed, .. } if *distributed))
    }

    /// Iteration-space size of map `idx` (product of its range sizes).
    pub fn map_extent(&self, idx: usize) -> Expr {
        match &self.nodes[idx] {
            Node::Map { ranges, .. } => {
                Expr::product(&ranges.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>())
            }
            _ => panic!("node {idx} is not a map"),
        }
    }

    /// Total data movement of the state: for each memlet, its volume times
    /// the extent of every map that (transitively) contains its target.
    pub fn total_movement(&self) -> Expr {
        let containing = self.containing_maps();
        let mut total = Expr::Const(0.0);
        for m in &self.memlets {
            let mut vol = m.volume.clone();
            for &map_idx in &containing[m.to] {
                vol = vol * self.map_extent(map_idx);
            }
            total = total + vol;
        }
        total
    }

    /// *Remote* data movement after distributing the `distributed` map:
    /// memlets marked `local_after_distribution` cost nothing; the rest
    /// keep their full multiplied volume.
    pub fn distributed_movement(&self) -> Expr {
        let containing = self.containing_maps();
        let mut total = Expr::Const(0.0);
        for m in &self.memlets {
            if m.local_after_distribution {
                continue;
            }
            let mut vol = m.volume.clone();
            for &map_idx in &containing[m.to] {
                vol = vol * self.map_extent(map_idx);
            }
            total = total + vol;
        }
        total
    }

    /// For each node, the maps containing it (transitively).
    pub(crate) fn containing_maps(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Node::Map { body, .. } = node {
                // Direct containment.
                let mut stack: Vec<usize> = body.clone();
                while let Some(child) = stack.pop() {
                    out[child].push(idx);
                    if let Node::Map { body: inner, .. } = &self.nodes[child] {
                        stack.extend(inner.iter().copied());
                    }
                }
            }
        }
        out
    }

    /// The node plus every node transitively inside its map scope.
    fn scope_nodes(&self, idx: usize) -> BTreeSet<usize> {
        let mut scope = BTreeSet::new();
        let mut stack = vec![idx];
        while let Some(n) = stack.pop() {
            if scope.insert(n) {
                if let Node::Map { body, .. } = &self.nodes[n] {
                    stack.extend(body.iter().copied());
                }
            }
        }
        scope
    }

    /// Data containers written (resp. read) by memlets attached to any
    /// node in `scope`.
    fn scope_data(&self, scope: &BTreeSet<usize>, write: bool) -> BTreeSet<&str> {
        self.memlets
            .iter()
            .filter(|m| m.write == write && scope.contains(&m.to))
            .map(|m| m.data.as_str())
            .collect()
    }

    /// Validates structural invariants: body indices in range, no node in
    /// two map bodies, memlet targets in range.
    pub fn validate(&self) -> Result<(), GraphError> {
        let mut owner: HashMap<usize, usize> = HashMap::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Node::Map { body, .. } = node {
                for &child in body {
                    if child >= self.nodes.len() {
                        return Err(GraphError::BodyOutOfRange { map: idx, child });
                    }
                    if child == idx {
                        return Err(GraphError::SelfContainingMap { map: idx });
                    }
                    if let Some(prev) = owner.insert(child, idx) {
                        return Err(GraphError::DoubleOwnership {
                            node: child,
                            first: prev,
                            second: idx,
                        });
                    }
                }
            }
        }
        for (i, m) in self.memlets.iter().enumerate() {
            if m.to >= self.nodes.len() {
                return Err(GraphError::MemletOutOfRange {
                    memlet: i,
                    target: m.to,
                });
            }
        }
        Ok(())
    }
}

impl Sdfg {
    /// Creates an empty SDFG.
    pub fn new(name: &str) -> Sdfg {
        Sdfg {
            name: name.to_string(),
            states: Vec::new(),
        }
    }

    /// Appends a state, returning its index.
    pub fn add_state(&mut self, state: State) -> usize {
        self.states.push(state);
        self.states.len() - 1
    }

    /// Validates all states.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (i, s) in self.states.iter().enumerate() {
            s.validate().map_err(|e| GraphError::InState {
                state: i,
                error: Box::new(e),
            })?;
        }
        Ok(())
    }

    /// Node count across states (the paper quotes 2,015 nodes for the
    /// transformed production SDFG).
    pub fn node_count(&self) -> usize {
        self.states.iter().map(|s| s.nodes.len()).sum()
    }
}

// ---------------------------------------------------------------------
// Transformations
// ---------------------------------------------------------------------

/// Map tiling: splits the ranges of map `idx` in `state` into
/// outer (distributed) tiles of the given symbolic tile counts and an
/// inner remainder map. The paper's decomposition change (Fig. 5) is
/// exactly a re-tiling of the SSE map.
pub fn map_tiling(
    state: &mut State,
    idx: usize,
    tile_counts: &[(&str, Expr)],
) -> Result<usize, GraphError> {
    let (name, ranges, body, distributed) = match &state.nodes[idx] {
        Node::Map {
            name,
            ranges,
            body,
            distributed,
        } => (name.clone(), ranges.clone(), body.clone(), *distributed),
        _ => return Err(GraphError::NotAMap { node: idx }),
    };
    // Outer map iterates over tiles; inner over elements within a tile.
    let mut outer_ranges = Vec::new();
    let mut inner_ranges = Vec::new();
    for (var, size) in &ranges {
        if let Some((_, tiles)) = tile_counts.iter().find(|(v, _)| v == var) {
            outer_ranges.push((format!("{var}_tile"), tiles.clone()));
            inner_ranges.push((var.clone(), size.clone() / tiles.clone()));
        } else {
            inner_ranges.push((var.clone(), size.clone()));
        }
    }
    // Rewrite in place: `idx` becomes the inner map; a new outer map wraps it.
    state.nodes[idx] = Node::Map {
        name: format!("{name}_inner"),
        ranges: inner_ranges,
        body,
        distributed: false,
    };
    let outer = state.add_node(Node::Map {
        name: format!("{name}_tiles"),
        ranges: outer_ranges,
        body: vec![idx],
        distributed,
    });
    Ok(outer)
}

/// Map fission (Fig. 6 step ❶): splits a map containing `tasklets` into
/// one map per tasklet, materializing a transient array between
/// consecutive stages. Returns the indices of the new maps.
pub fn map_fission(
    state: &mut State,
    idx: usize,
    transient_volume: Expr,
) -> Result<Vec<usize>, GraphError> {
    let (name, ranges, body, distributed) = match &state.nodes[idx] {
        Node::Map {
            name,
            ranges,
            body,
            distributed,
        } => (name.clone(), ranges.clone(), body.clone(), *distributed),
        _ => return Err(GraphError::NotAMap { node: idx }),
    };
    if body.len() < 2 {
        return Err(GraphError::FissionTooSmall { map: idx });
    }
    let mut new_maps = Vec::new();
    for (stage, child) in body.iter().enumerate() {
        let map_idx = if stage == 0 {
            state.nodes[idx] = Node::Map {
                name: format!("{name}_s0"),
                ranges: ranges.clone(),
                body: vec![*child],
                distributed,
            };
            idx
        } else {
            // Transient access node between stages.
            let t = state.add_node(Node::Access {
                data: format!("{name}_transient{stage}"),
            });
            state.add_memlet(
                Memlet::read(
                    &format!("{name}_transient{stage}"),
                    transient_volume.clone(),
                    t,
                )
                .local(),
            );
            state.add_node(Node::Map {
                name: format!("{name}_s{stage}"),
                ranges: ranges.clone(),
                body: vec![*child],
                distributed: false,
            })
        };
        new_maps.push(map_idx);
    }
    Ok(new_maps)
}

/// Map fusion (Fig. 6 step ❹): merges two maps with identical ranges into
/// one scope (the inverse of fission, minus the transient).
///
/// Rejects the fusion when a node outside the pair sits on a dataflow
/// path `a → via → b` — i.e. it consumes data `a` produces and produces
/// data `b` consumes. Fusing then would schedule `b`'s body in the same
/// scope instance as `a`'s, before `via` can run, silently reordering the
/// producer/consumer chain the memlets encode.
pub fn map_fusion(state: &mut State, a: usize, b: usize) -> Result<usize, GraphError> {
    let (ranges_a, mut body_a, name_a, dist_a) = match &state.nodes[a] {
        Node::Map {
            ranges,
            body,
            name,
            distributed,
        } => (ranges.clone(), body.clone(), name.clone(), *distributed),
        _ => return Err(GraphError::NotAMap { node: a }),
    };
    let (ranges_b, body_b) = match &state.nodes[b] {
        Node::Map { ranges, body, .. } => (ranges.clone(), body.clone()),
        _ => return Err(GraphError::NotAMap { node: b }),
    };
    if ranges_a != ranges_b {
        return Err(GraphError::RangeMismatch { a, b });
    }
    // Producer/consumer ordering check across the memlets.
    let scope_a = state.scope_nodes(a);
    let scope_b = state.scope_nodes(b);
    let written_by_a = state.scope_data(&scope_a, true);
    let read_by_b = state.scope_data(&scope_b, false);
    for via in 0..state.nodes.len() {
        if scope_a.contains(&via) || scope_b.contains(&via) {
            continue;
        }
        let carried = state
            .memlets
            .iter()
            .find(|m| !m.write && m.to == via && written_by_a.contains(m.data.as_str()));
        let produced = state
            .memlets
            .iter()
            .find(|m| m.write && m.to == via && read_by_b.contains(m.data.as_str()));
        if let (Some(c), Some(p)) = (carried, produced) {
            return Err(GraphError::FusionReordersDataflow {
                via,
                carried: c.data.clone(),
                produced: p.data.clone(),
            });
        }
    }
    body_a.extend(body_b);
    state.nodes[a] = Node::Map {
        name: format!("{name_a}_fused"),
        ranges: ranges_a,
        body: body_a,
        distributed: dist_a,
    };
    // Neutralize the second map (empty scope).
    state.nodes[b] = Node::Map {
        name: "(fused away)".to_string(),
        ranges: Vec::new(),
        body: Vec::new(),
        distributed: false,
    };
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::{bindings, c, p};

    fn simple_state() -> State {
        // map (i: N) { tasklet reading A[i] (1 element) }
        let mut s = State {
            name: "s".into(),
            ..Default::default()
        };
        let t = s.add_node(Node::Tasklet { name: "t".into() });
        let _a = s.add_node(Node::Access { data: "A".into() });
        let m = s.add_node(Node::Map {
            name: "m".into(),
            ranges: vec![("i".into(), p("N"))],
            body: vec![t],
            distributed: true,
        });
        s.add_memlet(Memlet::read("A", c(1.0), t));
        let _ = m;
        s
    }

    #[test]
    fn movement_multiplies_by_map_extent() {
        let s = simple_state();
        s.validate().unwrap();
        let b = bindings(&[("N", 100.0)]);
        assert_eq!(s.total_movement().eval(&b), 100.0);
    }

    #[test]
    fn tiling_preserves_total_movement() {
        let mut s = simple_state();
        let m = s
            .nodes
            .iter()
            .position(|n| matches!(n, Node::Map { .. }))
            .unwrap();
        map_tiling(&mut s, m, &[("i", p("T"))]).unwrap();
        s.validate().unwrap();
        let b = bindings(&[("N", 100.0), ("T", 4.0)]);
        // (N/T per inner) × T tiles = N.
        assert_eq!(s.total_movement().eval(&b), 100.0);
    }

    #[test]
    fn local_memlets_drop_from_distributed_movement() {
        let mut s = simple_state();
        // A second, rank-local memlet.
        let t2 = s.add_node(Node::Tasklet { name: "t2".into() });
        if let Node::Map { body, .. } = &mut s.nodes[2] {
            body.push(t2);
        }
        s.add_memlet(Memlet::read("B", c(2.0), t2).local());
        let b = bindings(&[("N", 10.0)]);
        assert_eq!(s.total_movement().eval(&b), 10.0 + 20.0);
        assert_eq!(s.distributed_movement().eval(&b), 10.0);
    }

    #[test]
    fn fission_splits_and_fusion_merges() {
        let mut s = State {
            name: "s".into(),
            ..Default::default()
        };
        let t1 = s.add_node(Node::Tasklet { name: "t1".into() });
        let t2 = s.add_node(Node::Tasklet { name: "t2".into() });
        let m = s.add_node(Node::Map {
            name: "m".into(),
            ranges: vec![("i".into(), p("N"))],
            body: vec![t1, t2],
            distributed: false,
        });
        let maps = map_fission(&mut s, m, c(1.0)).unwrap();
        assert_eq!(maps.len(), 2);
        s.validate().unwrap();
        // Each stage carries one tasklet.
        for &mi in &maps {
            if let Node::Map { body, .. } = &s.nodes[mi] {
                assert_eq!(body.len(), 1);
            }
        }
        // Fuse back.
        let fused = map_fusion(&mut s, maps[0], maps[1]).unwrap();
        if let Node::Map { body, .. } = &s.nodes[fused] {
            assert_eq!(body.len(), 2);
        }
        s.validate().unwrap();
    }

    #[test]
    fn fusion_rejects_intermediate_producer_consumer() {
        // map a { t1 writes X }   n reads X, writes Y   map b { t2 reads Y }
        // Fusing a and b would run t2 before n can produce Y.
        let mut s = State {
            name: "s".into(),
            ..Default::default()
        };
        let t1 = s.add_node(Node::Tasklet { name: "t1".into() });
        let n = s.add_node(Node::Tasklet { name: "mid".into() });
        let t2 = s.add_node(Node::Tasklet { name: "t2".into() });
        let a = s.add_node(Node::Map {
            name: "a".into(),
            ranges: vec![("i".into(), p("N"))],
            body: vec![t1],
            distributed: false,
        });
        let b = s.add_node(Node::Map {
            name: "b".into(),
            ranges: vec![("i".into(), p("N"))],
            body: vec![t2],
            distributed: false,
        });
        s.add_memlet(Memlet::write("X", c(1.0), t1));
        s.add_memlet(Memlet::read("X", c(1.0), n));
        s.add_memlet(Memlet::write("Y", c(1.0), n));
        s.add_memlet(Memlet::read("Y", c(1.0), t2));
        s.validate().unwrap();
        let err = map_fusion(&mut s, a, b).expect_err("must reject reordering fusion");
        assert_eq!(
            err,
            GraphError::FusionReordersDataflow {
                via: n,
                carried: "X".into(),
                produced: "Y".into(),
            }
        );
        // The graph is untouched on rejection.
        if let Node::Map { body, .. } = &s.nodes[a] {
            assert_eq!(body, &vec![t1]);
        }
        // A direct producer/consumer pair (no intermediate) still fuses.
        let mut ok = State {
            name: "ok".into(),
            ..Default::default()
        };
        let p1 = ok.add_node(Node::Tasklet { name: "p".into() });
        let c1 = ok.add_node(Node::Tasklet { name: "c".into() });
        let ma = ok.add_node(Node::Map {
            name: "a".into(),
            ranges: vec![("i".into(), p("N"))],
            body: vec![p1],
            distributed: false,
        });
        let mb = ok.add_node(Node::Map {
            name: "b".into(),
            ranges: vec![("i".into(), p("N"))],
            body: vec![c1],
            distributed: false,
        });
        ok.add_memlet(Memlet::write("T", c(1.0), p1));
        ok.add_memlet(Memlet::read("T", c(1.0), c1));
        map_fusion(&mut ok, ma, mb).expect("direct chain fuses");
    }

    #[test]
    fn typed_errors_render_and_match() {
        let mut s = simple_state();
        let err = map_tiling(&mut s, 0, &[]).expect_err("tasklet is not a map");
        assert_eq!(err, GraphError::NotAMap { node: 0 });
        assert_eq!(err.to_string(), "node 0 is not a map");
        let err = map_fission(&mut s, 2, c(1.0)).expect_err("single child");
        assert_eq!(err, GraphError::FissionTooSmall { map: 2 });
        // Sdfg::validate wraps with the state index and keeps the source.
        let mut bad = State::default();
        bad.add_memlet(Memlet::read("A", c(1.0), 7));
        let mut g = Sdfg::new("g");
        g.add_state(simple_state());
        g.add_state(bad);
        let err = g.validate().expect_err("memlet out of range");
        assert!(matches!(err, GraphError::InState { state: 1, .. }));
        assert_eq!(err.to_string(), "state 1: memlet 0 target 7 out of range");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn validation_catches_double_ownership() {
        let mut s = State {
            name: "bad".into(),
            ..Default::default()
        };
        let t = s.add_node(Node::Tasklet { name: "t".into() });
        s.add_node(Node::Map {
            name: "m1".into(),
            ranges: vec![],
            body: vec![t],
            distributed: false,
        });
        s.add_node(Node::Map {
            name: "m2".into(),
            ranges: vec![],
            body: vec![t],
            distributed: false,
        });
        assert!(matches!(
            s.validate(),
            Err(GraphError::DoubleOwnership { node: 0, .. })
        ));
    }

    #[test]
    fn sdfg_counts_nodes() {
        let mut g = Sdfg::new("test");
        g.add_state(simple_state());
        g.add_state(simple_state());
        assert_eq!(g.node_count(), 6);
        g.validate().unwrap();
    }
}
