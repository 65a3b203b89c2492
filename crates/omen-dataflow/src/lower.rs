//! Lowering: from the SDFG-lite IR to an executable task schedule.
//!
//! The paper's thesis is that the graph *is* the program: tasklets name
//! computations, memlets carry every byte that moves. This module makes
//! that literal for the reproduction. [`lower_sdfg`] flattens an
//! [`Sdfg`]'s tasklets (with their enclosing parametric maps) into
//! [`TaskSpec`]s in schedule order and converts write→read memlet pairs on
//! the same container into dependency [`edges`](LoweredDag::edges), which
//! `omen-sched` expands over the concrete point grids.
//!
//! The lowering is pure analysis: binding task names to real kernels
//! (RGF solves, the SSE kernel) happens downstream in `omen-sched`, so
//! this crate stays dependency-free.

use crate::graph::{GraphError, Node, Sdfg, State};
use std::collections::BTreeMap;

/// A map scope enclosing a lowered task, outermost first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnclosingMap {
    /// The map's label (e.g. `electron_points`).
    pub name: String,
    /// Its iteration variables, outermost first (e.g. `["kz", "E"]`).
    pub vars: Vec<String>,
}

/// One tasklet flattened out of the graph, with the dataflow facts the
/// runtime needs: what it reads, what it writes, and the parametric
/// scopes it is replicated over.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Index of the owning state in the [`Sdfg`].
    pub state: usize,
    /// Node index of the tasklet within its state arena.
    pub node: usize,
    /// Tasklet label — the name `omen-sched` binds to a real kernel.
    pub name: String,
    /// Enclosing map scopes, outermost first.
    pub maps: Vec<EnclosingMap>,
    /// Data containers read (memlets with `write == false`).
    pub reads: Vec<String>,
    /// Data containers written (memlets with `write == true`).
    pub writes: Vec<String>,
}

/// The executable lowering of an [`Sdfg`]: tasks in schedule order and
/// their dependency edges.
#[derive(Clone, Debug, Default)]
pub struct LoweredDag {
    /// Tasks in schedule (state, then arena) order.
    pub tasks: Vec<TaskSpec>,
    /// `(producer, consumer)` schedule positions: the consumer reads (or
    /// overwrites) a container the producer writes. Edges always point
    /// forward, so the task order is already a topological order.
    pub edges: Vec<(usize, usize)>,
}

impl LoweredDag {
    /// Dependencies of task `t` (producers it must wait for).
    pub fn deps_of(&self, t: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter(|&&(_, c)| c == t)
            .map(|&(p, _)| p)
            .collect()
    }
}

/// Lowers a single state. Equivalent to wrapping it in a one-state
/// [`Sdfg`] and calling [`lower_sdfg`].
pub fn lower_state(state: &State) -> Result<LoweredDag, GraphError> {
    state.validate()?;
    let mut dag = LoweredDag::default();
    collect_tasks(state, 0, &mut dag.tasks);
    finish(dag)
}

/// Lowers every state of the SDFG into one schedule, states in
/// control-flow order. Containers written in one state and read in a
/// later one (e.g. `G` produced by the GF state, consumed by SSE) become
/// cross-state dependency edges by name.
pub fn lower_sdfg(g: &Sdfg) -> Result<LoweredDag, GraphError> {
    g.validate()?;
    let mut dag = LoweredDag::default();
    for (si, s) in g.states.iter().enumerate() {
        collect_tasks(s, si, &mut dag.tasks);
    }
    finish(dag)
}

/// Flattens the tasklets of one state into `out` in arena order.
fn collect_tasks(state: &State, state_idx: usize, out: &mut Vec<TaskSpec>) {
    // Direct owner of each node, for reconstructing the scope chain.
    let mut owner = vec![usize::MAX; state.nodes.len()];
    for (idx, node) in state.nodes.iter().enumerate() {
        if let Node::Map { body, .. } = node {
            for &child in body {
                owner[child] = idx;
            }
        }
    }
    for (ni, node) in state.nodes.iter().enumerate() {
        let Node::Tasklet { name } = node else {
            continue;
        };
        // Walk owners inward-out, then reverse for outermost-first.
        let mut maps = Vec::new();
        let mut scope_idxs = Vec::new();
        let mut cur = ni;
        while owner[cur] != usize::MAX {
            cur = owner[cur];
            scope_idxs.push(cur);
            if let Node::Map { name, ranges, .. } = &state.nodes[cur] {
                maps.push(EnclosingMap {
                    name: name.clone(),
                    vars: ranges.iter().map(|(v, _)| v.clone()).collect(),
                });
            }
        }
        maps.reverse();
        // Memlets attach to the tasklet itself or to any enclosing scope
        // boundary; either way the data is visible to this task.
        let attached = |to: usize| to == ni || scope_idxs.contains(&to);
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for m in &state.memlets {
            if attached(m.to) {
                let list = if m.write { &mut writes } else { &mut reads };
                if !list.contains(&m.data) {
                    list.push(m.data.clone());
                }
            }
        }
        out.push(TaskSpec {
            state: state_idx,
            node: ni,
            name: name.clone(),
            maps,
            reads,
            writes,
        });
    }
}

/// Derives the edges of the collected tasks.
fn finish(mut dag: LoweredDag) -> Result<LoweredDag, GraphError> {
    // Writers and readers per container, in schedule order.
    let mut writers: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut readers: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (t, task) in dag.tasks.iter().enumerate() {
        for w in &task.writes {
            writers.entry(w).or_default().push(t);
        }
        for r in &task.reads {
            readers.entry(r).or_default().push(t);
        }
    }
    let mut edges = Vec::new();
    for (&data, ws) in &writers {
        // RAW: every earlier writer feeds every later reader. A reader
        // scheduled before all producers is a use-before-def bug.
        for &r in readers.get(data).map(Vec::as_slice).unwrap_or(&[]) {
            if ws.iter().all(|&w| w >= r) {
                return Err(GraphError::UseBeforeDef {
                    data: data.to_string(),
                    task: r,
                });
            }
            for &w in ws.iter().filter(|&&w| w < r) {
                edges.push((w, r));
            }
        }
        // WAW: serialize successive writers of the same container.
        for pair in ws.windows(2) {
            edges.push((pair[0], pair[1]));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    dag.edges = edges;
    Ok(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Memlet, Node, State};
    use crate::omen_graphs::simulation_sdfg;
    use crate::symbolic::{c, p};

    #[test]
    fn simulation_sdfg_lowers_to_gf_sse_chain() {
        let dag = lower_sdfg(&simulation_sdfg()).unwrap();
        let names: Vec<&str> = dag.tasks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["RGF_electrons", "RGF_phonons", "sse_kernel"]);
        // The electron task carries its parametric scope for expansion.
        assert_eq!(dag.tasks[0].maps.len(), 1);
        assert_eq!(dag.tasks[0].maps[0].name, "electron_points");
        assert_eq!(dag.tasks[0].maps[0].vars, ["kz", "E"]);
        // G and D flow from the GF state into the SSE state.
        assert!(dag.edges.contains(&(0, 2)), "G: RGF_electrons -> sse");
        assert!(dag.edges.contains(&(1, 2)), "D: RGF_phonons -> sse");
        assert_eq!(dag.deps_of(2), vec![0, 1]);
    }

    #[test]
    fn use_before_def_is_rejected() {
        let mut s = State {
            name: "bad".into(),
            ..Default::default()
        };
        let consumer = s.add_node(Node::Tasklet { name: "c".into() });
        let producer = s.add_node(Node::Tasklet { name: "p".into() });
        s.add_memlet(Memlet::read("T", c(1.0), consumer));
        s.add_memlet(Memlet::write("T", c(1.0), producer));
        let err = lower_state(&s).expect_err("reader scheduled before writer");
        assert_eq!(
            err,
            GraphError::UseBeforeDef {
                data: "T".into(),
                task: 0
            }
        );
    }

    #[test]
    fn waw_edges_serialize_writers() {
        let mut s = State {
            name: "s".into(),
            ..Default::default()
        };
        let w1 = s.add_node(Node::Tasklet { name: "w1".into() });
        let w2 = s.add_node(Node::Tasklet { name: "w2".into() });
        s.add_memlet(Memlet::write("T", c(1.0), w1));
        s.add_memlet(Memlet::write("T", c(1.0), w2));
        let dag = lower_state(&s).unwrap();
        assert_eq!(dag.edges, vec![(0, 1)]);
    }

    #[test]
    fn memlets_on_scope_boundaries_attach_to_inner_tasklets() {
        // A memlet targeting the map feeds the tasklet inside it.
        let mut s = State {
            name: "s".into(),
            ..Default::default()
        };
        let t = s.add_node(Node::Tasklet { name: "t".into() });
        let m = s.add_node(Node::Map {
            name: "m".into(),
            ranges: vec![("i".into(), p("N"))],
            body: vec![t],
            distributed: false,
        });
        s.add_memlet(Memlet::read("A", c(1.0), m));
        let dag = lower_state(&s).unwrap();
        assert_eq!(dag.tasks.len(), 1);
        assert_eq!(dag.tasks[0].reads, ["A"]);
    }
}
