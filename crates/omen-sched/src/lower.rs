//! Binding: from a lowered SDFG schedule to typed, grid-expanded tasks.
//!
//! `omen_dataflow::lower` produces *symbolic* tasks — one `TaskSpec`
//! per tasklet, still parameterized by its enclosing map ranges. This
//! module expands those scopes over concrete grid extents and binds the
//! tasklet names of the paper's simulation SDFG to typed work items
//! ([`BoundTask`]): per-`(kz, E)` electron RGF solves, per-`(qz, ω)`
//! phonon solves, and the monolithic SSE update. This is the lowering
//! the Fig. 5 reproduction bins print and the repository benchmark
//! measures (`sched.lower_ms`, `sched.dag_tasks`); the driver's own
//! sweeps are [`TaskDag`] runs it builds directly, one edge-free task
//! per point, and never pass through here.

use crate::dag::TaskDag;
use omen_dataflow::{lower_sdfg, GraphError, LoweredDag, Sdfg};
use std::fmt;

/// A task bound to a concrete kernel invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundTask {
    /// One electron RGF solve at momentum index `ik`, energy index `ie`.
    GfElectron {
        /// Momentum (kz) grid index.
        ik: usize,
        /// Energy grid index.
        ie: usize,
    },
    /// One phonon RGF solve at momentum index `iq`, frequency index `iw`.
    GfPhonon {
        /// Momentum (qz) grid index.
        iq: usize,
        /// Frequency grid index.
        iw: usize,
    },
    /// The monolithic SSE update (Σ/Π from all G/D): one task, as the
    /// SDFG has one `sse_kernel` tasklet. Its 6-D map runs inside the
    /// kernel.
    Sse,
}

/// Failure to bind a lowered graph to the runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The graph itself is malformed.
    Graph(GraphError),
    /// A tasklet name has no runtime binding.
    UnboundTasklet(String),
    /// A map iteration variable has no concrete extent.
    UnboundVar {
        /// The tasklet whose scope uses the variable.
        task: String,
        /// The unbound variable.
        var: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Graph(e) => write!(f, "graph error: {e}"),
            PlanError::UnboundTasklet(name) => {
                write!(f, "tasklet \"{name}\" has no runtime binding")
            }
            PlanError::UnboundVar { task, var } => {
                write!(
                    f,
                    "tasklet \"{task}\": no extent bound for map variable \"{var}\""
                )
            }
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for PlanError {
    fn from(e: GraphError) -> PlanError {
        PlanError::Graph(e)
    }
}

/// One Born iteration lowered, expanded, and bound: a task DAG with
/// [`BoundTask`] payloads index-aligned to its tasks, plus the symbolic
/// schedule it was expanded from.
#[derive(Clone, Debug)]
pub struct IterationPlan {
    /// The runtime DAG (forward edges, schedule order).
    pub dag: TaskDag,
    /// Payload of each DAG task.
    pub tasks: Vec<BoundTask>,
    /// The symbolic schedule the plan was expanded from.
    pub lowered: LoweredDag,
}

impl IterationPlan {
    /// Number of GF point tasks (electron + phonon).
    pub fn gf_tasks(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| !matches!(t, BoundTask::Sse))
            .count()
    }
}

/// Lowers `sdfg` and expands it over the concrete grids: `nk` momentum
/// points, `ne` energies, `nw` phonon frequencies (phonon momenta share
/// `nk`, as in the driver). Each expanded GF point becomes one DAG
/// task; memlet-derived edges expand all-to-all between the groups they
/// connect, so the SSE task waits on every G/D producer exactly as the
/// write→read memlets dictate.
pub fn lower_iteration(
    sdfg: &Sdfg,
    nk: usize,
    ne: usize,
    nw: usize,
) -> Result<IterationPlan, PlanError> {
    let lowered = lower_sdfg(sdfg)?;
    let extent = |task: &str, var: &str| -> Result<usize, PlanError> {
        match var {
            "kz" | "qz" => Ok(nk),
            "E" => Ok(ne),
            "w" => Ok(nw),
            _ => Err(PlanError::UnboundVar {
                task: task.to_string(),
                var: var.to_string(),
            }),
        }
    };
    // Expand each symbolic task into its instance range.
    let mut instances: Vec<(usize, usize)> = Vec::new(); // (start, count) per symbolic task
    let mut tasks: Vec<BoundTask> = Vec::new();
    for spec in &lowered.tasks {
        let start = tasks.len();
        match spec.name.as_str() {
            // GF tasklets expand over their enclosing point grids: one
            // task per map instance, coordinates row-major over the
            // scope's variables (outermost first).
            "RGF_electrons" | "RGF_phonons" => {
                let mut count = 1usize;
                for m in &spec.maps {
                    for v in &m.vars {
                        count *= extent(&spec.name, v)?;
                    }
                }
                let inner = if spec.name == "RGF_electrons" { ne } else { nw }.max(1);
                for j in 0..count {
                    tasks.push(if spec.name == "RGF_electrons" {
                        BoundTask::GfElectron {
                            ik: j / inner,
                            ie: j % inner,
                        }
                    } else {
                        BoundTask::GfPhonon {
                            iq: j / inner,
                            iw: j % inner,
                        }
                    });
                }
            }
            // The SSE tasklet stays monolithic: its 6-D map runs *inside*
            // the kernel.
            "sse_kernel" => tasks.push(BoundTask::Sse),
            other => return Err(PlanError::UnboundTasklet(other.to_string())),
        }
        instances.push((start, tasks.len() - start));
    }
    // Expand the symbolic edges all-to-all between instance groups and
    // build the runtime DAG in the same flat order.
    let mut dag = TaskDag::new();
    for (sym, spec) in lowered.tasks.iter().enumerate() {
        let (start, count) = instances[sym];
        let producers: Vec<usize> = lowered
            .deps_of(sym)
            .into_iter()
            .flat_map(|p| {
                let (ps, pc) = instances[p];
                ps..ps + pc
            })
            .collect();
        for j in 0..count {
            debug_assert_eq!(start + j, dag.len());
            dag.add_task(&spec.name, &producers);
        }
    }
    debug_assert_eq!(dag.len(), tasks.len());
    Ok(IterationPlan {
        dag,
        tasks,
        lowered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_dataflow::simulation_sdfg;

    #[test]
    fn simulation_plan_expands_points_and_deps() {
        let (nk, ne, nw) = (2, 5, 3);
        let plan = lower_iteration(&simulation_sdfg(), nk, ne, nw).unwrap();
        // nk·ne electrons + nk·nw phonons + 1 SSE.
        assert_eq!(plan.dag.len(), nk * ne + nk * nw + 1);
        assert_eq!(plan.gf_tasks(), nk * ne + nk * nw);
        // First electron point and its coordinates.
        assert_eq!(plan.tasks[0], BoundTask::GfElectron { ik: 0, ie: 0 });
        assert_eq!(plan.tasks[ne], BoundTask::GfElectron { ik: 1, ie: 0 });
        assert_eq!(plan.tasks[nk * ne], BoundTask::GfPhonon { iq: 0, iw: 0 });
        // The SSE task is last and waits on every GF point.
        let sse = plan.dag.len() - 1;
        assert_eq!(plan.tasks[sse], BoundTask::Sse);
        assert_eq!(plan.dag.deps_of(sse).len(), nk * ne + nk * nw);
        // GF points are mutually independent.
        for t in 0..sse {
            assert!(plan.dag.deps_of(t).is_empty());
        }
    }

    #[test]
    fn unknown_tasklets_are_rejected() {
        let mut sdfg = Sdfg::new("x");
        let mut s = omen_dataflow::State::default();
        s.add_node(omen_dataflow::Node::Tasklet {
            name: "mystery".into(),
        });
        sdfg.add_state(s);
        let err = lower_iteration(&sdfg, 1, 1, 1).expect_err("unbound tasklet");
        assert_eq!(err, PlanError::UnboundTasklet("mystery".into()));
    }
}
