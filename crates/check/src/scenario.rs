//! Checkable configurations: a space factory plus an operation script.
//!
//! A [`Scenario`] is everything the explorer needs to enumerate one small
//! configuration: a factory that builds a fresh scheduled-mode
//! [`SimSpace`] (exploration is stateless-replay based, loom-style — the
//! backend is rebuilt and the prefix re-fired on every backtrack), the
//! scripted operations with their cross-process sequencing, the
//! per-register consistency [`RegisterMode`]s to check each terminal path
//! against, and the crash budget (`≤ t`).

use std::collections::BTreeMap;
use std::fmt;

use twobit_proto::{Automaton, Operation, ProcessId, RegisterId, RegisterMode};
use twobit_simnet::SimSpace;

/// One scripted operation of a scenario.
#[derive(Clone, Debug)]
pub struct PlanStep<V> {
    /// The invoking process.
    pub proc: ProcessId,
    /// Target register.
    pub reg: RegisterId,
    /// The operation.
    pub op: Operation<V>,
    /// Plan index whose response must precede this invocation (real-time
    /// sequencing across processes; same-process steps are sequential by
    /// position).
    pub after: Option<usize>,
}

/// A small configuration the model checker can exhaustively explore.
pub struct Scenario<A: Automaton> {
    /// Display name (used in reports).
    pub name: String,
    make_space: Box<dyn Fn() -> SimSpace<A>>,
    plan: Vec<PlanStep<A::Value>>,
    /// Consistency mode checked per register on every terminal path
    /// (absent registers default to SWMR).
    pub modes: BTreeMap<RegisterId, RegisterMode>,
    /// Maximum number of crash steps the explorer may inject per path.
    pub crash_budget: usize,
    /// Maximum number of recovery steps the explorer may inject per path
    /// (each brings one currently-crashed process back up; requires the
    /// factory to build its spaces with `SpaceBuilder::recovery(true)`).
    pub recover_budget: usize,
}

impl<A: Automaton> fmt::Debug for Scenario<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("plan", &self.plan)
            .field("modes", &self.modes)
            .field("crash_budget", &self.crash_budget)
            .field("recover_budget", &self.recover_budget)
            .finish_non_exhaustive()
    }
}

impl<A: Automaton> Scenario<A> {
    /// Starts a scenario from a factory producing a fresh scheduled-mode
    /// space (build it with `SpaceBuilder::scheduled(true)`).
    pub fn new(name: impl Into<String>, make_space: impl Fn() -> SimSpace<A> + 'static) -> Self {
        Scenario {
            name: name.into(),
            make_space: Box::new(make_space),
            plan: Vec::new(),
            modes: BTreeMap::new(),
            crash_budget: 0,
            recover_budget: 0,
        }
    }

    /// Scripts an operation with no cross-process ordering constraint.
    #[must_use]
    pub fn op(mut self, proc: ProcessId, reg: RegisterId, op: Operation<A::Value>) -> Self {
        self.plan.push(PlanStep {
            proc,
            reg,
            op,
            after: None,
        });
        self
    }

    /// Scripts an operation that must be invoked only after plan step
    /// `after` has responded.
    #[must_use]
    pub fn op_after(
        mut self,
        proc: ProcessId,
        reg: RegisterId,
        op: Operation<A::Value>,
        after: usize,
    ) -> Self {
        assert!(after < self.plan.len(), "op_after: unknown plan step");
        self.plan.push(PlanStep {
            proc,
            reg,
            op,
            after: Some(after),
        });
        self
    }

    /// Sets the consistency mode checked for `reg`.
    #[must_use]
    pub fn mode(mut self, reg: RegisterId, mode: RegisterMode) -> Self {
        self.modes.insert(reg, mode);
        self
    }

    /// Allows up to `budget` injected crashes per explored path.
    #[must_use]
    pub fn crash_budget(mut self, budget: usize) -> Self {
        self.crash_budget = budget;
        self
    }

    /// Allows up to `budget` injected recoveries per explored path. Only
    /// meaningful together with a non-zero crash budget and a factory
    /// that enables `SpaceBuilder::recovery` — a recovery is offered at a
    /// node exactly when some process is crashed there.
    #[must_use]
    pub fn recover_budget(mut self, budget: usize) -> Self {
        self.recover_budget = budget;
        self
    }

    /// The scripted operations.
    pub fn plan(&self) -> &[PlanStep<A::Value>] {
        &self.plan
    }

    /// Builds a fresh space with the scenario's plan scripted — one
    /// independent replayable run.
    pub fn build(&self) -> SimSpace<A> {
        let mut space = (self.make_space)();
        for st in &self.plan {
            match st.after {
                Some(a) => {
                    space.plan_op_after(st.proc, st.reg, st.op.clone(), a);
                }
                None => {
                    space.plan_op(st.proc, st.reg, st.op.clone());
                }
            }
        }
        space
    }

    /// Plan steps whose responses causally enable step `i`'s invocation:
    /// every earlier step of the same process, plus the explicit `after`
    /// dependency. This is the *true* enabling cause the explorer's
    /// happens-before tracking uses — responses of unrelated steps order
    /// with the invocation only through the schedule, which is exactly
    /// the reorderable part.
    pub(crate) fn invoke_deps(&self, i: usize) -> Vec<u64> {
        let me = &self.plan[i];
        let mut deps: Vec<u64> = self
            .plan
            .iter()
            .enumerate()
            .take(i)
            .filter(|(_, st)| st.proc == me.proc)
            .map(|(j, _)| j as u64)
            .collect();
        if let Some(a) = me.after {
            let a = a as u64;
            if !deps.contains(&a) {
                deps.push(a);
            }
        }
        deps
    }
}
