//! Per-process multiplexing of many register automata over one network.
//!
//! The paper's algorithm implements **one** SWMR register. To serve many
//! registers from one cluster, each process keeps an independent automaton
//! instance per register; wire messages are wrapped in an
//! [`Envelope`] carrying the target [`RegisterId`] and delivered to the
//! matching instance. Registers never interact — each one is exactly the
//! paper's protocol, with exactly its control-bit budget — so per-register
//! correctness (and the two-bit claim) is preserved by construction.
//!
//! [`ShardSet`] is that per-process instance map. Both execution substrates
//! (the sharded simulator and the live runtime) embed one `ShardSet` per
//! process and route by envelope.

use std::collections::BTreeMap;

use crate::automaton::{Automaton, Effects};
use crate::id::{ProcessId, RegisterId};
use crate::op::{OpId, Operation};
use crate::wire::Envelope;

/// One process's automaton instances, keyed by register.
///
/// # Examples
///
/// ```
/// use twobit_proto::{Effects, OpId, Operation, ProcessId, RegisterId, ShardSet, SystemConfig};
/// # use twobit_proto::{Automaton, MessageCost, OpOutcome, WireMessage};
/// # #[derive(Clone, Debug)]
/// # struct NoMsg;
/// # impl WireMessage for NoMsg {
/// #     fn kind(&self) -> &'static str { "NONE" }
/// #     fn cost(&self) -> MessageCost { MessageCost::new(0, 0) }
/// # }
/// # struct Local { id: ProcessId, cfg: SystemConfig, value: u64 }
/// # impl Automaton for Local {
/// #     type Value = u64;
/// #     type Msg = NoMsg;
/// #     fn id(&self) -> ProcessId { self.id }
/// #     fn config(&self) -> SystemConfig { self.cfg }
/// #     fn on_invoke(&mut self, op_id: OpId, op: Operation<u64>, fx: &mut Effects<NoMsg, u64>) {
/// #         match op {
/// #             Operation::Write(v) => { self.value = v; fx.complete_write(op_id); }
/// #             Operation::Read => fx.complete_read(op_id, self.value),
/// #         }
/// #     }
/// #     fn on_message(&mut self, _: ProcessId, _: NoMsg, _: &mut Effects<NoMsg, u64>) {}
/// #     fn state_bits(&self) -> u64 { 64 }
/// # }
/// let cfg = SystemConfig::new(3, 1)?;
/// let regs = RegisterId::first(4);
/// let mut set = ShardSet::new(ProcessId::new(0), &regs, |_reg, id| Local {
///     id,
///     cfg,
///     value: 0,
/// });
/// assert_eq!(set.registers().count(), 4);
/// assert_eq!(set.routing_bits(), 2); // ⌈log₂ 4⌉
///
/// let mut fx = Effects::new();
/// set.on_invoke(RegisterId::new(2), OpId::new(0), Operation::Write(7), &mut fx)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ShardSet<A: Automaton> {
    id: ProcessId,
    routing_bits: u64,
    shards: BTreeMap<RegisterId, A>,
    /// Where a shard's handler writes its bare effects before they are
    /// enveloped into the caller's buffer; always empty between calls, its
    /// capacity reused by every call.
    inner: Effects<A::Msg, A::Value>,
}

impl<A: Automaton> std::fmt::Debug for ShardSet<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSet")
            .field("id", &self.id)
            .field("routing_bits", &self.routing_bits)
            .field("registers", &self.shards.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

/// Error returned when an operation targets a register the set does not
/// host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnknownRegister(pub RegisterId);

impl std::fmt::Display for UnknownRegister {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown register {}", self.0)
    }
}

impl std::error::Error for UnknownRegister {}

impl<A: Automaton> ShardSet<A> {
    /// Creates one automaton instance per register via `make`.
    pub fn new(
        id: ProcessId,
        registers: &[RegisterId],
        mut make: impl FnMut(RegisterId, ProcessId) -> A,
    ) -> Self {
        let shards: BTreeMap<RegisterId, A> = registers
            .iter()
            .map(|&reg| {
                let a = make(reg, id);
                assert_eq!(a.id(), id, "automaton id must match its process");
                (reg, a)
            })
            .collect();
        assert_eq!(
            shards.len(),
            registers.len(),
            "duplicate register ids in shard set"
        );
        ShardSet {
            id,
            routing_bits: RegisterId::routing_bits(shards.len()),
            shards,
            inner: Effects::new(),
        }
    }

    /// This process's identity.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Shard-tag width of this set (`⌈log₂ k⌉` for `k` hosted registers):
    /// what addressing one register costs when an envelope crosses a link
    /// alone. Transports use it as the unframed-equivalent routing figure;
    /// on the wire, frames share one delta-encoded header instead.
    pub fn routing_bits(&self) -> u64 {
        self.routing_bits
    }

    /// Hosted registers, in id order.
    pub fn registers(&self) -> impl Iterator<Item = RegisterId> + '_ {
        self.shards.keys().copied()
    }

    /// Immutable access to one register's automaton.
    pub fn shard(&self, reg: RegisterId) -> Option<&A> {
        self.shards.get(&reg)
    }

    /// Routes an invocation to the target register's automaton.
    ///
    /// # Errors
    ///
    /// [`UnknownRegister`] if `reg` is not hosted here (no effects are
    /// produced in that case).
    pub fn on_invoke(
        &mut self,
        reg: RegisterId,
        op_id: OpId,
        op: Operation<A::Value>,
        fx: &mut Effects<Envelope<A::Msg>, A::Value>,
    ) -> Result<(), UnknownRegister> {
        let shard = self.shards.get_mut(&reg).ok_or(UnknownRegister(reg))?;
        shard.on_invoke(op_id, op, &mut self.inner);
        Self::wrap(reg, &mut self.inner, fx);
        Ok(())
    }

    /// Routes a received envelope to the target register's automaton.
    /// Envelopes for unknown registers are dropped (a byzantine-free system
    /// never produces them; dropping keeps delivery total).
    pub fn on_message(
        &mut self,
        from: ProcessId,
        env: Envelope<A::Msg>,
        fx: &mut Effects<Envelope<A::Msg>, A::Value>,
    ) {
        let reg = env.reg;
        let Some(shard) = self.shards.get_mut(&reg) else {
            debug_assert!(false, "envelope for unknown register {reg}");
            return;
        };
        shard.on_message(from, env.inner, &mut self.inner);
        Self::wrap(reg, &mut self.inner, fx);
    }

    /// Donor side of recovery for one register: the hosted automaton's
    /// confirmed value sequence, or `None` when the register is unknown or
    /// its automaton does not support recovery.
    pub fn recovery_snapshot(&self, reg: RegisterId) -> Option<Vec<A::Value>> {
        self.shards.get(&reg).and_then(Automaton::recovery_snapshot)
    }

    /// Installs a recovery snapshot into one register's automaton (the
    /// recovering process's side).
    ///
    /// # Errors
    ///
    /// [`UnknownRegister`] if `reg` is not hosted here.
    pub fn install_recovery(
        &mut self,
        reg: RegisterId,
        snapshot: &[A::Value],
    ) -> Result<(), UnknownRegister> {
        let shard = self.shards.get_mut(&reg).ok_or(UnknownRegister(reg))?;
        shard.install_recovery(snapshot);
        Ok(())
    }

    /// Routes a rejoin barrier to one register's automaton (the live-peer
    /// side), wrapping its effects in envelopes like every other handler.
    ///
    /// # Errors
    ///
    /// [`UnknownRegister`] if `reg` is not hosted here (no effects are
    /// produced in that case).
    pub fn apply_rejoin(
        &mut self,
        reg: RegisterId,
        rejoining: ProcessId,
        snapshot: &[A::Value],
        fx: &mut Effects<Envelope<A::Msg>, A::Value>,
    ) -> Result<(), UnknownRegister> {
        let shard = self.shards.get_mut(&reg).ok_or(UnknownRegister(reg))?;
        shard.apply_rejoin(rejoining, snapshot, &mut self.inner);
        Self::wrap(reg, &mut self.inner, fx);
        Ok(())
    }

    /// Total local state across all hosted registers.
    pub fn state_bits(&self) -> u64 {
        self.shards.values().map(Automaton::state_bits).sum()
    }

    /// Checks each hosted automaton's local invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violation, prefixed with the register id.
    pub fn check_local_invariants(&self) -> Result<(), String> {
        for (reg, a) in &self.shards {
            a.check_local_invariants()
                .map_err(|e| format!("{reg}: {e}"))?;
        }
        Ok(())
    }

    /// Moves one handler's effects out of `inner` (left empty) into `fx`,
    /// tagging each send with its register.
    fn wrap(
        reg: RegisterId,
        inner: &mut Effects<A::Msg, A::Value>,
        fx: &mut Effects<Envelope<A::Msg>, A::Value>,
    ) {
        for (to, msg) in inner.drain_sends() {
            fx.send(to, Envelope::new(reg, msg));
        }
        for (op_id, outcome) in inner.drain_completions() {
            fx.complete(op_id, outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpOutcome;
    use crate::wire::{MessageCost, WireMessage};
    use crate::SystemConfig;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Ping;

    impl WireMessage for Ping {
        fn kind(&self) -> &'static str {
            "PING"
        }
        fn cost(&self) -> MessageCost {
            MessageCost::new(2, 0)
        }
    }

    /// Broadcasts one PING per write, completes reads with a counter of
    /// received messages.
    struct Probe {
        id: ProcessId,
        cfg: SystemConfig,
        received: u64,
    }

    impl Automaton for Probe {
        type Value = u64;
        type Msg = Ping;

        fn id(&self) -> ProcessId {
            self.id
        }
        fn config(&self) -> SystemConfig {
            self.cfg
        }
        fn on_invoke(&mut self, op_id: OpId, op: Operation<u64>, fx: &mut Effects<Ping, u64>) {
            match op {
                Operation::Read => fx.complete_read(op_id, self.received),
                Operation::Write(_) => {
                    for p in self.cfg.peers(self.id).collect::<Vec<_>>() {
                        fx.send(p, Ping);
                    }
                    fx.complete_write(op_id);
                }
            }
        }
        fn on_message(&mut self, _from: ProcessId, _msg: Ping, _fx: &mut Effects<Ping, u64>) {
            self.received += 1;
        }
        fn state_bits(&self) -> u64 {
            64
        }
    }

    fn set_of(n_regs: usize) -> ShardSet<Probe> {
        let cfg = SystemConfig::new(3, 1).unwrap();
        ShardSet::new(ProcessId::new(0), &RegisterId::first(n_regs), |_reg, id| {
            Probe {
                id,
                cfg,
                received: 0,
            }
        })
    }

    #[test]
    fn invoke_wraps_sends_in_envelopes() {
        let mut set = set_of(4);
        let reg = RegisterId::new(2);
        let mut fx = Effects::new();
        set.on_invoke(reg, OpId::new(0), Operation::Write(1), &mut fx)
            .unwrap();
        assert_eq!(fx.completions().len(), 1);
        let sends: Vec<_> = fx.drain_sends().collect();
        assert_eq!(sends.len(), 2);
        for (_, env) in &sends {
            assert_eq!(env.reg, reg);
            assert_eq!(env.cost().control_bits, 2);
            // The shard tag is no longer carried per message; the set's tag
            // width is derived where traffic is accounted.
            assert_eq!(env.cost().routing_bits, 0);
        }
        assert_eq!(set.routing_bits(), 2);
    }

    #[test]
    fn messages_route_to_their_shard_only() {
        let mut set = set_of(3);
        let mut fx = Effects::new();
        set.on_message(
            ProcessId::new(1),
            Envelope::new(RegisterId::new(1), Ping),
            &mut fx,
        );
        let probe = |reg: usize| set.shard(RegisterId::new(reg)).unwrap().received;
        assert_eq!(probe(0), 0);
        assert_eq!(probe(1), 1);
        assert_eq!(probe(2), 0);
    }

    #[test]
    fn unknown_register_is_typed() {
        let mut set = set_of(2);
        let mut fx = Effects::new();
        let err = set
            .on_invoke(RegisterId::new(9), OpId::new(0), Operation::Read, &mut fx)
            .unwrap_err();
        assert_eq!(err, UnknownRegister(RegisterId::new(9)));
        assert!(fx.is_empty());
    }

    #[test]
    fn single_register_space_has_no_routing_overhead() {
        let set = set_of(1);
        assert_eq!(set.routing_bits(), 0);
        assert_eq!(set.state_bits(), 64);
        set.check_local_invariants().unwrap();
    }

    #[test]
    fn completions_pass_through() {
        let mut set = set_of(2);
        let mut fx = Effects::new();
        set.on_invoke(RegisterId::ZERO, OpId::new(7), Operation::Read, &mut fx)
            .unwrap();
        assert_eq!(fx.completions(), &[(OpId::new(7), OpOutcome::ReadValue(0))]);
    }
}
