//! Heterogeneous deployments: the paper's SWMR protocol, the MWMR ABD
//! automaton, and the Oh-RAM fast-read automaton side by side in **one**
//! sharded backend.
//!
//! The execution substrates instantiate one automaton type per deployment
//! (`make(reg, id) -> A`), so a `RegisterSpace` mixing register modes needs
//! a message type that can describe all of them on one link. [`MixedMsg`]
//! is that type: a variable-length wire discriminant in front of the inner
//! protocol's own encoding, and [`MixedProcess`] the matching per-register
//! automaton (each register is still purely one protocol — the mix is
//! across registers, never within one).
//!
//! The discriminant is honest overhead: a heterogeneous deployment's
//! messages are no longer self-evidently one protocol, so the frame's
//! decoder must be told. The prefix code keeps the paper's protocol
//! cheapest — `0` = SWMR (one bit), `10` = MWMR, `11` = Oh-RAM (two bits
//! each); [`MixedMsg::cost`] accounts the prefix as *control* bits. A
//! pure-two-bit deployment should keep using [`TwoBitMsg`] directly, which
//! is why the pinned headline rows of `tests/frame_semantics.rs` do.

use twobit_core::{TwoBitMsg, TwoBitProcess};
use twobit_proto::bits::{BitReader, BitWriter, WireError};
use twobit_proto::{
    Automaton, Effects, MessageCost, OpId, Operation, Payload, ProcessId, RegisterMode,
    SystemConfig, WireMessage,
};

use crate::mwmr::{MwmrMsg, MwmrProcess};
use crate::ohram::{OhRamMsg, OhRamProcess};

/// A message of any hosted protocol, discriminated by a wire prefix code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MixedMsg<V> {
    /// A message of the paper's two-bit SWMR protocol.
    Swmr(TwoBitMsg<V>),
    /// A message of the MWMR ABD protocol.
    Mwmr(MwmrMsg<V>),
    /// A message of the Oh-RAM fast-read protocol.
    OhRam(OhRamMsg<V>),
}

impl<V: Payload> MixedMsg<V> {
    /// Length of this variant's wire discriminant: `0` = SWMR keeps the
    /// paper's protocol one bit; `10` = MWMR and `11` = Oh-RAM pay two.
    fn mode_bits(&self) -> u64 {
        match self {
            MixedMsg::Swmr(_) => 1,
            MixedMsg::Mwmr(_) | MixedMsg::OhRam(_) => 2,
        }
    }
}

impl<V: Payload> WireMessage for MixedMsg<V> {
    fn kind(&self) -> &'static str {
        match self {
            MixedMsg::Swmr(m) => m.kind(),
            MixedMsg::Mwmr(m) => m.kind(),
            MixedMsg::OhRam(m) => m.kind(),
        }
    }

    /// The inner protocol's cost plus the mode prefix, charged as control
    /// (it is protocol-identifying information).
    fn cost(&self) -> MessageCost {
        let inner = match self {
            MixedMsg::Swmr(m) => m.cost(),
            MixedMsg::Mwmr(m) => m.cost(),
            MixedMsg::OhRam(m) => m.cost(),
        };
        MessageCost::new(self.mode_bits() + inner.control_bits, inner.data_bits)
    }

    fn encoded_bits(&self) -> u64 {
        self.mode_bits()
            + match self {
                MixedMsg::Swmr(m) => m.encoded_bits(),
                MixedMsg::Mwmr(m) => m.encoded_bits(),
                MixedMsg::OhRam(m) => m.encoded_bits(),
            }
    }

    fn encode_into(&self, w: &mut BitWriter) -> Result<(), WireError> {
        match self {
            MixedMsg::Swmr(m) => {
                w.put_bits(0, 1);
                m.encode_into(w)
            }
            MixedMsg::Mwmr(m) => {
                w.put_bits(0b10, 2);
                m.encode_into(w)
            }
            MixedMsg::OhRam(m) => {
                w.put_bits(0b11, 2);
                m.encode_into(w)
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        if r.get_bits(1)? == 0 {
            return Ok(MixedMsg::Swmr(TwoBitMsg::decode(r)?));
        }
        match r.get_bits(1)? {
            0 => Ok(MixedMsg::Mwmr(MwmrMsg::decode(r)?)),
            _ => Ok(MixedMsg::OhRam(OhRamMsg::decode(r)?)),
        }
    }
}

/// One register's process in a heterogeneous deployment: any hosted
/// protocol's automaton, speaking [`MixedMsg`] on the wire.
#[derive(Clone, Debug)]
pub enum MixedProcess<V> {
    /// This register runs the paper's single-writer protocol.
    Swmr(TwoBitProcess<V>),
    /// This register runs the MWMR ABD protocol.
    Mwmr(MwmrProcess<V>),
    /// This register runs the Oh-RAM fast-read protocol.
    OhRam(OhRamProcess<V>),
}

impl<V: Payload> MixedProcess<V> {
    /// A single-writer register process (the paper's protocol) whose
    /// writer is `writer`.
    pub fn swmr(id: ProcessId, cfg: SystemConfig, writer: ProcessId, v0: V) -> Self {
        MixedProcess::Swmr(TwoBitProcess::new(id, cfg, writer, v0))
    }

    /// A multi-writer register process (MWMR ABD).
    pub fn mwmr(id: ProcessId, cfg: SystemConfig, v0: V) -> Self {
        MixedProcess::Mwmr(MwmrProcess::new(id, cfg, v0))
    }

    /// A single-writer Oh-RAM fast-read register process whose writer is
    /// `writer`.
    pub fn ohram(id: ProcessId, cfg: SystemConfig, writer: ProcessId, v0: V) -> Self {
        MixedProcess::OhRam(OhRamProcess::new(id, cfg, writer, v0))
    }

    /// The process matching a register's declared mode — the natural
    /// `make` closure body for a mixed deployment (`writer` is only used
    /// by the single-writer modes).
    pub fn for_mode(
        mode: RegisterMode,
        id: ProcessId,
        cfg: SystemConfig,
        writer: ProcessId,
        v0: V,
    ) -> Self {
        match mode {
            RegisterMode::Swmr => Self::swmr(id, cfg, writer, v0),
            RegisterMode::Mwmr => Self::mwmr(id, cfg, v0),
            RegisterMode::OhRam => Self::ohram(id, cfg, writer, v0),
        }
    }

    /// This register's mode.
    pub fn mode(&self) -> RegisterMode {
        match self {
            MixedProcess::Swmr(_) => RegisterMode::Swmr,
            MixedProcess::Mwmr(_) => RegisterMode::Mwmr,
            MixedProcess::OhRam(_) => RegisterMode::OhRam,
        }
    }
}

/// Re-wraps an inner protocol's effects into the mixed message space.
fn lift<M, V: Payload>(
    mut inner: Effects<M, V>,
    fx: &mut Effects<MixedMsg<V>, V>,
    wrap: impl Fn(M) -> MixedMsg<V>,
) {
    for (to, msg) in inner.drain_sends() {
        fx.send(to, wrap(msg));
    }
    for (op_id, outcome) in inner.drain_completions() {
        fx.complete(op_id, outcome);
    }
}

impl<V: Payload> Automaton for MixedProcess<V> {
    type Value = V;
    type Msg = MixedMsg<V>;

    fn id(&self) -> ProcessId {
        match self {
            MixedProcess::Swmr(p) => p.id(),
            MixedProcess::Mwmr(p) => p.id(),
            MixedProcess::OhRam(p) => p.id(),
        }
    }

    fn config(&self) -> SystemConfig {
        match self {
            MixedProcess::Swmr(p) => p.config(),
            MixedProcess::Mwmr(p) => p.config(),
            MixedProcess::OhRam(p) => p.config(),
        }
    }

    fn on_invoke(&mut self, op_id: OpId, op: Operation<V>, fx: &mut Effects<MixedMsg<V>, V>) {
        match self {
            MixedProcess::Swmr(p) => {
                let mut inner = Effects::new();
                p.on_invoke(op_id, op, &mut inner);
                lift(inner, fx, MixedMsg::Swmr);
            }
            MixedProcess::Mwmr(p) => {
                let mut inner = Effects::new();
                p.on_invoke(op_id, op, &mut inner);
                lift(inner, fx, MixedMsg::Mwmr);
            }
            MixedProcess::OhRam(p) => {
                let mut inner = Effects::new();
                p.on_invoke(op_id, op, &mut inner);
                lift(inner, fx, MixedMsg::OhRam);
            }
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: MixedMsg<V>, fx: &mut Effects<MixedMsg<V>, V>) {
        // A register's peers all run the same protocol, so a mismatched
        // variant can only come from substrate mis-routing; dropping keeps
        // delivery total (mirroring ShardSet's unknown-register policy).
        match (self, msg) {
            (MixedProcess::Swmr(p), MixedMsg::Swmr(m)) => {
                let mut inner = Effects::new();
                p.on_message(from, m, &mut inner);
                lift(inner, fx, MixedMsg::Swmr);
            }
            (MixedProcess::Mwmr(p), MixedMsg::Mwmr(m)) => {
                let mut inner = Effects::new();
                p.on_message(from, m, &mut inner);
                lift(inner, fx, MixedMsg::Mwmr);
            }
            (MixedProcess::OhRam(p), MixedMsg::OhRam(m)) => {
                let mut inner = Effects::new();
                p.on_message(from, m, &mut inner);
                lift(inner, fx, MixedMsg::OhRam);
            }
            (_, msg) => debug_assert!(false, "protocol mismatch: {} message", msg.kind()),
        }
    }

    fn state_bits(&self) -> u64 {
        match self {
            MixedProcess::Swmr(p) => p.state_bits(),
            MixedProcess::Mwmr(p) => p.state_bits(),
            MixedProcess::OhRam(p) => p.state_bits(),
        }
    }

    fn check_local_invariants(&self) -> Result<(), String> {
        match self {
            MixedProcess::Swmr(p) => p.check_local_invariants(),
            MixedProcess::Mwmr(p) => p.check_local_invariants(),
            MixedProcess::OhRam(p) => p.check_local_invariants(),
        }
    }

    fn swmr_writer(&self) -> Option<ProcessId> {
        match self {
            MixedProcess::Swmr(p) => p.swmr_writer(),
            MixedProcess::Mwmr(p) => p.swmr_writer(),
            MixedProcess::OhRam(p) => p.swmr_writer(),
        }
    }

    fn recovery_snapshot(&self) -> Option<Vec<V>> {
        match self {
            MixedProcess::Swmr(p) => p.recovery_snapshot(),
            MixedProcess::Mwmr(p) => p.recovery_snapshot(),
            MixedProcess::OhRam(p) => p.recovery_snapshot(),
        }
    }

    fn install_recovery(&mut self, snapshot: &[V]) {
        match self {
            MixedProcess::Swmr(p) => p.install_recovery(snapshot),
            MixedProcess::Mwmr(p) => p.install_recovery(snapshot),
            MixedProcess::OhRam(p) => p.install_recovery(snapshot),
        }
    }

    fn apply_rejoin(
        &mut self,
        rejoining: ProcessId,
        snapshot: &[V],
        fx: &mut Effects<MixedMsg<V>, V>,
    ) {
        match self {
            MixedProcess::Swmr(p) => {
                let mut inner = Effects::new();
                p.apply_rejoin(rejoining, snapshot, &mut inner);
                lift(inner, fx, MixedMsg::Swmr);
            }
            MixedProcess::Mwmr(p) => {
                let mut inner = Effects::new();
                p.apply_rejoin(rejoining, snapshot, &mut inner);
                lift(inner, fx, MixedMsg::Mwmr);
            }
            MixedProcess::OhRam(p) => {
                let mut inner = Effects::new();
                p.apply_rejoin(rejoining, snapshot, &mut inner);
                lift(inner, fx, MixedMsg::OhRam);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mwmr::Timestamp;
    use twobit_core::Parity;

    fn cfg() -> SystemConfig {
        SystemConfig::max_resilience(3)
    }

    fn roundtrip(msg: &MixedMsg<u64>) {
        let mut w = BitWriter::new();
        msg.encode_into(&mut w).unwrap();
        assert_eq!(w.bit_len(), msg.encoded_bits());
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(&MixedMsg::<u64>::decode(&mut r).unwrap(), msg);
        assert_eq!(r.bits_read(), msg.encoded_bits());
    }

    #[test]
    fn mixed_messages_roundtrip_with_prefix_discriminants() {
        let swmr = MixedMsg::Swmr(TwoBitMsg::Write(Parity::Odd, 7u64));
        let mwmr = MixedMsg::Mwmr(MwmrMsg::Update {
            rid: 3,
            ts: Timestamp { num: 5, pid: 1 },
            value: 9u64,
        });
        let ohram = MixedMsg::OhRam(OhRamMsg::ReadAck {
            rid: 3,
            ts: 5,
            value: 9u64,
        });
        for m in [&swmr, &mwmr, &ohram] {
            roundtrip(m);
        }
        // The paper's protocol keeps the one-bit prefix; the competitors
        // pay two — in the encoding and in the control-bit accounting.
        let inner = TwoBitMsg::Write(Parity::Odd, 7u64);
        assert_eq!(swmr.encoded_bits(), 1 + inner.encoded_bits());
        assert_eq!(swmr.cost().control_bits, 1 + inner.cost().control_bits);
        assert_eq!(swmr.cost().data_bits, inner.cost().data_bits);
        let inner = OhRamMsg::ReadAck {
            rid: 3,
            ts: 5,
            value: 9u64,
        };
        assert_eq!(ohram.encoded_bits(), 2 + inner.encoded_bits());
        assert_eq!(ohram.cost().control_bits, 2 + inner.cost().control_bits);
        let inner = MwmrMsg::Update {
            rid: 3,
            ts: Timestamp { num: 5, pid: 1 },
            value: 9u64,
        };
        assert_eq!(mwmr.encoded_bits(), 2 + inner.encoded_bits());
        assert_eq!(mwmr.cost().control_bits, 2 + inner.cost().control_bits);
    }

    #[test]
    fn for_mode_builds_the_matching_protocol() {
        let c = cfg();
        for mode in [RegisterMode::Swmr, RegisterMode::Mwmr, RegisterMode::OhRam] {
            let p = MixedProcess::for_mode(mode, ProcessId::new(1), c, ProcessId::new(0), 0u64);
            assert_eq!(p.mode(), mode);
            assert_eq!(p.id(), ProcessId::new(1));
            assert_eq!(p.config(), c);
            assert!(p.state_bits() > 0);
            p.check_local_invariants().unwrap();
        }
    }

    #[test]
    fn effects_are_lifted_into_the_mixed_message_space() {
        let c = cfg();
        let mut p = MixedProcess::mwmr(ProcessId::new(2), c, 0u64);
        let mut fx = Effects::new();
        p.on_invoke(OpId::new(0), Operation::Write(5), &mut fx);
        let sends: Vec<_> = fx.drain_sends().collect();
        assert_eq!(sends.len(), 2, "query broadcast to both peers");
        for (_, m) in &sends {
            assert!(matches!(m, MixedMsg::Mwmr(MwmrMsg::Query { .. })));
        }
        let mut p = MixedProcess::ohram(ProcessId::new(2), c, ProcessId::new(0), 0u64);
        let mut fx = Effects::new();
        p.on_invoke(OpId::new(1), Operation::Read, &mut fx);
        assert!(
            fx.drain_sends()
                .all(|(_, m)| matches!(m, MixedMsg::OhRam(_))),
            "Oh-RAM effects come back wrapped"
        );
    }

    #[test]
    fn recovery_hooks_forward_to_the_inner_automaton() {
        let c = cfg();
        let p = MixedProcess::ohram(ProcessId::new(1), c, ProcessId::new(0), 0u64);
        assert_eq!(p.swmr_writer(), Some(ProcessId::new(0)));
        assert_eq!(p.recovery_snapshot(), Some(vec![0u64]));
        let mut p = MixedProcess::swmr(ProcessId::new(1), c, ProcessId::new(0), 0u64);
        p.install_recovery(&[0u64, 4]);
        assert_eq!(p.recovery_snapshot(), Some(vec![0u64, 4]));
        let mut q = MixedProcess::swmr(ProcessId::new(2), c, ProcessId::new(0), 0u64);
        q.apply_rejoin(ProcessId::new(1), &[0u64, 4], &mut Effects::new());
        assert_eq!(q.recovery_snapshot(), Some(vec![0u64, 4]));
    }

    #[test]
    fn mismatched_variant_is_dropped_not_propagated() {
        let c = cfg();
        let mut p = MixedProcess::swmr(ProcessId::new(1), c, ProcessId::new(0), 0u64);
        let mut fx = Effects::new();
        // debug_assert fires under cfg(debug_assertions); release-mode
        // semantics (what the substrates rely on) is a silent drop.
        if cfg!(debug_assertions) {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut fx2 = Effects::new();
                p.on_message(
                    ProcessId::new(0),
                    MixedMsg::Mwmr(MwmrMsg::Query { rid: 1 }),
                    &mut fx2,
                );
            }));
            assert!(r.is_err(), "debug builds surface the mis-route loudly");
        } else {
            p.on_message(
                ProcessId::new(0),
                MixedMsg::Mwmr(MwmrMsg::Query { rid: 1 }),
                &mut fx,
            );
            assert!(fx.is_empty());
        }
    }
}
