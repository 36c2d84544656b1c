//! Tiny reference automatons used to test the simulator itself (and useful
//! in doctests). Not register implementations anyone should use — see
//! `twobit-core` and `twobit-baselines` for the real protocols.

use twobit_proto::bits::{BitReader, BitWriter, WireError};
use twobit_proto::{
    Automaton, Effects, MessageCost, OpId, Operation, ProcessId, SystemConfig, WireMessage,
};

/// A "register" with no communication at all: every operation completes
/// locally and instantly. Exists to exercise invocation plumbing.
#[derive(Debug)]
pub struct NullRegister {
    id: ProcessId,
    cfg: SystemConfig,
    value: u64,
}

impl NullRegister {
    /// Creates the process.
    pub fn new(id: ProcessId, cfg: SystemConfig) -> Self {
        NullRegister { id, cfg, value: 0 }
    }
}

/// Message type for [`NullRegister`] (never sent).
#[derive(Clone, Debug)]
pub enum NoMsg {}

impl WireMessage for NoMsg {
    fn kind(&self) -> &'static str {
        match *self {}
    }
    fn cost(&self) -> MessageCost {
        match *self {}
    }
}

impl Automaton for NullRegister {
    type Value = u64;
    type Msg = NoMsg;

    fn id(&self) -> ProcessId {
        self.id
    }
    fn config(&self) -> SystemConfig {
        self.cfg
    }
    fn on_invoke(&mut self, op_id: OpId, op: Operation<u64>, fx: &mut Effects<NoMsg, u64>) {
        match op {
            Operation::Write(v) => {
                self.value = v;
                fx.complete_write(op_id);
            }
            Operation::Read => fx.complete_read(op_id, self.value),
        }
    }
    fn on_message(&mut self, _from: ProcessId, msg: NoMsg, _fx: &mut Effects<NoMsg, u64>) {
        match msg {}
    }
    fn state_bits(&self) -> u64 {
        64
    }
}

/// A majority-echo automaton: a write broadcasts `PING` and completes once
/// `n − t` processes (counting itself) have echoed `PONG`; reads complete
/// locally. Exercises message delivery, delays and crash handling in the
/// engine. It is *not* atomic.
#[derive(Debug)]
pub struct MajorityEcho {
    id: ProcessId,
    cfg: SystemConfig,
    value: u64,
    pending: Option<(OpId, usize)>,
}

impl MajorityEcho {
    /// Creates the process.
    pub fn new(id: ProcessId, cfg: SystemConfig) -> Self {
        MajorityEcho {
            id,
            cfg,
            value: 0,
            pending: None,
        }
    }
}

/// Messages of [`MajorityEcho`].
#[derive(Clone, Debug)]
pub enum EchoMsg {
    /// Write announcement.
    Ping(u64),
    /// Acknowledgement.
    Pong,
}

impl WireMessage for EchoMsg {
    fn kind(&self) -> &'static str {
        match self {
            EchoMsg::Ping(_) => "PING",
            EchoMsg::Pong => "PONG",
        }
    }
    fn cost(&self) -> MessageCost {
        match self {
            EchoMsg::Ping(_) => MessageCost::new(1, 64),
            EchoMsg::Pong => MessageCost::new(1, 0),
        }
    }
    // Codec-capable so the engines' encode–decode fidelity mode (and the
    // reactor transport) can run the test automatons too: 1-bit tag, then the
    // value for pings — bit-for-bit the modeled cost.
    fn encoded_bits(&self) -> u64 {
        match self {
            EchoMsg::Ping(_) => 65,
            EchoMsg::Pong => 1,
        }
    }
    fn encode_into(&self, w: &mut BitWriter) -> Result<(), WireError> {
        match self {
            EchoMsg::Ping(v) => {
                w.put_bit(false);
                w.put_bits(*v, 64);
            }
            EchoMsg::Pong => w.put_bit(true),
        }
        Ok(())
    }
    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        if r.get_bit()? {
            Ok(EchoMsg::Pong)
        } else {
            Ok(EchoMsg::Ping(r.get_bits(64)?))
        }
    }
}

impl Automaton for MajorityEcho {
    type Value = u64;
    type Msg = EchoMsg;

    fn id(&self) -> ProcessId {
        self.id
    }
    fn config(&self) -> SystemConfig {
        self.cfg
    }
    fn on_invoke(&mut self, op_id: OpId, op: Operation<u64>, fx: &mut Effects<EchoMsg, u64>) {
        match op {
            Operation::Write(v) => {
                self.value = v;
                // Count ourselves; a singleton system completes immediately.
                if self.cfg.quorum() <= 1 {
                    fx.complete_write(op_id);
                    return;
                }
                self.pending = Some((op_id, 1));
                for j in self.cfg.peers(self.id).collect::<Vec<_>>() {
                    fx.send(j, EchoMsg::Ping(v));
                }
            }
            Operation::Read => fx.complete_read(op_id, self.value),
        }
    }
    fn on_message(&mut self, from: ProcessId, msg: EchoMsg, fx: &mut Effects<EchoMsg, u64>) {
        match msg {
            EchoMsg::Ping(v) => {
                self.value = v;
                fx.send(from, EchoMsg::Pong);
            }
            EchoMsg::Pong => {
                if let Some((op_id, acks)) = self.pending.as_mut() {
                    *acks += 1;
                    if *acks >= self.cfg.quorum() {
                        let id = *op_id;
                        self.pending = None;
                        fx.complete_write(id);
                    }
                }
            }
        }
    }
    fn state_bits(&self) -> u64 {
        64
    }
}
