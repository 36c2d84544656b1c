//! The seeded operation script every workload replays.
//!
//! Registers are chosen uniformly; with probability ½ the step is a write of
//! a fresh `u64` issued by the register's writer (`reg mod n`), otherwise a
//! read from a uniformly random process — so `1/n` of the reads are the
//! writer's own local fast reads. The system under test only ever sees the
//! generated steps, never the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use twobit_proto::{Operation, ProcessId, RegisterId};

/// One scripted operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// The invoking process.
    pub proc: ProcessId,
    /// The target register.
    pub reg: RegisterId,
    /// `Some(v)` writes `v`; `None` reads.
    pub write: Option<u64>,
}

impl Step {
    /// The step as a `Driver` operation.
    pub fn op(&self) -> Operation<u64> {
        self.write.map_or(Operation::Read, Operation::Write)
    }
}

/// The single writer of `reg` in an `n`-process deployment.
pub fn writer_of(reg: RegisterId, n: usize) -> ProcessId {
    ProcessId::new(reg.index() % n)
}

/// An endless, deterministic stream of [`Step`]s.
#[derive(Clone, Debug)]
pub struct Script {
    rng: StdRng,
    n: usize,
    registers: usize,
    /// Written values are `1, 2, 3, …`: pairwise distinct and never the
    /// initial value 0, which is what the SWMR checker needs to attribute
    /// every read to one write.
    next_value: u64,
}

impl Script {
    /// A script over `n` processes and `registers` registers.
    pub fn new(seed: u64, n: usize, registers: usize) -> Self {
        Script {
            rng: StdRng::seed_from_u64(seed),
            n,
            registers,
            next_value: 1,
        }
    }

    fn fresh_value(&mut self) -> u64 {
        let v = self.next_value;
        self.next_value += 1;
        v
    }

    /// One step for every `(process, register)` pair — a write where the
    /// process is the register's writer, a read elsewhere. Run once after
    /// build, it pushes traffic over every ordered link.
    pub fn touch_all(&mut self) -> Vec<Step> {
        let mut steps = Vec::with_capacity(self.n * self.registers);
        for r in 0..self.registers {
            let reg = RegisterId::new(r);
            for p in 0..self.n {
                let proc = ProcessId::new(p);
                let write = (proc == writer_of(reg, self.n)).then(|| self.fresh_value());
                steps.push(Step { proc, reg, write });
            }
        }
        steps
    }
}

impl Iterator for Script {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let reg = RegisterId::new(self.rng.gen_range(0..self.registers));
        let step = if self.rng.gen_bool(0.5) {
            Step {
                proc: writer_of(reg, self.n),
                reg,
                write: Some(self.fresh_value()),
            }
        } else {
            Step {
                proc: ProcessId::new(self.rng.gen_range(0..self.n)),
                reg,
                write: None,
            }
        };
        Some(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_steps_and_fresh_values() {
        let a: Vec<Step> = Script::new(7, 5, 16).take(500).collect();
        let b: Vec<Step> = Script::new(7, 5, 16).take(500).collect();
        let c: Vec<Step> = Script::new(8, 5, 16).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut written: Vec<u64> = a.iter().filter_map(|s| s.write).collect();
        let count = written.len();
        written.dedup();
        assert_eq!(written.len(), count, "written values are pairwise distinct");
        assert!(written.iter().all(|&v| v != 0));
        assert!(a
            .iter()
            .filter(|s| s.write.is_some())
            .all(|s| s.proc == writer_of(s.reg, 5)));
    }

    #[test]
    fn touch_all_covers_every_pair_once() {
        let steps = Script::new(1, 5, 16).touch_all();
        assert_eq!(steps.len(), 80);
        assert_eq!(steps.iter().filter(|s| s.write.is_some()).count(), 16);
    }
}
