//! The BSP programming interface.

use bvl_model::{Envelope, Payload, ProcId};
use std::collections::VecDeque;

/// What a process wants after finishing a superstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Participate in further supersteps.
    Continue,
    /// Done: this process executes no further supersteps. The machine stops
    /// once every process has halted.
    Halt,
}

/// A per-processor BSP program.
///
/// `superstep` is called once per superstep with a [`SuperstepCtx`] exposing
/// the messages delivered at the start of this superstep and collecting the
/// messages to be routed during its communication phase. Local work is
/// accounted via [`SuperstepCtx::charge`]; sends implicitly charge one unit
/// each (preparing a message is a local operation).
pub trait BspProcess: Send {
    /// Execute the local computation phase of one superstep.
    fn superstep(&mut self, ctx: &mut SuperstepCtx<'_>) -> Status;
}

impl BspProcess for Box<dyn BspProcess> {
    fn superstep(&mut self, ctx: &mut SuperstepCtx<'_>) -> Status {
        (**self).superstep(ctx)
    }
}

/// The view a process has of the machine during its local computation phase.
///
/// The context reads the input pool in place: [`SuperstepCtx::recv`] moves
/// each envelope out of the front of the caller's `inbox` deque — no
/// per-message clone, no second buffer — and whatever the program leaves
/// unread stays there, ahead of the next communication phase's arrivals
/// (the caller decides whether to keep or discard it, per the machine's
/// pool semantics). Sends append to the caller's `outbox` after whatever it
/// already holds, so one buffer can collect a whole block of processors'
/// sends in `(sender, submission)` order.
#[derive(Debug)]
pub struct SuperstepCtx<'a> {
    me: ProcId,
    p: usize,
    superstep: u64,
    inbox: &'a mut VecDeque<Envelope>,
    outbox: &'a mut Vec<(ProcId, Payload)>,
    /// `outbox.len()` when the context was built.
    start: usize,
    work: u64,
}

impl<'a> SuperstepCtx<'a> {
    /// Build a context for one local computation phase over `inbox` (read
    /// in place) and `outbox` (appended to). Neither buffer is replaced, so
    /// both keep their allocations across supersteps: a caller that reuses
    /// them allocates only when a superstep brings more messages than the
    /// buffers have held before. Public so that external host simulators
    /// (e.g. the BSP-on-LogP runner in `bvl-core`) can drive `BspProcess`
    /// implementations outside [`crate::BspMachine`].
    pub fn new(
        me: ProcId,
        p: usize,
        superstep: u64,
        inbox: &'a mut VecDeque<Envelope>,
        outbox: &'a mut Vec<(ProcId, Payload)>,
    ) -> SuperstepCtx<'a> {
        let start = outbox.len();
        SuperstepCtx {
            me,
            p,
            superstep,
            inbox,
            outbox,
            start,
            work: 0,
        }
    }

    /// This processor's id.
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Machine size `p`.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Zero-based index of the current superstep.
    pub fn superstep_index(&self) -> u64 {
        self.superstep
    }

    /// Number of messages still unread in the input pool.
    pub fn inbox_len(&self) -> usize {
        self.inbox.len()
    }

    /// Extract the next message from the input pool (messages arrive sorted
    /// by sender id, then by submission order at the sender — a fixed,
    /// deterministic order).
    pub fn recv(&mut self) -> Option<Envelope> {
        self.inbox.pop_front()
    }

    /// Extract all remaining messages from the input pool.
    pub fn recv_all(&mut self) -> Vec<Envelope> {
        self.inbox.drain(..).collect()
    }

    /// Insert a message into the output pool; it is routed during this
    /// superstep's communication phase and becomes available to `dst` at the
    /// start of the next superstep. Charges one local operation.
    ///
    /// # Panics
    /// If `dst` is outside `0..p`.
    pub fn send(&mut self, dst: ProcId, payload: Payload) {
        assert!(
            dst.index() < self.p,
            "send to {dst:?} on a p={} machine",
            self.p
        );
        self.work += 1;
        self.outbox.push((dst, payload));
    }

    /// Account `w` units of local computation.
    pub fn charge(&mut self, w: u64) {
        self.work += w;
    }

    /// Tear down into `(work, messages sent)`; the sends are the last
    /// `messages sent` entries of the outbox. Public for the same external
    /// host simulators as [`SuperstepCtx::new`].
    pub fn finish(self) -> (u64, usize) {
        (self.work, self.outbox.len() - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_send_and_charge_accumulate_work() {
        let mut inbox = VecDeque::new();
        let mut outbox = vec![(ProcId(3), Payload::tagged(1))];
        let mut ctx = SuperstepCtx::new(ProcId(0), 4, 0, &mut inbox, &mut outbox);
        ctx.charge(5);
        ctx.send(ProcId(1), Payload::word(0, 9));
        ctx.send(ProcId(2), Payload::word(0, 9));
        let (w, sent) = ctx.finish();
        assert_eq!(w, 7);
        assert_eq!(sent, 2);
        // Sends append after what the outbox already held.
        assert_eq!(outbox.len(), 3);
        assert_eq!(outbox[1].0, ProcId(1));
    }

    #[test]
    fn ctx_recv_in_order() {
        let mut inbox = VecDeque::from(vec![
            Envelope::new(ProcId(1), ProcId(0), Payload::word(0, 10)),
            Envelope::new(ProcId(2), ProcId(0), Payload::word(0, 20)),
            Envelope::new(ProcId(3), ProcId(0), Payload::word(0, 30)),
        ]);
        let mut outbox = Vec::new();
        let mut ctx = SuperstepCtx::new(ProcId(0), 4, 1, &mut inbox, &mut outbox);
        assert_eq!(ctx.inbox_len(), 3);
        assert_eq!(ctx.recv().unwrap().payload.expect_word(), 10);
        assert_eq!(ctx.inbox_len(), 2);
        ctx.finish();
        // The unread remainder stays in the inbox, in order.
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox[0].payload.expect_word(), 20);
        let mut ctx = SuperstepCtx::new(ProcId(0), 4, 1, &mut inbox, &mut outbox);
        let rest = ctx.recv_all();
        assert_eq!(rest.len(), 2);
        assert!(ctx.recv().is_none());
    }

    #[test]
    #[should_panic(expected = "send to")]
    fn ctx_rejects_bad_destination() {
        let mut inbox = VecDeque::new();
        let mut outbox = Vec::new();
        let mut ctx = SuperstepCtx::new(ProcId(0), 2, 0, &mut inbox, &mut outbox);
        ctx.send(ProcId(2), Payload::tagged(0));
    }
}
