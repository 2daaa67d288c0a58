//! The load generator: one thread that sends requests (on an open-loop
//! schedule or as a closed loop of a fixed window) and records each
//! request's *own* completion.
//!
//! Completions are collected by waiting on the oldest outstanding
//! handle with a short timeout and sweeping every other handle after
//! each wake, so a request that finishes before an older one (two
//! shards answer out of order) is stamped within [`POLL`] of its
//! completion instead of inheriting its predecessor's wait.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cbb_serve::{Canceled, Completion, CompletionHandle};

use crate::workload::Op;

/// Longest a completion that is not the oldest outstanding one can go
/// unnoticed.
pub const POLL: Duration = Duration::from_micros(100);

/// Threads the generator runs on (this one).
pub const GENERATOR_THREADS: usize = 1;

/// Which part of the run a request belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Untimed: caches fill.
    Warmup,
    /// Timed open loop.
    Open,
    /// Timed closed loop at a fixed window.
    Saturation,
}

/// How a request ended.
#[derive(Debug)]
pub enum Outcome {
    /// Still outstanding (never left in a finished run).
    Pending,
    /// Answered (possibly with `Response::Failed`).
    Done(Completion),
    /// The service refused admission.
    Refused,
    /// The service dropped the request unanswered.
    Canceled,
}

/// One request as the generator saw it. Times are offsets from the
/// generator's epoch.
#[derive(Debug)]
pub struct Record {
    /// What was sent.
    pub op: Op,
    /// Phase it was sent in.
    pub phase: Phase,
    /// When it was due (open loop) or sent (closed loop).
    pub due: Duration,
    /// When the generator called submit.
    pub sent: Duration,
    /// How long the submit call took (zero unless timed).
    pub submit_call: Duration,
    /// When its completion was observed.
    pub done: Duration,
    /// How it ended.
    pub outcome: Outcome,
}

/// Hands one request to the service; `None` when admission is refused.
type Submit<'a> = Box<dyn Fn(&Op) -> Option<CompletionHandle<Completion>> + 'a>;

/// Sends requests through `submit` and records them.
pub struct Generator<'a> {
    submit: Submit<'a>,
    time_submit: bool,
    epoch: Instant,
    pending: VecDeque<(usize, CompletionHandle<Completion>)>,
    /// Every request sent, in admission order.
    pub records: Vec<Record>,
}

impl<'a> Generator<'a> {
    /// A generator whose `submit` returns `None` when admission is refused.
    /// With `time_submit`, every submit call is timed as well.
    pub fn new(
        submit: impl Fn(&Op) -> Option<CompletionHandle<Completion>> + 'a,
        time_submit: bool,
    ) -> Self {
        Generator {
            submit: Box::new(submit),
            time_submit,
            epoch: Instant::now(),
            pending: VecDeque::new(),
            records: Vec::new(),
        }
    }

    /// Time since the generator was created.
    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn send(&mut self, op: Op, phase: Phase, due: Duration) {
        let sent = self.now();
        let (handle, submit_call) = if self.time_submit {
            let call = Instant::now();
            let handle = (self.submit)(&op);
            (handle, call.elapsed())
        } else {
            ((self.submit)(&op), Duration::ZERO)
        };
        let idx = self.records.len();
        self.records.push(Record {
            op,
            phase,
            due,
            sent,
            submit_call,
            done: Duration::ZERO,
            outcome: Outcome::Pending,
        });
        match handle {
            Some(handle) => self.pending.push_back((idx, handle)),
            None => {
                let now = self.now();
                let record = &mut self.records[idx];
                record.outcome = Outcome::Refused;
                record.done = now;
            }
        }
    }

    fn finish(&mut self, idx: usize, result: Result<Completion, Canceled>) {
        let now = self.now();
        let record = &mut self.records[idx];
        record.done = now;
        record.outcome = match result {
            Ok(completion) => Outcome::Done(completion),
            Err(Canceled) => Outcome::Canceled,
        };
    }

    /// Record every completion that is ready; returns how many.
    fn reap(&mut self) -> usize {
        let mut still = VecDeque::with_capacity(self.pending.len());
        let mut ready = Vec::new();
        for (idx, handle) in self.pending.drain(..) {
            match handle.try_wait() {
                Some(result) => ready.push((idx, result)),
                None => still.push_back((idx, handle)),
            }
        }
        self.pending = still;
        let n = ready.len();
        for (idx, result) in ready {
            self.finish(idx, result);
        }
        n
    }

    /// Wait up to `limit` on the oldest outstanding request, then
    /// sweep the rest. Returns how many completed.
    fn wait_oldest(&mut self, limit: Duration) -> usize {
        let Some((idx, handle)) = self.pending.pop_front() else {
            std::thread::sleep(limit);
            return 0;
        };
        match handle.wait_timeout(limit.min(POLL)) {
            Ok(result) => {
                self.finish(idx, result);
                1 + self.reap()
            }
            Err(handle) => {
                self.pending.push_front((idx, handle));
                self.reap()
            }
        }
    }

    /// Collect completions until `deadline`.
    fn wait_until(&mut self, deadline: Duration) {
        loop {
            let now = self.now();
            if now >= deadline {
                return;
            }
            self.wait_oldest(deadline - now);
        }
    }

    /// Collect completions until nothing is outstanding.
    pub fn drain(&mut self) {
        while !self.pending.is_empty() {
            self.wait_oldest(POLL);
        }
    }

    /// Send `ops` at their due offsets (milliseconds from the phase
    /// start), stopping at the first op due after `length`; then wait
    /// for every answer. Returns the phase's `(start, end)` offsets.
    pub fn open_loop(&mut self, ops: &[(f64, Op)], length: Duration) -> (Duration, Duration) {
        let start = self.now();
        for (at_ms, op) in ops {
            let offset = Duration::from_secs_f64(at_ms / 1e3);
            if offset >= length {
                break;
            }
            let due = start + offset;
            self.wait_until(due);
            self.send(op.clone(), Phase::Open, due);
        }
        self.drain();
        (start, start + length)
    }

    /// Keep `window` requests outstanding, refilling from `ops` as
    /// answers arrive, for `length` (or until `ops` runs out when
    /// `length` is `None`); then wait for every answer. Returns the
    /// phase's `(start, end)` offsets.
    pub fn closed_loop(
        &mut self,
        ops: &[Op],
        window: usize,
        length: Option<Duration>,
        phase: Phase,
    ) -> (Duration, Duration) {
        let start = self.now();
        let end = length.map(|l| start + l);
        let mut next = ops.iter();
        loop {
            let open = end.is_none_or(|end| self.now() < end);
            if open {
                while self.pending.len() < window {
                    match next.next() {
                        Some(op) => {
                            let now = self.now();
                            self.send(op.clone(), phase, now);
                        }
                        None => {
                            assert!(
                                end.is_none(),
                                "saturation phase ran out of generated requests"
                            );
                            break;
                        }
                    }
                }
            }
            if self.pending.is_empty() || !open {
                break;
            }
            self.wait_oldest(POLL);
        }
        let stop = end.unwrap_or_else(|| self.now());
        self.drain();
        (start, stop)
    }
}
