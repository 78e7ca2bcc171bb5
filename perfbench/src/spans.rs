//! The benchmark's own span recorder, and the interval arithmetic that turns
//! recorded spans into busy, self and wall times.
//!
//! Spans are opened by the timing wrappers in [`crate::seams`] around calls
//! into the program's public trait seams. Each carries its seam, its id, the
//! id of the span that caused it, the protocol round and its start and end.
//! They are kept in memory and analysed when the traced run ends, so no I/O
//! happens while the program is being measured.
//!
//! Parent links: the thread that created the [`Tracer`] (its owner) keeps a
//! stack of open spans; a span opened on any other thread — an attack-scoring
//! worker of `cia_data::parallel` — takes the owner's innermost open span as
//! its parent, because the owner is blocked inside that span while the
//! workers run.

use crate::clock;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call site; its `Debug` name labels the printed round breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Seam {
    /// `cia_scenarios::try_build_setup`.
    Setup,
    /// Building every client through `GmfSpec::build_client`.
    BuildClients,
    /// One `step_evented` call of FedAvg or the gossip simulation.
    Round,
    /// The utility (HR@20) evaluation after the last round.
    Utility,
    /// `Participant::absorb_agg`.
    AbsorbAgg,
    /// `Participant::mix_agg`.
    MixAgg,
    /// `Participant::train_local`.
    TrainLocal,
    /// `Participant::fed_round`.
    FedRound,
    /// `Participant::snapshot` and `Participant::snapshot_into`.
    Snapshot,
    /// `Participant::accumulate_update`.
    Accumulate,
    /// `Participant::evaluate_model`.
    EvaluateModel,
    /// The attack folding one observed model into its momentum
    /// (`on_client_model` / `on_delivery`).
    AttackUpdate,
    /// An observer `on_round_end` that recorded an attack evaluation.
    AttackEval,
    /// An observer `on_round_end` that did not evaluate.
    AttackRoundEnd,
    /// `RelevanceEvaluator::prepare`.
    AttackPrepare,
    /// `RelevanceEvaluator::relevance_all`.
    AttackScore,
    /// `UpdateTransform::transform` (DP clip + noise).
    Transform,
}

/// A closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed.
    pub seam: Seam,
    /// Unique id, from 1.
    pub id: u32,
    /// Id of the enclosing span, 0 for a root span.
    pub parent: u32,
    /// Protocol round the span ran in (the round the owner last announced).
    pub round: u32,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

thread_local! {
    static OWNER: Cell<bool> = const { Cell::new(false) };
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from the owner thread and from the program's workers.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    round: AtomicU32,
    /// The owner's innermost open span: the parent of worker-thread spans.
    owner_top: AtomicU32,
}

impl Tracer {
    /// Creates a tracer and makes the calling thread its owner.
    #[must_use]
    pub fn new() -> Arc<Self> {
        OWNER.with(|d| d.set(true));
        STACK.with(|s| s.borrow_mut().clear());
        Arc::new(Tracer {
            epoch: clock::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
            round: AtomicU32::new(0),
            owner_top: AtomicU32::new(0),
        })
    }

    /// Labels spans opened from now on with protocol round `round`.
    pub fn set_round(&self, round: u64) {
        // Rounds of the benchmark's workloads stay far below 2^32.
        self.round.store(u32::try_from(round).unwrap_or(u32::MAX), Ordering::SeqCst);
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, seam: Seam) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let owner = OWNER.with(Cell::get);
        let parent = if owner {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                let parent = s.last().copied().unwrap_or(0);
                s.push(id);
                parent
            })
        } else {
            self.owner_top.load(Ordering::SeqCst)
        };
        if owner {
            self.owner_top.store(id, Ordering::SeqCst);
        }
        SpanGuard {
            tracer: self,
            seam,
            id,
            parent,
            owner,
            round: self.round.load(Ordering::SeqCst),
            start: self.elapsed_ns(),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Takes every closed span, sorted by id.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("a span writer panicked"));
        spans.sort_unstable_by_key(|s| s.id);
        spans
    }
}

/// Closes its span on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    seam: Seam,
    id: u32,
    parent: u32,
    owner: bool,
    round: u32,
    start: u64,
}

impl SpanGuard<'_> {
    /// Changes what the span will be recorded as (decided once the timed
    /// call has returned).
    pub fn relabel(&mut self, seam: Seam) {
        self.seam = seam;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.elapsed_ns();
        if self.owner {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                s.pop();
                self.tracer.owner_top.store(s.last().copied().unwrap_or(0), Ordering::SeqCst);
            });
        }
        let span = Span {
            seam: self.seam,
            id: self.id,
            parent: self.parent,
            round: self.round,
            start: self.start,
            end,
        };
        // A poisoned lock only means another span writer panicked; the
        // vector itself is always valid, so keep recording.
        match self.tracer.spans.lock() {
            Ok(mut spans) => spans.push(span),
            Err(poisoned) => poisoned.into_inner().push(span),
        }
    }
}

/// Opens a span on `tracer` when tracing is on; `None` times nothing.
pub fn open(tracer: Option<&Tracer>, seam: Seam) -> Option<SpanGuard<'_>> {
    tracer.map(|t| t.span(seam))
}

/// Total length of the union of `intervals` (sorted in place).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span (same order as `spans`, which must be sorted by
/// id with ids `1..=len`): its duration minus the union of its children's
/// intervals, clipped to the span. Children may overlap each other when they
/// ran on parallel workers.
///
/// # Panics
///
/// Panics if the spans are not exactly the ids `1..=len` in order.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(s.id as usize, i + 1, "spans must be the ids 1..=n in order");
    }
    let mut children: Vec<(u32, u64, u64)> =
        spans.iter().filter(|s| s.parent != 0).map(|s| (s.parent, s.start, s.end)).collect();
    children.sort_unstable();
    let mut out: Vec<u64> = spans.iter().map(Span::dur).collect();
    let mut i = 0;
    while i < children.len() {
        let parent = children[i].0;
        let mut j = i;
        let p = &spans[parent as usize - 1];
        let mut clipped = Vec::new();
        while j < children.len() && children[j].0 == parent {
            let (_, s, e) = children[j];
            let (s, e) = (s.max(p.start), e.min(p.end));
            if s < e {
                clipped.push((s, e));
            }
            j += 1;
        }
        out[parent as usize - 1] -= union_len(&mut clipped);
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span { seam: Seam::Round, id, parent, round: 0, start, end }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(5, 9), (0, 2), (1, 3), (8, 10)]), 3 + 5);
    }

    #[test]
    fn self_time_subtracts_the_union_of_parallel_children() {
        // Root 0..100 with two overlapping worker children (10..50, 30..60)
        // and a grandchild that must not count against the root.
        let spans =
            [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 60), span(4, 2, 20, 30)];
        assert_eq!(self_times(&spans), vec![50, 30, 30, 10]);
    }

    #[test]
    fn worker_spans_nest_under_the_owner_span() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.span(Seam::AttackEval);
            std::thread::scope(|s| {
                s.spawn(|| drop(tracer.span(Seam::AttackScore)));
            });
            drop(tracer.span(Seam::AttackPrepare));
        }
        let spans = tracer.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, 0);
        assert!(spans[1..].iter().all(|s| s.parent == 1));
    }
}
