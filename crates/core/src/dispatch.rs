//! The dispatch engine shared by [`FleetSim`](crate::fleet::FleetSim) and
//! [`Orchestrator`](crate::orchestrator::Orchestrator).
//!
//! Both front-ends serve a replica table the same way. Arrivals pop from
//! an [`EventQueue`] in `(arrival, id)` order, and each one is a barrier:
//! the replicas whose event streams trail it are popped from a merged
//! [`EventQueue`] keyed by local clock, advanced to the arrival (in
//! parallel when many are due), re-queued, and their cached
//! [`ReplicaSnapshot`]s refreshed. The front-end then makes one
//! [`Decision`] for the arrival; a dispatch re-activates a drained
//! replica, and after the last arrival every remaining stream drains.
//!
//! The merge also carries [`SimEvent::ReplicaWarmup`] entries, which the
//! front-end schedules and interprets. Warmups are inclusive at the
//! barrier instant (capacity ready at `t` serves the arrival at `t`),
//! replica streams strictly before it.

use std::collections::HashSet;
use std::sync::Mutex;

use neupims_types::{Cycle, RequestId, SimError};

use crate::backend::{Backend, BackendError};
use crate::event::{EventQueue, SimEvent};
use crate::fleet::{FleetOutcome, FleetRequest, ReplicaSnapshot};
use crate::serving::{ServingSim, StepEvent};

/// Below this many due replicas a dispatch barrier advances them inline.
/// Scoped-thread fan-out (spawn + join per barrier) costs tens of
/// microseconds, while a due replica between dispatch points typically
/// owes a single iteration jump — so threads only pay off on wide
/// barriers: bursty arrival fronts and the final drain.
const PARALLEL_MIN_DUE: usize = 64;

/// What a front-end does with one arrival once the barrier has advanced
/// the replicas to it.
pub(crate) enum Decision<R> {
    /// Submit the request to replica `i` at the arrival instant.
    Dispatch(usize),
    /// Put this copy of the request, its arrival moved later, back on the
    /// arrival queue.
    Requeue(R),
    /// Drop the request; the front-end has already counted it.
    Shed,
}

/// A queued request: a [`FleetRequest`], possibly with front-end tags.
pub(crate) trait Arrival: Copy {
    fn request(&self) -> &FleetRequest;
}

/// The per-front-end part of a run: one [`Decision`] per arrival, and
/// what a [`SimEvent::ReplicaWarmup`] means.
pub(crate) trait FrontEnd<B: Backend> {
    type Req: Arrival;

    /// The cycle replica `i`'s warmup completes, when it is warming as a
    /// run starts.
    fn warming(&self, _i: usize) -> Option<Cycle> {
        None
    }

    /// Replica `i`'s warmup completed at `at`.
    fn warmed(&mut self, _i: usize, _at: Cycle) {}

    /// Decides the arrival `req` at `t`. `snaps` hold every replica's
    /// live state; warmups the front-end commits go on `merge`. An error
    /// aborts the run with `req` re-stashed.
    fn decide(
        &mut self,
        t: Cycle,
        req: &Self::Req,
        replicas: &[ServingSim<B>],
        snaps: &[ReplicaSnapshot],
        merge: &mut EventQueue<SimEvent>,
    ) -> Result<Decision<Self::Req>, SimError>;

    /// `req` was submitted to replica `i`.
    fn dispatched(&mut self, _i: usize, _req: &Self::Req) {}

    /// The request count the aggregate reports as submitted.
    fn submitted(&self) -> u64;
}

/// Runs every pending request through `front` and drains the replicas.
///
/// On error the undispatched requests, the failing one included, are back
/// in `pending`; which replicas already advanced past the failed barrier
/// is unspecified.
pub(crate) fn run<B: Backend, F: FrontEnd<B>>(
    replicas: &mut [ServingSim<B>],
    pending: &mut Vec<F::Req>,
    jobs: usize,
    front: &mut F,
) -> Result<FleetOutcome, SimError> {
    let mut queued = std::mem::take(pending);
    queued.sort_by_key(|r| (r.request().arrival, r.request().id));
    let mut arrivals: EventQueue<F::Req> = EventQueue::new();
    for r in queued {
        arrivals.push(r.request().arrival, r);
    }

    // The merged per-replica event streams: each non-idle replica appears
    // once, keyed by its local clock (= how far its stream has been
    // serviced). Snapshots are cached and refreshed only for replicas
    // that stepped, warmed or received work — a dispatch is O(due
    // replicas), not O(fleet).
    let mut merge: EventQueue<SimEvent> = EventQueue::new();
    for (i, r) in replicas.iter().enumerate() {
        if let Some(ready_at) = front.warming(i) {
            merge.push(ready_at, SimEvent::ReplicaWarmup(i));
        } else if !r.is_idle() {
            merge.push(r.now(), SimEvent::ReplicaIdle(i));
        }
    }
    let mut snaps: Vec<ReplicaSnapshot> = replicas
        .iter()
        .enumerate()
        .map(|(i, r)| snapshot_of(r, i))
        .collect();

    let mut due: Vec<usize> = Vec::new();
    while let Some((t, req)) = arrivals.pop() {
        // Dispatch barrier: advance exactly the replicas whose streams
        // trail the arrival, so the front-end sees live queues. Idle
        // replicas are not in the merge and stay where they are (their
        // snapshot is empty anyway).
        due.clear();
        while let Some((at, ev)) = merge.peek() {
            if at > t || (at == t && !matches!(ev, SimEvent::ReplicaWarmup(_))) {
                break;
            }
            let (at, ev) = merge.pop().expect("peeked");
            match ev {
                SimEvent::ReplicaIdle(i) => due.push(i),
                SimEvent::ReplicaWarmup(i) => {
                    front.warmed(i, at);
                    snaps[i] = snapshot_of(&replicas[i], i);
                }
                other => unreachable!("unexpected merge event {other:?}"),
            }
        }
        due.sort_unstable();
        if let Err(e) = advance_set(replicas, &due, t, jobs) {
            return Err(restash(pending, req, &mut arrivals, e));
        }
        for &i in &due {
            if !replicas[i].is_idle() {
                merge.push(replicas[i].now(), SimEvent::ReplicaIdle(i));
            }
            snaps[i] = snapshot_of(&replicas[i], i);
        }

        let i = match front.decide(t, &req, replicas, &snaps, &mut merge) {
            Ok(Decision::Dispatch(i)) => i,
            Ok(Decision::Requeue(later)) => {
                arrivals.push(later.request().arrival, later);
                continue;
            }
            Ok(Decision::Shed) => continue,
            Err(e) => return Err(restash(pending, req, &mut arrivals, e)),
        };
        let r = *req.request();
        let was_idle = replicas[i].is_idle();
        if let Err(e) = replicas[i].submit(r.id, r.input_len, r.output_len, t) {
            return Err(restash(pending, req, &mut arrivals, e));
        }
        front.dispatched(i, &req);
        snaps[i] = snapshot_of(&replicas[i], i);
        if was_idle {
            // The dispatch re-activates a drained replica: back into the
            // merge at its (possibly stale) local clock.
            merge.push(replicas[i].now(), SimEvent::ReplicaIdle(i));
        }
    }

    // Drain phase: no more dispatch barriers, so every remaining stream
    // runs to completion — fully parallel.
    let mut active: Vec<usize> = Vec::new();
    while let Some((at, ev)) = merge.pop() {
        match ev {
            SimEvent::ReplicaIdle(i) => active.push(i),
            SimEvent::ReplicaWarmup(i) => front.warmed(i, at),
            other => unreachable!("unexpected merge event {other:?}"),
        }
    }
    active.sort_unstable();
    advance_set(replicas, &active, Cycle::MAX, jobs)?;

    let outcomes = replicas.iter().map(ServingSim::outcome).collect();
    Ok(FleetOutcome::aggregate(front.submitted(), outcomes))
}

/// Puts the in-flight arrival and everything still queued back into
/// `pending`, so a failed round keeps request conservation, and hands
/// back `err`.
fn restash<R>(
    pending: &mut Vec<R>,
    current: R,
    arrivals: &mut EventQueue<R>,
    err: SimError,
) -> SimError {
    pending.push(current);
    while let Some((_, r)) = arrivals.pop() {
        pending.push(r);
    }
    err
}

/// Replica `index`'s live state as a [`ReplicaSnapshot`].
pub(crate) fn snapshot_of<B: Backend>(r: &ServingSim<B>, index: usize) -> ReplicaSnapshot {
    ReplicaSnapshot {
        index,
        now: r.now(),
        waiting: r.waiting_len(),
        running: r.running_len(),
        preempted: r.preempted_len(),
        outstanding_tokens: r.outstanding_tokens(),
        kv_utilization: r.kv_utilization(),
        kv_pressure: r.kv_pressure(),
    }
}

/// The constructor checks both front-ends share: the table is non-empty
/// and every replica drains (one with `target_completions > 0` would stop
/// early and strand its queued requests). `owner`, `unit` and `units`
/// name the front-end and its replicas in the error.
pub(crate) fn check_table<B: Backend>(
    replicas: &[ServingSim<B>],
    owner: &str,
    unit: &str,
    units: &str,
) -> Result<(), BackendError> {
    let invalid = |msg: String| Err(BackendError::InvalidSimulation(msg));
    if replicas.is_empty() {
        return invalid(format!("{owner} needs at least one {unit}"));
    }
    match replicas
        .iter()
        .position(|r| r.config().target_completions > 0)
    {
        Some(i) => invalid(format!(
            "{owner} {unit} {i} has target_completions > 0; {units} must drain \
             (set target_completions to 0)"
        )),
        None => Ok(()),
    }
}

/// The submit checks both front-ends share: a zero `output_len` is
/// malformed and ids are unique over the front-end's lifetime. `check`
/// runs between the two, so a request it rejects never claims its id.
/// An accepted request joins `pending`.
pub(crate) fn accept<R: Arrival>(
    seen: &mut HashSet<RequestId>,
    pending: &mut Vec<R>,
    r: R,
    check: impl FnOnce() -> Result<(), SimError>,
) -> Result<(), SimError> {
    let id = RequestId::new(r.request().id);
    if r.request().output_len == 0 {
        return Err(SimError::InvalidShape(format!(
            "request {id} has zero output_len"
        )));
    }
    check()?;
    if !seen.insert(id) {
        return Err(SimError::DuplicateRequest(id));
    }
    pending.push(r);
    Ok(())
}

/// The worker count for a requested `jobs`: `0` means one worker per
/// available core (the dispatcher thread mostly waits at barriers).
pub(crate) fn worker_count(jobs: usize) -> usize {
    match jobs {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// The per-replica advancement primitive: steps `replica` until its local
/// clock reaches `horizon` or its stream drains. This is exactly the
/// lockstep dispatcher's inner loop, so running it per replica — serially
/// or on a worker thread — reproduces lockstep behavior bit for bit.
pub(crate) fn advance_to<B: Backend>(
    replica: &mut ServingSim<B>,
    horizon: Cycle,
) -> Result<(), SimError> {
    while replica.now() < horizon {
        if replica.step()? == StepEvent::Finished {
            break;
        }
    }
    Ok(())
}

/// The barrier primitive: advances the replicas named by `due` (sorted,
/// distinct indices) to `horizon`, fanning out over up to `jobs` scoped
/// worker threads when the due set is large enough to pay for it.
/// Replicas share no state between barriers, so per-replica results are
/// identical however the work is divided; on error the lowest-indexed
/// failing replica's error is returned regardless of worker interleaving.
fn advance_set<B: Backend>(
    replicas: &mut [ServingSim<B>],
    due: &[usize],
    horizon: Cycle,
    jobs: usize,
) -> Result<(), SimError> {
    if jobs <= 1 || due.len() < PARALLEL_MIN_DUE {
        for &i in due {
            advance_to(&mut replicas[i], horizon)?;
        }
        return Ok(());
    }

    // Split the replica slice into disjoint &mut handles for the due
    // indices (O(due), relying on `due` being sorted and distinct).
    let mut handles: Vec<&mut ServingSim<B>> = Vec::with_capacity(due.len());
    let mut rest: &mut [ServingSim<B>] = replicas;
    let mut offset = 0;
    for &i in due {
        let (_, tail) = rest.split_at_mut(i - offset);
        let (r, tail) = tail.split_first_mut().expect("due indices are in range");
        handles.push(r);
        rest = tail;
        offset = i + 1;
    }

    let chunk = handles.len().div_ceil(jobs).max(1);
    let first_err: Mutex<Option<(usize, SimError)>> = Mutex::new(None);
    std::thread::scope(|s| {
        for (ci, chunk_refs) in handles.chunks_mut(chunk).enumerate() {
            let first_err = &first_err;
            s.spawn(move || {
                for (j, replica) in chunk_refs.iter_mut().enumerate() {
                    if let Err(e) = advance_to(replica, horizon) {
                        let index = due[ci * chunk + j];
                        let mut slot = first_err.lock().expect("no worker panics");
                        if slot.as_ref().is_none_or(|(lowest, _)| index < *lowest) {
                            *slot = Some((index, e));
                        }
                        // Keep the rest of the chunk untouched: the
                        // erroring replica's successors advance on
                        // the next (re-run) barrier instead.
                        break;
                    }
                }
            });
        }
    });
    match first_err.into_inner().expect("no worker panics") {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}
