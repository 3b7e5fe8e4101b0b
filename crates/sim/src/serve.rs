//! Open-system serving: mid-run request injection.
//!
//! PR 4's serving mixes are a *closed* system — every request is
//! pre-tagged into the [`Program`] with a fixed arrival cycle. This
//! module opens the system: a [`RequestInjector`] holds the request
//! arrival schedule (drawn from a seeded arrival process upstream) and
//! a [`ServePolicy`] — the third policy axis beside arbitration ×
//! throttling — and decides, mid-run, when each request's thread
//! blocks become visible to the [`TbScheduler`].
//!
//! ## Injection contract (never-late, like every other wake bound)
//!
//! The fast-forward engine may only skip a cycle range if no component
//! changes state inside it. Admission changes scheduler state, so the
//! injector exports a wake bound with the same discipline as the NoC
//! queues and the throttle sampler:
//!
//! * **queue empty** → no bound (the injector is drained);
//! * **admission capacity available** → the front request's arrival
//!   cycle: nothing can be admitted earlier, and the bound cannot move
//!   earlier because the schedule is fixed up front;
//! * **capacity-blocked** → no bound from the injector itself; the
//!   *completion* that frees capacity is a retirement event the engine
//!   already executes, and the system re-arms the injector wake to
//!   `now + 1` at that retirement.
//!
//! Admissions run as **phase 0** of the tick (before NoC delivery), so
//! a block admitted at cycle `t` is fetchable by its core's phase-4
//! tick of the same cycle — in both step modes, at the same cycles,
//! which is what keeps `StepMode::Skip` byte-identical to `Cycle`.
//!
//! ## Overload admission and preemption
//!
//! Under overload "when to admit" stops being the whole question; the
//! serving axis grows to "whether, and at whose expense":
//!
//! * [`ServePolicy::RejectAboveQueue`] terminally rejects an arrival
//!   that finds `depth` requests already waiting — a rejection is a
//!   phase-0 event at the request's own arrival cycle, so the wake
//!   bound covers *every* future arrival while slots are full;
//! * [`ServePolicy::DeadlineDrop`] drops a still-queued request the
//!   cycle its age reaches the TTFT deadline (a request that cannot
//!   start in time has already missed its SLO) — the wake bound is the
//!   earliest queued expiry, fixed once the schedule is known;
//! * [`ServePolicy::PriorityPreempt`] admits a higher-class arrival by
//!   withholding a lowest-class victim's *unissued* blocks back to the
//!   admission queue (no mid-block rollback: blocks already issued to
//!   cores run to retirement; the victim re-enters the queue at its
//!   original `(arrival, id)` position and re-injects only the
//!   withdrawn blocks when re-admitted).
//!
//! All three are deterministic functions of `(now, schedule, scheduler
//! state)` evaluated at phase 0, and every wake bound stays never-late
//! (preemption bounds are optimistic: a class-feasible preemption may
//! turn out block-infeasible at fire time, which costs a spurious wake,
//! never a missed one) — so `StepMode::Skip` stays byte-identical with
//! rejection, deadline drops and preemption attached.
//!
//! ## Determinism
//!
//! The admission queue is statically sorted by `(arrival, request id)`,
//! so two requests landing on the same cycle are admitted in request-id
//! order — there is no tie to break at run time.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::prog::{Program, RequestId, TbId};
use crate::sched::{window_chunks, TbScheduler};
use crate::stats::RequestStats;
use crate::types::{CoreId, Cycle, WindowId};

/// Serving-scheduler admission policy: when does a queued request's
/// work become visible to the thread-block scheduler?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePolicy {
    /// Admit every request the cycle it arrives, onto its home cores.
    /// The machine is time-shared by the thread-block scheduler alone.
    Fcfs,
    /// Admit in FCFS order but keep at most `max` requests in flight;
    /// later arrivals wait in the admission queue until a completion
    /// frees a slot.
    MaxConcurrency { max: usize },
    /// Continuous batching: the cores are split into `slots` contiguous
    /// groups; each admitted request owns one group until it completes,
    /// and a completion immediately hands the freed group to the next
    /// queued request (lowest-numbered free slot, FCFS order).
    ContinuousBatching { slots: usize },
    /// Continuous batching with a bounded waiting line: an arrival that
    /// finds every slot busy and `depth` requests already waiting is
    /// *terminally rejected* at its own arrival cycle (reported, never
    /// admitted) instead of stalling the queue without bound.
    RejectAboveQueue { slots: usize, depth: usize },
    /// Continuous batching that drops a still-waiting request the cycle
    /// its queueing age reaches `ttft_deadline`: a request that cannot
    /// even *start* inside its TTFT budget has already missed its SLO,
    /// so the drop sheds the load the deadline made worthless.
    DeadlineDrop { slots: usize, ttft_deadline: Cycle },
    /// Continuous batching with priority classes: an arrived request of
    /// a strictly higher class claims a busy slot by preempting the
    /// lowest-class occupant with withdrawable (unissued) blocks. The
    /// victim's unissued blocks return to the admission queue and
    /// re-inject on re-admission; issued blocks run to retirement.
    PriorityPreempt { slots: usize },
}

impl ServePolicy {
    /// Stable name (labels, JSONL).
    pub fn label(&self) -> String {
        match self {
            ServePolicy::Fcfs => "fcfs".into(),
            ServePolicy::MaxConcurrency { max } => format!("maxc{max}"),
            ServePolicy::ContinuousBatching { slots } => format!("cb{slots}"),
            ServePolicy::RejectAboveQueue { slots, depth } => format!("rej{slots}q{depth}"),
            ServePolicy::DeadlineDrop {
                slots,
                ttft_deadline,
            } => format!("ddl{slots}d{ttft_deadline}"),
            ServePolicy::PriorityPreempt { slots } => format!("prio{slots}"),
        }
    }

    /// Whether the policy partitions the cores into admission slots
    /// (every policy except the whole-machine FCFS / max-concurrency
    /// disciplines).
    fn slot_count(&self) -> usize {
        match *self {
            ServePolicy::Fcfs | ServePolicy::MaxConcurrency { .. } => 0,
            ServePolicy::ContinuousBatching { slots }
            | ServePolicy::RejectAboveQueue { slots, .. }
            | ServePolicy::DeadlineDrop { slots, .. }
            | ServePolicy::PriorityPreempt { slots } => slots,
        }
    }
}

/// Per-block injection target: `(block, relative home core, window)`,
/// precomputed at construction so admission allocates nothing.
type InjectPlan = Vec<(TbId, CoreId, WindowId)>;

/// The open-system request injector: arrival schedule + admission
/// queue + serving policy.
///
/// Built against an *open* program — request-tagged, arrival-free,
/// home cores relative to `0..cores_per_request()` (see
/// `llamcat_trace::mix::generate_serve_set`). Attach to a system with
/// `System::attach_injector` before running.
#[derive(Clone)]
pub struct RequestInjector {
    policy: ServePolicy,
    /// Arrival cycle per request (the open-system schedule). Immutable
    /// after construction and `Arc`-shared, so forking a system for a
    /// policy grid clones a refcount, not the schedule.
    arrivals: Arc<Vec<Cycle>>,
    /// Requests not yet admitted, sorted by `(arrival, request id)`.
    queue: VecDeque<RequestId>,
    /// Injection plan per request, in `TbId` order. Immutable after
    /// construction and `Arc`-shared like `arrivals` (withdrawn
    /// remainders after a preemption live in `pending`, per fork).
    plan: Arc<Vec<InjectPlan>>,
    /// Width of the relative home-core range each request was traced on.
    cores_per_request: usize,
    /// Requests admitted but not yet completed.
    in_flight: usize,
    /// Slot-based policies: which request owns each core group (empty
    /// for FCFS / max-concurrency).
    slots: Vec<Option<RequestId>>,
    /// Slot-based policies: the slot each request was last admitted
    /// into.
    slot_of: Vec<usize>,
    /// Priority class per request (higher preempts lower); all zero
    /// unless [`RequestInjector::with_classes`] set them. Immutable
    /// after construction and `Arc`-shared like `arrivals`.
    classes: Arc<Vec<u8>>,
    /// Per request: the blocks still to inject at (re-)admission.
    /// `None` means the full plan (the common, never-preempted case);
    /// `Some` holds the withdrawn remainder after a preemption.
    pending: Vec<Option<InjectPlan>>,
    /// Thread blocks belonging to terminally rejected/dropped requests
    /// — blocks that will never be injected, and therefore never
    /// retire. Feeds [`crate::system::System::is_done`]'s O(1) counter
    /// guard.
    blocks_shed: u64,
}

impl RequestInjector {
    /// Builds the injector for `program` with the given arrival
    /// schedule. `num_cores` / `num_windows` must match the system the
    /// injector will attach to; each request is chunked over the
    /// windows by the rule [`TbScheduler::new`] uses, so an
    /// FCFS-admitted request is queued exactly as a closed program
    /// would queue it.
    pub fn new(
        program: &Program,
        arrivals: Vec<Cycle>,
        policy: ServePolicy,
        num_cores: usize,
        num_windows: usize,
    ) -> Result<Self, String> {
        let n = program.num_requests();
        if arrivals.len() != n {
            return Err(format!(
                "arrival schedule covers {} requests, program has {n}",
                arrivals.len()
            ));
        }
        if !program.arrivals.is_empty() {
            return Err("open-system programs must not carry per-block arrivals".into());
        }
        let cores_per_request = match policy {
            ServePolicy::Fcfs => num_cores,
            ServePolicy::MaxConcurrency { max } => {
                if max == 0 {
                    return Err("max-concurrency policy needs max >= 1".into());
                }
                num_cores
            }
            ServePolicy::ContinuousBatching { slots }
            | ServePolicy::RejectAboveQueue { slots, .. }
            | ServePolicy::DeadlineDrop { slots, .. }
            | ServePolicy::PriorityPreempt { slots } => {
                if slots == 0 || slots > num_cores {
                    return Err(format!(
                        "slot-based serving policy {} needs 1 <= slots <= num_cores ({num_cores}), got {slots}",
                        policy.label()
                    ));
                }
                if let ServePolicy::DeadlineDrop { ttft_deadline, .. } = policy {
                    if ttft_deadline == 0 {
                        return Err("deadline-drop policy needs ttft_deadline >= 1".into());
                    }
                }
                num_cores / slots
            }
        };
        // Group each request's blocks per relative home core, then
        // chunk each core's list over the windows.
        let mut per_core: Vec<Vec<Vec<TbId>>> = vec![vec![Vec::new(); cores_per_request]; n];
        for (tb, &core) in program.assignment.iter().enumerate() {
            if core >= cores_per_request {
                return Err(format!(
                    "block {tb} homes on relative core {core}, policy {} allows 0..{cores_per_request}",
                    policy.label()
                ));
            }
            per_core[program.request_of(tb) as usize][core].push(tb);
        }
        let mut plan: Vec<InjectPlan> = Vec::with_capacity(n);
        for (r, cores) in per_core.into_iter().enumerate() {
            let mut p = InjectPlan::new();
            for (core, list) in cores.into_iter().enumerate() {
                for (&tb, window) in list.iter().zip(window_chunks(list.len(), num_windows)) {
                    p.push((tb, core, window));
                }
            }
            if p.is_empty() {
                return Err(format!("request {r} contributed no thread blocks"));
            }
            plan.push(p);
        }
        let mut order: Vec<RequestId> = (0..n as RequestId).collect();
        order.sort_by_key(|&r| (arrivals[r as usize], r));
        let slot_count = policy.slot_count();
        Ok(RequestInjector {
            policy,
            arrivals: Arc::new(arrivals),
            queue: order.into(),
            plan: Arc::new(plan),
            cores_per_request,
            in_flight: 0,
            slots: vec![None; slot_count],
            slot_of: vec![0; n],
            classes: Arc::new(vec![0; n]),
            pending: vec![None; n],
            blocks_shed: 0,
        })
    }

    /// Sets the priority class of each request (higher preempts lower
    /// under [`ServePolicy::PriorityPreempt`]; other policies carry the
    /// classes through to the reports untouched).
    pub fn with_classes(mut self, classes: Vec<u8>) -> Result<Self, String> {
        if classes.len() != self.plan.len() {
            return Err(format!(
                "class list covers {} requests, program has {}",
                classes.len(),
                self.plan.len()
            ));
        }
        self.classes = Arc::new(classes);
        Ok(self)
    }

    /// Priority class per request id.
    pub fn classes(&self) -> &[u8] {
        &self.classes
    }

    /// The arrival schedule, indexed by request id.
    pub fn arrivals(&self) -> &[Cycle] {
        &self.arrivals
    }

    pub fn num_requests(&self) -> usize {
        self.plan.len()
    }

    /// Whether every request has been admitted (not necessarily
    /// completed — in-flight work lives in the scheduler and cores).
    pub fn drained(&self) -> bool {
        self.queue.is_empty()
    }

    /// Thread blocks belonging to terminally rejected/dropped requests
    /// (never injected, never retiring). See
    /// [`crate::system::System::is_done`].
    pub fn blocks_shed(&self) -> u64 {
        self.blocks_shed
    }

    /// Whether the policy could admit one more request right now.
    fn has_capacity(&self) -> bool {
        match self.policy {
            ServePolicy::Fcfs => true,
            ServePolicy::MaxConcurrency { max } => self.in_flight < max,
            _ => self.slots.iter().any(|s| s.is_none()),
        }
    }

    /// Claims admission capacity for `r` and returns its base core, or
    /// `None` when the policy is capacity-blocked.
    fn try_claim_capacity(&mut self, r: RequestId) -> Option<usize> {
        match self.policy {
            ServePolicy::Fcfs => Some(0),
            ServePolicy::MaxConcurrency { max } => (self.in_flight < max).then_some(0),
            _ => {
                let slot = self.slots.iter().position(|s| s.is_none())?;
                self.slots[slot] = Some(r);
                self.slot_of[r as usize] = slot;
                Some(slot * self.cores_per_request)
            }
        }
    }

    /// Injects `r`'s pending blocks at `base_core` and stamps its
    /// admission. A re-admitted preemption victim keeps its first
    /// admission cycle and injects only its withdrawn remainder.
    fn admit(
        &mut self,
        r: RequestId,
        base_core: usize,
        now: Cycle,
        sched: &mut TbScheduler,
        requests: &mut [RequestStats],
    ) {
        self.in_flight += 1;
        requests[r as usize].admitted.get_or_insert(now);
        match self.pending[r as usize].take() {
            Some(rest) => {
                for &(tb, core, window) in &rest {
                    sched.inject(tb, base_core + core, window);
                }
            }
            None => {
                for &(tb, core, window) in &self.plan[r as usize] {
                    sched.inject(tb, base_core + core, window);
                }
            }
        }
    }

    /// Removes the queue entry holding `r` (present by construction).
    fn unqueue(&mut self, r: RequestId) {
        let pos = self
            .queue
            .iter()
            .position(|&q| q == r)
            .expect("request is queued");
        self.queue.remove(pos);
    }

    /// Returns `r` to the admission queue at its `(arrival, id)`
    /// position — the statically-sorted order every policy admits in.
    fn requeue(&mut self, r: RequestId) {
        let key = (self.arrivals[r as usize], r);
        let pos = self
            .queue
            .iter()
            .position(|&q| (self.arrivals[q as usize], q) > key)
            .unwrap_or(self.queue.len());
        self.queue.insert(pos, r);
    }

    /// Admits every due request at cycle `now`, pushing its blocks into
    /// the scheduler and stamping its record in `requests` (indexed by
    /// request id); overload policies also reject, drop or preempt here
    /// (phase 0, both step modes, same cycles). Returns whether
    /// anything was *injected* (the caller must then re-arm core wake
    /// bounds — newly injected work is fetchable *this* cycle).
    pub fn run_admissions(
        &mut self,
        now: Cycle,
        sched: &mut TbScheduler,
        requests: &mut [RequestStats],
    ) -> bool {
        if matches!(self.policy, ServePolicy::PriorityPreempt { .. }) {
            return self.run_priority_admissions(now, sched, requests);
        }
        let mut any = false;
        while let Some(&r) = self.queue.front() {
            if self.arrivals[r as usize] > now {
                break;
            }
            let Some(base_core) = self.try_claim_capacity(r) else {
                break;
            };
            self.queue.pop_front();
            self.admit(r, base_core, now, sched, requests);
            any = true;
        }
        match self.policy {
            ServePolicy::RejectAboveQueue { depth, .. } => {
                // Arrived requests beyond the `depth` allowed waiters
                // found a full line *at their own arrival cycle* (the
                // wake bound covers every arrival): terminal rejection.
                let mut waiting = 0;
                let mut i = 0;
                while i < self.queue.len() {
                    let r = self.queue[i];
                    if self.arrivals[r as usize] > now {
                        break;
                    }
                    if waiting < depth {
                        waiting += 1;
                        i += 1;
                        continue;
                    }
                    self.queue.remove(i);
                    requests[r as usize].rejected = Some(now);
                    self.blocks_shed += self.plan[r as usize].len() as u64;
                }
            }
            ServePolicy::DeadlineDrop { ttft_deadline, .. } => {
                // Still-waiting requests whose age reached the TTFT
                // deadline can no longer meet their SLO: drop them.
                // Admissions ran first, so a request admittable exactly
                // at its expiry cycle is served, not shed.
                let mut i = 0;
                while i < self.queue.len() {
                    let r = self.queue[i];
                    let arrival = self.arrivals[r as usize];
                    if arrival > now {
                        break;
                    }
                    if now >= arrival + ttft_deadline {
                        self.queue.remove(i);
                        requests[r as usize].rejected = Some(now);
                        self.blocks_shed += self.plan[r as usize].len() as u64;
                    } else {
                        i += 1;
                    }
                }
            }
            _ => {}
        }
        any
    }

    /// Priority admissions: among the *arrived* queue, the highest
    /// class admits first (earliest `(arrival, id)` inside a class);
    /// when every slot is busy, a strictly-lower-class occupant with
    /// withdrawable blocks is preempted to make room.
    fn run_priority_admissions(
        &mut self,
        now: Cycle,
        sched: &mut TbScheduler,
        requests: &mut [RequestStats],
    ) -> bool {
        let mut any = false;
        loop {
            // Highest-class arrived request; `>` keeps the earliest
            // (arrival, id) entry on class ties.
            let mut best: Option<RequestId> = None;
            for &r in &self.queue {
                if self.arrivals[r as usize] > now {
                    break;
                }
                if best.is_none_or(|b| self.classes[r as usize] > self.classes[b as usize]) {
                    best = Some(r);
                }
            }
            let Some(best) = best else { break };
            if let Some(base_core) = self.try_claim_capacity(best) {
                self.unqueue(best);
                self.admit(best, base_core, now, sched, requests);
                any = true;
                continue;
            }
            if !self.preempt_for(best, sched, requests) {
                break;
            }
            // The freed slot admits `best` on the next loop turn.
        }
        any
    }

    /// Preempts the best victim for `preemptor`: the lowest-class slot
    /// occupant strictly below the preemptor's class (youngest
    /// admission, then highest id on ties) whose unissued blocks can
    /// actually be withdrawn. Returns whether a slot was freed.
    fn preempt_for(
        &mut self,
        preemptor: RequestId,
        sched: &mut TbScheduler,
        requests: &mut [RequestStats],
    ) -> bool {
        let class = self.classes[preemptor as usize];
        let mut victims: Vec<RequestId> = self
            .slots
            .iter()
            .flatten()
            .copied()
            .filter(|&v| self.classes[v as usize] < class)
            .collect();
        // Lowest class first; youngest admission (then highest id) on
        // ties — the cheapest work to redo. Every slot occupant has been
        // admitted, so `admitted` is `Some` throughout.
        victims.sort_by_key(|&v| {
            (
                self.classes[v as usize],
                std::cmp::Reverse(requests[v as usize].admitted),
                std::cmp::Reverse(v),
            )
        });
        for v in victims {
            let mut tbs: Vec<TbId> = self.plan[v as usize].iter().map(|e| e.0).collect();
            tbs.sort_unstable();
            let mut withdrawn = sched.withdraw(|tb| tbs.binary_search(&tb).is_ok());
            withdrawn.sort_unstable();
            if withdrawn.is_empty() {
                // Every block already issued: nothing to withhold, the
                // victim runs to completion. Try the next candidate.
                continue;
            }
            self.pending[v as usize] = Some(
                self.plan[v as usize]
                    .iter()
                    .filter(|e| withdrawn.binary_search(&e.0).is_ok())
                    .copied()
                    .collect(),
            );
            self.slots[self.slot_of[v as usize]] = None;
            self.in_flight = self.in_flight.saturating_sub(1);
            requests[v as usize].preemptions += 1;
            self.requeue(v);
            return true;
        }
        false
    }

    /// Records the completion of request `r`, freeing its admission
    /// capacity (and, for slot-based policies, its core group).
    pub fn note_completion(&mut self, r: RequestId) {
        self.in_flight = self.in_flight.saturating_sub(1);
        if !self.slots.is_empty() {
            let slot = self.slot_of[r as usize];
            if self.slots[slot] == Some(r) {
                self.slots[slot] = None;
            }
        }
    }

    /// Never-late wake bound: the earliest future cycle (>= `now`) at
    /// which the injector could act, or `None` when it is drained or
    /// nothing short of a completion can unblock it (the completion
    /// re-arms the bound).
    ///
    /// * admission capacity available → the front arrival;
    /// * [`ServePolicy::RejectAboveQueue`] capacity-blocked → the next
    ///   *future* arrival (it may have to be rejected at that cycle);
    /// * [`ServePolicy::DeadlineDrop`] → additionally the earliest
    ///   queued expiry `arrival + ttft_deadline`;
    /// * [`ServePolicy::PriorityPreempt`] capacity-blocked → the
    ///   earliest arrival of a queued request whose class exceeds the
    ///   lowest active class (optimistic: the preemption may be
    ///   block-infeasible at fire time — a spurious wake, never a late
    ///   one).
    pub fn next_wake(&self, now: Cycle) -> Option<Cycle> {
        let &front = self.queue.front()?;
        let mut wake: Option<Cycle> = None;
        let mut note = |c: Cycle| {
            wake = Some(wake.map_or(c, |w: Cycle| w.min(c)));
        };
        if self.has_capacity() {
            note(self.arrivals[front as usize].max(now));
        }
        match self.policy {
            ServePolicy::RejectAboveQueue { .. } if !self.has_capacity() => {
                if let Some(&r) = self
                    .queue
                    .iter()
                    .find(|&&r| self.arrivals[r as usize] > now)
                {
                    note(self.arrivals[r as usize]);
                }
            }
            ServePolicy::DeadlineDrop { ttft_deadline, .. } => {
                for &r in &self.queue {
                    note((self.arrivals[r as usize] + ttft_deadline).max(now));
                }
            }
            ServePolicy::PriorityPreempt { .. } if !self.has_capacity() => {
                if let Some(floor) = self
                    .slots
                    .iter()
                    .flatten()
                    .map(|&v| self.classes[v as usize])
                    .min()
                {
                    for &r in &self.queue {
                        if self.classes[r as usize] > floor {
                            note(self.arrivals[r as usize].max(now));
                            break;
                        }
                    }
                }
            }
            _ => {}
        }
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prog::Instr;

    /// 2 requests x 2 blocks each, relative core 0..2, arrival-free.
    fn open_program(requests: usize, blocks_per: usize, cores: usize) -> Program {
        let n = requests * blocks_per;
        let blocks = vec![Vec::<Instr>::new(); n];
        let assignment = (0..n).map(|i| i % cores).collect();
        let tags = (0..n).map(|i| (i / blocks_per) as RequestId).collect();
        Program::with_requests(blocks, assignment, tags, Vec::new())
    }

    fn sched_of(p: &Program, cores: usize, windows: usize) -> TbScheduler {
        let mut s = TbScheduler::new(p, cores, windows);
        s.withhold_all();
        s
    }

    /// Fresh lifecycle records for an `n`-request run.
    fn records(n: usize) -> Vec<RequestStats> {
        vec![RequestStats::default(); n]
    }

    fn admitted(reqs: &[RequestStats]) -> Vec<Option<Cycle>> {
        reqs.iter().map(|r| r.admitted).collect()
    }

    fn rejected(reqs: &[RequestStats]) -> Vec<Option<Cycle>> {
        reqs.iter().map(|r| r.rejected).collect()
    }

    fn preemptions(reqs: &[RequestStats]) -> Vec<u32> {
        reqs.iter().map(|r| r.preemptions).collect()
    }

    #[test]
    fn fcfs_admits_on_arrival_in_id_order() {
        let p = open_program(3, 2, 4);
        let mut inj =
            RequestInjector::new(&p, vec![100, 100, 400], ServePolicy::Fcfs, 4, 2).unwrap();
        let mut sched = sched_of(&p, 4, 2);
        let mut reqs = records(3);
        assert_eq!(inj.next_wake(0), Some(100));
        assert!(!inj.run_admissions(50, &mut sched, &mut reqs));
        // Both cycle-100 requests admitted together, id order is the
        // queue order; request 2 stays queued.
        assert!(inj.run_admissions(100, &mut sched, &mut reqs));
        assert_eq!(admitted(&reqs), vec![Some(100), Some(100), None]);
        assert_eq!(sched.remaining(), 4);
        assert_eq!(inj.next_wake(101), Some(400));
        assert!(inj.run_admissions(400, &mut sched, &mut reqs));
        assert!(inj.drained());
        assert_eq!(inj.next_wake(401), None);
    }

    #[test]
    fn max_concurrency_blocks_until_completion() {
        let p = open_program(3, 1, 2);
        let mut inj = RequestInjector::new(
            &p,
            vec![0, 0, 0],
            ServePolicy::MaxConcurrency { max: 2 },
            2,
            1,
        )
        .unwrap();
        let mut sched = sched_of(&p, 2, 1);
        let mut reqs = records(3);
        inj.run_admissions(0, &mut sched, &mut reqs);
        assert_eq!(admitted(&reqs), vec![Some(0), Some(0), None]);
        // Capacity-blocked: no wake bound of its own.
        assert_eq!(inj.next_wake(1), None);
        inj.note_completion(0);
        assert_eq!(inj.next_wake(5), Some(5));
        inj.run_admissions(5, &mut sched, &mut reqs);
        assert_eq!(reqs[2].admitted, Some(5));
    }

    #[test]
    fn continuous_batching_reassigns_freed_slots() {
        // 4 cores, 2 slots of 2 cores; blocks on relative cores 0..2.
        let p = open_program(3, 2, 2);
        let mut inj = RequestInjector::new(
            &p,
            vec![0, 0, 0],
            ServePolicy::ContinuousBatching { slots: 2 },
            4,
            1,
        )
        .unwrap();
        let mut sched = sched_of(&p, 4, 1);
        let mut reqs = records(3);
        inj.run_admissions(0, &mut sched, &mut reqs);
        // Requests 0, 1 take slots 0, 1; request 2 waits.
        assert_eq!(admitted(&reqs), vec![Some(0), Some(0), None]);
        assert_eq!(sched.queue_len(0) + sched.queue_len(1), 2, "slot 0");
        assert_eq!(sched.queue_len(2) + sched.queue_len(3), 2, "slot 1");
        // Request 1 completes: its slot (cores 2..4) goes to request 2.
        inj.note_completion(1);
        inj.run_admissions(7, &mut sched, &mut reqs);
        assert_eq!(reqs[2].admitted, Some(7));
        assert_eq!(sched.queue_len(2) + sched.queue_len(3), 4, "reused slot 1");
    }

    #[test]
    fn reject_above_queue_terminally_rejects_overflow() {
        // 1 slot over 2 cores, 1 waiter allowed. Requests 0..4 arrive
        // at 0, 0, 0, 50: 0 admits, 1 waits, 2 rejects at its arrival;
        // 3 rejects at cycle 50 (slot still busy, 1 still waiting).
        let p = open_program(4, 1, 2);
        let mut inj = RequestInjector::new(
            &p,
            vec![0, 0, 0, 50],
            ServePolicy::RejectAboveQueue { slots: 1, depth: 1 },
            2,
            1,
        )
        .unwrap();
        let mut sched = sched_of(&p, 2, 1);
        let mut reqs = records(4);
        assert!(inj.run_admissions(0, &mut sched, &mut reqs));
        assert_eq!(admitted(&reqs), vec![Some(0), None, None, None]);
        assert_eq!(rejected(&reqs), vec![None, None, Some(0), None]);
        // Capacity-blocked, but the wake still covers request 3's
        // arrival: it must be rejected *at* cycle 50.
        assert_eq!(inj.next_wake(1), Some(50));
        assert!(!inj.run_admissions(50, &mut sched, &mut reqs));
        assert_eq!(reqs[3].rejected, Some(50));
        // Rejected requests leave the queue: only request 1 waits.
        assert!(!inj.drained());
        inj.note_completion(0);
        assert!(inj.run_admissions(60, &mut sched, &mut reqs));
        assert_eq!(reqs[1].admitted, Some(60));
        assert!(inj.drained());
    }

    #[test]
    fn deadline_drop_sheds_expired_waiters() {
        // 1 slot; request 1 waits from cycle 0 and its age reaches the
        // 100-cycle TTFT deadline before the slot frees.
        let p = open_program(2, 1, 2);
        let mut inj = RequestInjector::new(
            &p,
            vec![0, 0],
            ServePolicy::DeadlineDrop {
                slots: 1,
                ttft_deadline: 100,
            },
            2,
            1,
        )
        .unwrap();
        let mut sched = sched_of(&p, 2, 1);
        let mut reqs = records(2);
        inj.run_admissions(0, &mut sched, &mut reqs);
        assert_eq!(admitted(&reqs), vec![Some(0), None]);
        // The wake bound is the queued expiry, not a completion.
        assert_eq!(inj.next_wake(1), Some(100));
        assert!(!inj.run_admissions(100, &mut sched, &mut reqs));
        assert_eq!(rejected(&reqs), vec![None, Some(100)]);
        assert!(inj.drained(), "dropped requests leave the queue");
    }

    #[test]
    fn deadline_drop_admission_beats_expiry_on_the_same_cycle() {
        let p = open_program(2, 1, 2);
        let mut inj = RequestInjector::new(
            &p,
            vec![0, 0],
            ServePolicy::DeadlineDrop {
                slots: 1,
                ttft_deadline: 100,
            },
            2,
            1,
        )
        .unwrap();
        let mut sched = sched_of(&p, 2, 1);
        let mut reqs = records(2);
        inj.run_admissions(0, &mut sched, &mut reqs);
        inj.note_completion(0);
        // At exactly cycle 100 the slot is free: admission runs before
        // the drop pass, so the request is served.
        assert!(inj.run_admissions(100, &mut sched, &mut reqs));
        assert_eq!(reqs[1].admitted, Some(100));
        assert_eq!(reqs[1].rejected, None);
    }

    #[test]
    fn priority_preempts_lowest_class_victim() {
        // 1 slot over 2 cores; request 0 (class 0, 3 blocks) admits at
        // cycle 0, request 1 (class 2) arrives at cycle 10 and preempts
        // it: the unissued blocks return to the queue.
        let p = open_program(2, 3, 2);
        let mut inj = RequestInjector::new(
            &p,
            vec![0, 10],
            ServePolicy::PriorityPreempt { slots: 1 },
            2,
            1,
        )
        .unwrap()
        .with_classes(vec![0, 2])
        .unwrap();
        let mut sched = sched_of(&p, 2, 1);
        let mut reqs = records(2);
        inj.run_admissions(0, &mut sched, &mut reqs);
        assert_eq!(admitted(&reqs), vec![Some(0), None]);
        assert_eq!(sched.remaining(), 3);
        // Capacity-blocked, but a higher-class arrival is due at 10.
        assert_eq!(inj.next_wake(1), Some(10));
        // Simulate the cores having issued request 0's first block.
        let first = sched.next_for(0, 0, 5).expect("block ready");
        assert_eq!(first, 0);
        assert!(inj.run_admissions(10, &mut sched, &mut reqs));
        // Request 1's 3 blocks are in; request 0's 2 unissued ones out.
        assert_eq!(admitted(&reqs), vec![Some(0), Some(10)]);
        assert_eq!(preemptions(&reqs), vec![1, 0]);
        assert_eq!(sched.remaining(), 3);
        assert!(!inj.drained(), "the victim re-queued");
        // No second preemption: the occupant now outranks the victim.
        assert_eq!(inj.next_wake(11), None);
        // Victim re-admits once the preemptor completes, injecting only
        // the withdrawn remainder (keeping its first admission cycle).
        inj.note_completion(1);
        assert_eq!(inj.next_wake(20), Some(20));
        assert!(inj.run_admissions(20, &mut sched, &mut reqs));
        assert_eq!(
            admitted(&reqs),
            vec![Some(0), Some(10)],
            "first admission sticks"
        );
        assert_eq!(sched.remaining(), 5);
        assert!(inj.drained());
    }

    #[test]
    fn priority_preemption_needs_withdrawable_blocks() {
        // Victim has a single block, already issued to a core: nothing
        // to withhold, so the high-class arrival must wait.
        let p = open_program(2, 1, 2);
        let mut inj = RequestInjector::new(
            &p,
            vec![0, 10],
            ServePolicy::PriorityPreempt { slots: 1 },
            2,
            1,
        )
        .unwrap()
        .with_classes(vec![0, 1])
        .unwrap();
        let mut sched = sched_of(&p, 2, 1);
        let mut reqs = records(2);
        inj.run_admissions(0, &mut sched, &mut reqs);
        assert_eq!(sched.next_for(0, 0, 1), Some(0), "block issued");
        assert!(!inj.run_admissions(10, &mut sched, &mut reqs));
        assert_eq!(reqs[1].admitted, None);
        assert_eq!(preemptions(&reqs), vec![0, 0]);
        inj.note_completion(0);
        assert!(inj.run_admissions(12, &mut sched, &mut reqs));
        assert_eq!(reqs[1].admitted, Some(12));
    }

    #[test]
    fn construction_rejects_degenerate_setups() {
        let p = open_program(2, 1, 2);
        assert!(
            RequestInjector::new(&p, vec![0], ServePolicy::Fcfs, 2, 1).is_err(),
            "short arrival schedule"
        );
        assert!(
            RequestInjector::new(&p, vec![0, 0], ServePolicy::MaxConcurrency { max: 0 }, 2, 1)
                .is_err()
        );
        assert!(RequestInjector::new(
            &p,
            vec![0, 0],
            ServePolicy::ContinuousBatching { slots: 8 },
            4,
            1
        )
        .is_err());
        // CB with 2 slots over 4 cores leaves relative cores 0..2: a
        // block homed on core 3 cannot fit a slot.
        let wide = open_program(2, 4, 4);
        assert!(RequestInjector::new(
            &wide,
            vec![0, 0],
            ServePolicy::ContinuousBatching { slots: 2 },
            4,
            1
        )
        .is_err());
        let gated = Program::with_requests(
            vec![Vec::<Instr>::new(); 2],
            vec![0, 1],
            vec![0, 1],
            vec![0, 50],
        );
        assert!(
            RequestInjector::new(&gated, vec![0, 50], ServePolicy::Fcfs, 2, 1).is_err(),
            "pre-tagged arrivals must be rejected"
        );
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(ServePolicy::Fcfs.label(), "fcfs");
        assert_eq!(ServePolicy::MaxConcurrency { max: 4 }.label(), "maxc4");
        assert_eq!(ServePolicy::ContinuousBatching { slots: 8 }.label(), "cb8");
        assert_eq!(
            ServePolicy::RejectAboveQueue { slots: 2, depth: 4 }.label(),
            "rej2q4"
        );
        assert_eq!(
            ServePolicy::DeadlineDrop {
                slots: 2,
                ttft_deadline: 50_000
            }
            .label(),
            "ddl2d50000"
        );
        assert_eq!(ServePolicy::PriorityPreempt { slots: 4 }.label(), "prio4");
    }
}
