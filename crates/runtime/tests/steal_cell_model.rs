//! An exhaustive model of the steal cell (`src/steal.rs`) and the owner's use of it
//! (`src/pool.rs`): one owner with a private deque of at most two jobs and two thieves,
//! every interleaving of their steps, on x86-TSO.
//!
//! Shared memory is the cell's two words, its state (`OPEN`, `BLOCKED` or a thief's index)
//! and its job slot. Each thread has a FIFO store buffer: a plain store enters it, a
//! "flush" step (a scheduler choice like any other) moves its oldest entry to memory, a
//! load reads the thread's own newest buffered store to that word before memory, and a CAS
//! runs only with the thread's buffer empty (a `lock`ed instruction drains it). Acquire and
//! release fences compile to nothing on x86, so they are no steps here. The deque is the
//! owner's alone and is plain state.
//!
//! The explorer is a breadth-first search with a visited set. It checks, in every reachable
//! state:
//!
//! * no job runs twice, and a claimed slot is never empty;
//! * a thief never waits for anyone: each of its steps is enabled whatever the owner does;
//! * an owner that parks leaves nothing on offer;
//!
//! and, over the whole graph, that every reachable state can still finish: every job pushed
//! and run exactly once, the owner parked, every buffer drained. A violation prints the
//! shortest trace to it, each step with the source line it stands for. Each mutant below
//! breaks one step of the protocol, and the explorer must find a violation in each (a
//! stress test does not find the claim's: its window is a few instructions wide).
//!
//! Run with `cargo test -p rws-runtime --test steal_cell_model -- --nocapture` to see the
//! state counts and the mutants' traces.

use std::collections::{HashMap, VecDeque};

/// Jobs the owner forks.
const JOBS: u8 = 2;
/// Thieves, with thread indices 1 and 2 (the owner is 0).
const THIEVES: usize = 2;

const STEAL_RS: &str = include_str!("../src/steal.rs");
const POOL_RS: &str = include_str!("../src/pool.rs");

/// A source line a step stands for: the file and the line's exact text, trimmed. Each must
/// match exactly one line (`every_step_cites_one_line_of_the_source`).
type Cite = (&'static str, &'static str);

const PUSH: Cite = ("pool.rs", "self.with_deque(|d| d.push_back(job));");
const POLL: Cite = ("steal.rs", "self.state.load(Ordering::Relaxed) == BLOCKED");
const OFFER_FRONT: Cite = ("pool.rs", "if let Some(job) = self.with_deque(VecDeque::pop_front) {");
const OFFER_SLOT: Cite = ("steal.rs", "*self.slot.get() = Some(job);");
const OFFER_OPEN: Cite = ("steal.rs", "self.state.store(OPEN, Ordering::Release);");
const POP: Cite = ("pool.rs", "match self.with_deque(VecDeque::pop_back) {");
const RECLAIM: Cite = (
    "steal.rs",
    "self.state.compare_exchange(OPEN, BLOCKED, Ordering::Relaxed, Ordering::Relaxed).ok()?;",
);
const RECLAIM_TAKE: Cite = ("steal.rs", "unsafe { (*self.slot.get()).take() }");
const PARK: Cite = ("pool.rs", "handle.idle_step(&mut idle, || {");
const LOOK: Cite = ("steal.rs", "match self.state.load(Ordering::Relaxed) {");
const CLAIM: Cite = (
    "steal.rs",
    "match self.state.compare_exchange(OPEN, thief, Ordering::Acquire, Ordering::Relaxed) {",
);
const TAKE: Cite = ("steal.rs", "let job = unsafe { (*self.slot.get()).take() };");
const RELEASE: Cite = ("steal.rs", "self.state.store(BLOCKED, Ordering::Release);");

const ALL_CITES: [Cite; 13] = [
    PUSH,
    POLL,
    OFFER_FRONT,
    OFFER_SLOT,
    OFFER_OPEN,
    POP,
    RECLAIM,
    RECLAIM_TAKE,
    PARK,
    LOOK,
    CLAIM,
    TAKE,
    RELEASE,
];

/// The line number of a cited line, or `None` unless exactly one line matches.
fn line_of((file, text): Cite) -> Option<usize> {
    let source = if file == "steal.rs" { STEAL_RS } else { POOL_RS };
    let mut hits = source.lines().enumerate().filter(|(_, l)| l.trim() == text);
    let (index, _) = hits.next()?;
    hits.next().is_none().then_some(index + 1)
}

/// The cell's state word.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Word {
    Open,
    Blocked,
    Thief(u8),
}

/// A value in a store buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Store {
    State(Word),
    Slot(Option<u8>),
}

/// Where a poll or a reclaim returns to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Ctx {
    /// `join`'s pop of its own branch, or a fork: back to choosing the next step.
    Join,
    /// `find_job`: a failed reclaim parks once every job is forked.
    Find,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Owner {
    Idle,
    Poll(Ctx),
    OfferSlot(Ctx),
    OfferOpen(Ctx),
    Pop(Ctx),
    Reclaim(Ctx),
    /// Mutant `ReclaimByStore` only: the reclaim's store after its load saw `OPEN`.
    ReclaimStore(Ctx),
    ReclaimTake(Ctx),
    /// `find_job` found nothing and every job is forked: the worker goes idle and parks.
    Park,
    Parked,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Thief {
    Idle,
    Claim,
    Take,
    Release,
}

/// One broken step each; `Correct` is the protocol as written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Variant {
    Correct,
    /// The owner takes its offer back with a load and a plain store instead of a CAS.
    ReclaimByStore,
    /// A thief stores `BLOCKED` before it moves the job out of the slot.
    ReleaseBeforeTake,
    /// The owner stores `OPEN` before it fills the slot.
    OpenBeforeSlot,
    /// `find_job` parks on an empty deque without taking its offer back.
    ParkWithoutReclaim,
    /// A thief claims the offer with a plain store of its index instead of a CAS.
    ClaimByStore,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct State {
    owner: Owner,
    /// The owner's private deque, oldest first.
    deque: Vec<u8>,
    /// Jobs forked so far.
    forked: u8,
    /// The job an offer in progress moves into the slot.
    offering: Option<u8>,
    thieves: [Thief; THIEVES],
    word: Word,
    slot: Option<u8>,
    /// Store buffers, oldest first: the owner's, then each thief's.
    buffers: [Vec<Store>; 1 + THIEVES],
    /// Times each job ran.
    runs: [u8; JOBS as usize],
}

impl State {
    fn initial() -> Self {
        State {
            owner: Owner::Idle,
            deque: Vec::new(),
            forked: 0,
            offering: None,
            thieves: [Thief::Idle; THIEVES],
            word: Word::Blocked,
            slot: None,
            buffers: Default::default(),
            runs: [0; JOBS as usize],
        }
    }

    /// Thread `t`'s view of the state word: its newest buffered store, else memory.
    fn load_word(&self, t: usize) -> Word {
        self.buffers[t]
            .iter()
            .rev()
            .find_map(|s| match s {
                Store::State(w) => Some(*w),
                Store::Slot(_) => None,
            })
            .unwrap_or(self.word)
    }

    /// Thread `t`'s view of the slot.
    fn load_slot(&self, t: usize) -> Option<u8> {
        self.buffers[t]
            .iter()
            .rev()
            .find_map(|s| match s {
                Store::Slot(j) => Some(*j),
                Store::State(_) => None,
            })
            .unwrap_or(self.slot)
    }

    fn run(&mut self, job: u8) -> Result<(), String> {
        self.runs[job as usize] += 1;
        if self.runs[job as usize] > 1 {
            return Err(format!("job {job} ran twice"));
        }
        Ok(())
    }

    fn finished(&self) -> bool {
        self.owner == Owner::Parked
            && self.forked == JOBS
            && self.runs.iter().all(|&r| r == 1)
            && self.thieves.iter().all(|&t| t == Thief::Idle)
            && self.buffers.iter().all(Vec::is_empty)
    }
}

/// A step: who took it, what it did, the line it stands for (none for a store buffer's
/// flush, which is the hardware's step), and the state it leads to (or the violation it
/// exposed).
struct Step {
    label: Label,
    next: Result<State, String>,
}

/// What a trace prints for a step; formatted only when a trace is printed.
#[derive(Clone, Copy)]
struct Label {
    actor: &'static str,
    what: &'static str,
    cite: Option<Cite>,
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Label { actor, what, cite } = self;
        match cite.map(|c| (c.0, line_of(c))) {
            Some((file, Some(line))) => write!(f, "{actor}: {what} ({file}:{line})"),
            Some((file, None)) => write!(f, "{actor}: {what} ({file}:?)"),
            None => write!(f, "{actor}: {what} (store buffer)"),
        }
    }
}

/// Thread names: the owner is thread 0, thief `i` is thread `i + 1`.
const ACTORS: [&str; 1 + THIEVES] = ["owner", "thief 0", "thief 1"];

fn step(actor: &'static str, what: &'static str, cite: Cite, next: Result<State, String>) -> Step {
    Step { label: Label { actor, what, cite: Some(cite) }, next }
}

fn owner_steps(s: &State, v: Variant, out: &mut Vec<Step>) {
    let mut n = s.clone();
    match s.owner {
        Owner::Idle => {
            if s.forked < JOBS {
                let mut n = s.clone();
                n.deque.push(n.forked);
                n.forked += 1;
                n.owner = Owner::Poll(Ctx::Join);
                out.push(step("owner", "push a job", PUSH, Ok(n)));
            }
            for ctx in [Ctx::Join, Ctx::Find] {
                let mut n = s.clone();
                n.owner = Owner::Pop(ctx);
                out.push(step("owner", "start a pop", POP, Ok(n)));
            }
        }
        Owner::Poll(ctx) => {
            n.owner =
                if s.load_word(0) == Word::Blocked { Owner::OfferSlot(ctx) } else { Owner::Idle };
            out.push(step("owner", "poll its cell", POLL, Ok(n)));
        }
        Owner::OfferSlot(ctx) => {
            if s.deque.is_empty() {
                n.owner = Owner::Idle;
                out.push(step("owner", "find nothing to offer", OFFER_FRONT, Ok(n)));
                return;
            }
            let job = n.deque.remove(0);
            if v == Variant::OpenBeforeSlot {
                n.buffers[0].push(Store::State(Word::Open));
                n.offering = Some(job);
                n.owner = Owner::OfferOpen(ctx);
                out.push(step("owner", "store OPEN first (mutant)", OFFER_OPEN, Ok(n)));
            } else {
                n.buffers[0].push(Store::Slot(Some(job)));
                n.owner = Owner::OfferOpen(ctx);
                out.push(step("owner", "put its oldest job in the slot", OFFER_SLOT, Ok(n)));
            }
        }
        Owner::OfferOpen(_) => {
            if v == Variant::OpenBeforeSlot {
                n.buffers[0].push(Store::Slot(n.offering.take()));
                n.owner = Owner::Idle;
                out.push(step("owner", "fill the slot last (mutant)", OFFER_SLOT, Ok(n)));
            } else {
                n.buffers[0].push(Store::State(Word::Open));
                n.owner = Owner::Idle;
                out.push(step("owner", "store OPEN", OFFER_OPEN, Ok(n)));
            }
        }
        Owner::Pop(ctx) => match n.deque.pop() {
            Some(job) => {
                n.owner = if ctx == Ctx::Find { Owner::Poll(ctx) } else { Owner::Idle };
                let next = n.run(job).map(|()| n);
                out.push(step("owner", "pop its newest job and run it", POP, next));
            }
            None => {
                let park = v == Variant::ParkWithoutReclaim && ctx == Ctx::Find;
                n.owner = if park && s.forked == JOBS { Owner::Park } else { Owner::Reclaim(ctx) };
                out.push(step("owner", "find its deque empty", POP, Ok(n)));
            }
        },
        Owner::Reclaim(ctx) => {
            let failed =
                if ctx == Ctx::Find && s.forked == JOBS { Owner::Park } else { Owner::Idle };
            if v == Variant::ReclaimByStore {
                n.owner =
                    if s.load_word(0) == Word::Open { Owner::ReclaimStore(ctx) } else { failed };
                out.push(step("owner", "load its cell (mutant: no CAS)", RECLAIM, Ok(n)));
            } else if s.buffers[0].is_empty() {
                if s.word == Word::Open {
                    n.word = Word::Blocked;
                    n.owner = Owner::ReclaimTake(ctx);
                    out.push(step("owner", "CAS OPEN -> BLOCKED: won", RECLAIM, Ok(n)));
                } else {
                    n.owner = failed;
                    out.push(step("owner", "CAS OPEN -> BLOCKED: lost", RECLAIM, Ok(n)));
                }
            }
        }
        Owner::ReclaimStore(ctx) => {
            n.buffers[0].push(Store::State(Word::Blocked));
            n.owner = Owner::ReclaimTake(ctx);
            out.push(step("owner", "store BLOCKED (mutant)", RECLAIM, Ok(n)));
        }
        Owner::ReclaimTake(_) => {
            let next = match s.load_slot(0) {
                Some(job) => {
                    n.buffers[0].push(Store::Slot(None));
                    n.owner = Owner::Idle;
                    n.run(job).map(|()| n)
                }
                None => Err("the owner reclaimed an empty slot".to_string()),
            };
            out.push(step("owner", "take its offer back and run it", RECLAIM_TAKE, next));
        }
        Owner::Park => {
            // It must leave nothing queued and nothing on offer.
            n.owner = Owner::Parked;
            let next = if !s.deque.is_empty() || s.load_word(0) == Word::Open {
                Err("the owner parked with a job on offer".to_string())
            } else {
                Ok(n)
            };
            out.push(step("owner", "park", PARK, next));
        }
        Owner::Parked => {}
    }
}

fn thief_steps(s: &State, i: usize, v: Variant, out: &mut Vec<Step>) {
    let t = i + 1;
    let me = Word::Thief(i as u8);
    let actor = ACTORS[t];
    let mut n = s.clone();
    match s.thieves[i] {
        Thief::Idle => {
            n.thieves[i] = if s.load_word(t) == Word::Open { Thief::Claim } else { Thief::Idle };
            if n.thieves[i] == Thief::Claim {
                out.push(step(actor, "look: OPEN", LOOK, Ok(n)));
            }
        }
        Thief::Claim if v == Variant::ClaimByStore => {
            n.buffers[t].push(Store::State(me));
            n.thieves[i] = Thief::Take;
            out.push(step(actor, "store its index (mutant: no CAS)", CLAIM, Ok(n)));
        }
        Thief::Claim => {
            if s.buffers[t].is_empty() {
                if s.word == Word::Open {
                    n.word = me;
                    n.thieves[i] =
                        if v == Variant::ReleaseBeforeTake { Thief::Release } else { Thief::Take };
                    out.push(step(actor, "CAS OPEN -> own index: won", CLAIM, Ok(n)));
                } else {
                    n.thieves[i] = Thief::Idle;
                    out.push(step(actor, "CAS OPEN -> own index: lost", CLAIM, Ok(n)));
                }
            }
        }
        Thief::Take => {
            let next = match s.load_slot(t) {
                Some(job) => {
                    n.buffers[t].push(Store::Slot(None));
                    n.thieves[i] =
                        if v == Variant::ReleaseBeforeTake { Thief::Idle } else { Thief::Release };
                    n.run(job).map(|()| n)
                }
                None => Err(format!("thief {i} claimed an empty slot")),
            };
            out.push(step(actor, "move the job out of the slot and run it", TAKE, next));
        }
        Thief::Release => {
            n.buffers[t].push(Store::State(Word::Blocked));
            n.thieves[i] = if v == Variant::ReleaseBeforeTake { Thief::Take } else { Thief::Idle };
            out.push(step(actor, "store BLOCKED", RELEASE, Ok(n)));
        }
    }
}

fn flush_steps(s: &State, out: &mut Vec<Step>) {
    for (t, actor) in ACTORS.into_iter().enumerate() {
        if let Some(&oldest) = s.buffers[t].first() {
            let mut n = s.clone();
            n.buffers[t].remove(0);
            match oldest {
                Store::State(w) => n.word = w,
                Store::Slot(j) => n.slot = j,
            }
            let label = Label { actor, what: "flush its oldest store to memory", cite: None };
            out.push(Step { label, next: Ok(n) });
        }
    }
}

fn steps(s: &State, v: Variant) -> Vec<Step> {
    let mut out = Vec::new();
    owner_steps(s, v, &mut out);
    for i in 0..THIEVES {
        thief_steps(s, i, v, &mut out);
    }
    flush_steps(s, &mut out);
    out
}

/// What the explorer found.
struct Exploration {
    states: usize,
    /// The first violation: its message and the trace that reaches it.
    violation: Option<(String, Vec<String>)>,
}

/// Breadth-first search over every interleaving, then a backward search from the finished
/// states: a reachable state that cannot finish is a violation too.
fn explore(v: Variant) -> Exploration {
    let mut index: HashMap<State, usize> = HashMap::new();
    let mut states: Vec<State> = Vec::new();
    // For each state: the state it was first reached from, and the step that did it.
    let mut parent: Vec<Option<(usize, Label)>> = Vec::new();
    let mut preds: Vec<Vec<usize>> = Vec::new();
    let mut queue = VecDeque::new();
    let start = State::initial();
    index.insert(start.clone(), 0);
    states.push(start);
    parent.push(None);
    preds.push(Vec::new());
    queue.push_back(0);

    let trace_to = |parent: &[Option<(usize, Label)>], mut at: usize| {
        let mut trace = Vec::new();
        while let Some((from, label)) = &parent[at] {
            trace.push(label.to_string());
            at = *from;
        }
        trace.reverse();
        trace
    };

    while let Some(at) = queue.pop_front() {
        let state = states[at].clone();
        let out = steps(&state, v);
        for i in 0..THIEVES {
            // A thief waits for nobody: in a claim or a take it always has a step of its own
            // (its CAS, or the flush that lets its CAS run).
            let busy = state.thieves[i] != Thief::Idle;
            if busy && !out.iter().any(|st| st.label.actor == ACTORS[i + 1]) {
                let mut trace = trace_to(&parent, at);
                trace.push(format!("thief {i} has no step in {:?}", state.thieves[i]));
                return Exploration {
                    states: states.len(),
                    violation: Some(("a thief waits".to_string(), trace)),
                };
            }
        }
        for st in out {
            let next = match st.next {
                Ok(next) => next,
                Err(message) => {
                    let mut trace = trace_to(&parent, at);
                    trace.push(st.label.to_string());
                    return Exploration { states: states.len(), violation: Some((message, trace)) };
                }
            };
            let to = match index.get(&next) {
                Some(&to) => to,
                None => {
                    let to = states.len();
                    index.insert(next.clone(), to);
                    states.push(next);
                    parent.push(Some((at, st.label)));
                    preds.push(Vec::new());
                    queue.push_back(to);
                    to
                }
            };
            preds[to].push(at);
        }
    }

    // Every reachable state must still be able to finish.
    let mut can_finish = vec![false; states.len()];
    let mut back: VecDeque<usize> = (0..states.len()).filter(|&i| states[i].finished()).collect();
    for &i in &back {
        can_finish[i] = true;
    }
    while let Some(at) = back.pop_front() {
        for &p in &preds[at] {
            if !can_finish[p] {
                can_finish[p] = true;
                back.push_back(p);
            }
        }
    }
    let violation = (0..states.len()).find(|&i| !can_finish[i]).map(|stuck| {
        let mut trace = trace_to(&parent, stuck);
        trace.push(format!("stuck in {:?}", states[stuck]));
        ("a reachable state can no longer finish".to_string(), trace)
    });
    Exploration { states: states.len(), violation }
}

#[test]
fn every_step_cites_one_line_of_the_source() {
    for cite in ALL_CITES {
        assert!(line_of(cite).is_some(), "{}: no single line reads `{}`", cite.0, cite.1);
    }
}

#[test]
fn the_steal_cell_holds_in_every_interleaving() {
    let started = std::time::Instant::now();
    let found = explore(Variant::Correct);
    if let Some((message, trace)) = &found.violation {
        panic!("{message}:\n  {}", trace.join("\n  "));
    }
    println!("{} states, explored in {:?}", found.states, started.elapsed());
    assert!(found.states > 500, "the model explored only {} states", found.states);
}

#[test]
fn each_broken_step_is_caught_with_a_trace() {
    for mutant in [
        Variant::ReclaimByStore,
        Variant::ReleaseBeforeTake,
        Variant::OpenBeforeSlot,
        Variant::ParkWithoutReclaim,
        Variant::ClaimByStore,
    ] {
        let found = explore(mutant);
        let (message, trace) = found
            .violation
            .unwrap_or_else(|| panic!("{mutant:?} survived {} states", found.states));
        println!("{mutant:?}: {message}\n  {}", trace.join("\n  "));
        assert!(!trace.is_empty());
    }
}
