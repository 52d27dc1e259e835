//! An exhaustive model of the sleep handshake (`src/sleep.rs`) as the pool uses it: a
//! worker waiting in `wait_until` for a stolen branch's latch or for work on offer, an
//! owner offering its oldest job (`offer_oldest`, whose wake is `wake_one`), and a thief
//! setting the latch of the branch it ran (`Latch::set`, whose wake is `wake_all`). Every
//! interleaving of their steps is explored on x86-TSO.
//!
//! Shared memory is the steal cell's state word, the latch, the waiter count and the
//! event count's epoch. Each thread has a FIFO store buffer: a store enters it, a "flush"
//! step (a scheduler choice like any other) moves its oldest entry to memory, a load reads
//! the thread's own newest buffered store to that word before memory, and a `SeqCst` fence
//! (`mfence`) runs only with the thread's buffer empty. Two choices keep the fences the
//! only thing that orders a store before a later load, as they are in Rust's memory model:
//!
//! * the waiter's registration, a `SeqCst` `fetch_add`, enters the buffer like a store.
//!   On x86 it is a `lock xadd`, which drains the buffer too, but Rust promises no order
//!   between a `SeqCst` read-modify-write and a later non-`SeqCst` load of another word;
//! * the epoch's mutex makes each of its critical sections (read the epoch; bump it; look
//!   at it and block) one step on memory that drains no buffer.
//!
//! The property: no reachable state leaves the waiter asleep for good while a job is on
//! offer or the latch is set — a state where nobody has a step left, the waiter blocked on
//! the condition variable, and memory holding an open cell or a set latch. Either publisher
//! may also stop without publishing, so a wake that only the other one's could rescue is
//! still caught. A violation prints the shortest trace to it, each step with the source
//! line it stands for. Each mutant drops one fence, and the explorer must find a lost wake
//! in each.
//!
//! Run with `cargo test -p rws-runtime --test sleep_model -- --nocapture` to see the state
//! count and the mutants' traces.

use std::collections::{HashMap, VecDeque};

const SLEEP_RS: &str = include_str!("../src/sleep.rs");
const POOL_RS: &str = include_str!("../src/pool.rs");
const STEAL_RS: &str = include_str!("../src/steal.rs");
const JOB_RS: &str = include_str!("../src/job.rs");

/// A source line a step stands for: the file, the function it is in and the line's exact
/// text, trimmed. Each must match exactly one line of that function
/// (`every_step_cites_one_line_of_the_source`).
type Cite = (&'static str, &'static str, &'static str);

const OFFER: Cite = ("steal.rs", "offer", "self.state.store(OPEN, Ordering::Release);");
const OFFER_WAKE: Cite = ("pool.rs", "offer_oldest", "self.shared.sleep.0.wake_one();");
const ONE_FENCE: Cite = ("sleep.rs", "wake_one", "fence(Ordering::SeqCst);");
const ONE_LOOK: Cite = ("sleep.rs", "wake_one", "if self.waiters.load(Ordering::Relaxed) > 0 {");
const ONE_NOTIFY: Cite = ("sleep.rs", "wake_one", "self.condvar.notify_one();");
const SET: Cite = ("job.rs", "set", "self.done.store(true, Ordering::Release);");
const ALL_FENCE: Cite = ("sleep.rs", "wake_all", "fence(Ordering::SeqCst);");
const ALL_LOOK: Cite = ("sleep.rs", "wake_all", "if self.waiters.load(Ordering::Relaxed) > 0 {");
const ALL_NOTIFY: Cite = ("sleep.rs", "wake_all", "self.condvar.notify_all();");
const BUMP: Cite = ("sleep.rs", "bump", "*epoch = epoch.wrapping_add(1);");
const DONE: Cite = ("pool.rs", "wait_until", "while !done() {");
const FIND: Cite = ("pool.rs", "wait_until", "if let Some(job) = self.find_job(idle == 0) {");
const REGISTER: Cite = ("sleep.rs", "wait_unless", "self.waiters.fetch_add(1, Ordering::SeqCst);");
const WAIT_FENCE: Cite = ("sleep.rs", "wait_unless", "fence(Ordering::SeqCst);");
const OBSERVE: Cite = (
    "sleep.rs",
    "wait_unless",
    "let observed = *self.epoch.lock().unwrap_or_else(|e| e.into_inner());",
);
const READY: Cite = ("sleep.rs", "wait_unless", "if !ready() {");
const BLOCK: Cite =
    ("sleep.rs", "wait_unless", "None => drop(self.condvar.wait_while(epoch, unchanged)),");
const DEREGISTER: Cite =
    ("sleep.rs", "wait_unless", "self.waiters.fetch_sub(1, Ordering::SeqCst);");

const ALL_CITES: [Cite; 18] = [
    OFFER, OFFER_WAKE, ONE_FENCE, ONE_LOOK, ONE_NOTIFY, SET, ALL_FENCE, ALL_LOOK, ALL_NOTIFY, BUMP,
    DONE, FIND, REGISTER, WAIT_FENCE, OBSERVE, READY, BLOCK, DEREGISTER,
];

/// The line number of a cited line, or `None` unless exactly one line of the function
/// (from its `fn` line to the next one) matches.
fn line_of((file, func, text): Cite) -> Option<usize> {
    let source = match file {
        "sleep.rs" => SLEEP_RS,
        "pool.rs" => POOL_RS,
        "steal.rs" => STEAL_RS,
        _ => JOB_RS,
    };
    let lines: Vec<&str> = source.lines().collect();
    let is_fn = |l: &str| l.trim_start().starts_with("fn ") || l.contains(" fn ");
    let signature = [format!("fn {func}("), format!("fn {func}<")];
    let start = lines.iter().position(|l| signature.iter().any(|s| l.contains(s.as_str())))?;
    let end = (start + 1..lines.len()).find(|&i| is_fn(lines[i])).unwrap_or(lines.len());
    let mut hits = (start..end).filter(|&i| lines[i].trim() == text);
    let index = hits.next()?;
    hits.next().is_none().then_some(index + 1)
}

/// The words the model's threads share.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Word {
    /// The owner's steal cell: true once its oldest job is on offer.
    Open,
    /// The stolen branch's latch.
    Latch,
    /// The event count's registered waiters.
    Waiters,
}

/// A store in a buffer: the word and the value it writes.
type Store = (Word, u8);

/// A publisher: the owner, who offers and then wakes one, or the thief, who sets the latch
/// and then wakes all. Each walks its steps in order and then stops.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Publisher {
    Start,
    Fence,
    Look,
    Bump,
    Notify,
    Stopped,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Waiter {
    /// `wait_until`'s loop: is the latch set?
    Done,
    /// Then `find_job`: is a job on offer?
    Find,
    Register,
    Fence,
    Observe,
    Ready,
    Block,
    /// On the condition variable, until a notify.
    Blocked,
    Deregister,
    /// It has the latch or the job: the wait is over.
    Finished,
}

/// One dropped fence each; `Correct` is the protocol as written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Variant {
    Correct,
    /// `wait_unless` registers and looks without its fence.
    WaiterWithoutFence,
    /// `wake_one` looks at the waiter count without its fence.
    WakeOneWithoutFence,
    /// `wake_all` looks at the waiter count without its fence.
    WakeAllWithoutFence,
    /// The offer wakes with an unfenced look at the waiter count, the way `notify` did.
    OfferNotify,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct State {
    owner: Publisher,
    thief: Publisher,
    waiter: Waiter,
    /// The epoch the waiter read before its last look.
    observed: u8,
    /// Memory: the cell, the latch, the waiter count.
    memory: [u8; 3],
    epoch: u8,
    /// Store buffers, oldest first: the owner's, the thief's, the waiter's.
    buffers: [Vec<Store>; 3],
}

const OWNER: usize = 0;
const THIEF: usize = 1;
const WAITER: usize = 2;
const ACTORS: [&str; 3] = ["owner", "thief", "waiter"];

impl State {
    fn initial() -> Self {
        State {
            owner: Publisher::Start,
            thief: Publisher::Start,
            waiter: Waiter::Done,
            observed: 0,
            memory: [0; 3],
            epoch: 0,
            buffers: Default::default(),
        }
    }

    /// Thread `t`'s view of `word`: its newest buffered store to it, else memory.
    fn load(&self, t: usize, word: Word) -> u8 {
        self.buffers[t]
            .iter()
            .rev()
            .find_map(|&(w, v)| (w == word).then_some(v))
            .unwrap_or(self.memory[word as usize])
    }

    /// The waiter asleep for good while memory holds what it waits for.
    fn lost_wake(&self) -> bool {
        self.waiter == Waiter::Blocked
            && (self.memory[Word::Open as usize] == 1 || self.memory[Word::Latch as usize] == 1)
    }
}

/// A step: who took it, what it did, the line it stands for (none for a store buffer's
/// flush, which is the hardware's step, or for a publisher's stop), and the state it leads
/// to.
struct Step {
    label: Label,
    next: State,
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
            None => write!(f, "{actor}: {what}"),
        }
    }
}

fn step(out: &mut Vec<Step>, t: usize, what: &'static str, cite: Cite, next: State) {
    out.push(Step { label: Label { actor: ACTORS[t], what, cite: Some(cite) }, next });
}

/// The steps of publisher `t`: publish its word, fence (unless the variant drops that
/// fence), look at the waiter count, bump the epoch and notify (one waiter or all: the
/// model has one).
fn publisher_steps(s: &State, t: usize, v: Variant, out: &mut Vec<Step>) {
    let at = if t == OWNER { s.owner } else { s.thief };
    let (word, publish, fence, look, notify) = if t == OWNER {
        (Word::Open, OFFER, ONE_FENCE, ONE_LOOK, ONE_NOTIFY)
    } else {
        (Word::Latch, SET, ALL_FENCE, ALL_LOOK, ALL_NOTIFY)
    };
    let fenced = match t {
        OWNER => !matches!(v, Variant::WakeOneWithoutFence | Variant::OfferNotify),
        _ => v != Variant::WakeAllWithoutFence,
    };
    let moved = |n: &mut State, to: Publisher| {
        if t == OWNER {
            n.owner = to
        } else {
            n.thief = to
        }
    };
    let mut n = s.clone();
    match at {
        Publisher::Start => {
            n.buffers[t].push((word, 1));
            moved(&mut n, if fenced { Publisher::Fence } else { Publisher::Look });
            step(out, t, "publish", publish, n);
            let mut quiet = s.clone();
            moved(&mut quiet, Publisher::Stopped);
            out.push(Step {
                label: Label { actor: ACTORS[t], what: "stop without publishing", cite: None },
                next: quiet,
            });
        }
        Publisher::Fence => {
            if s.buffers[t].is_empty() {
                moved(&mut n, Publisher::Look);
                step(out, t, "fence (its buffer is empty)", fence, n);
            }
        }
        Publisher::Look => {
            let waiting = s.load(t, Word::Waiters) > 0;
            moved(&mut n, if waiting { Publisher::Bump } else { Publisher::Stopped });
            let (what, cite) = match (v, t, waiting) {
                (Variant::OfferNotify, OWNER, true) => {
                    ("look at the waiter count: 1 (mutant: `notify`, no fence)", OFFER_WAKE)
                }
                (Variant::OfferNotify, OWNER, false) => {
                    ("look at the waiter count: 0 (mutant: `notify`, no fence)", OFFER_WAKE)
                }
                (_, _, true) => ("look at the waiter count: 1", look),
                (_, _, false) => ("look at the waiter count: 0, wake nobody", look),
            };
            step(out, t, what, cite, n);
        }
        Publisher::Bump => {
            n.epoch += 1;
            moved(&mut n, Publisher::Notify);
            step(out, t, "bump the epoch under the lock", BUMP, n);
        }
        Publisher::Notify => {
            if s.waiter == Waiter::Blocked {
                n.waiter = Waiter::Deregister;
            }
            moved(&mut n, Publisher::Stopped);
            step(out, t, "notify", notify, n);
        }
        Publisher::Stopped => {}
    }
}

fn waiter_steps(s: &State, v: Variant, out: &mut Vec<Step>) {
    let t = WAITER;
    let mut n = s.clone();
    match s.waiter {
        Waiter::Done => {
            let set = s.load(t, Word::Latch) == 1;
            n.waiter = if set { Waiter::Finished } else { Waiter::Find };
            step(out, t, if set { "find the latch set" } else { "find the latch unset" }, DONE, n);
        }
        Waiter::Find => {
            let open = s.load(t, Word::Open) == 1;
            n.waiter = if open { Waiter::Finished } else { Waiter::Register };
            let what = if open { "find the job on offer and take it" } else { "find no job" };
            step(out, t, what, FIND, n);
        }
        Waiter::Register => {
            let waiters = s.load(t, Word::Waiters);
            n.buffers[t].push((Word::Waiters, waiters + 1));
            let fenced = v != Variant::WaiterWithoutFence;
            n.waiter = if fenced { Waiter::Fence } else { Waiter::Observe };
            let what = if fenced { "register" } else { "register (mutant: no fence after)" };
            step(out, t, what, REGISTER, n);
        }
        Waiter::Fence => {
            if s.buffers[t].is_empty() {
                n.waiter = Waiter::Observe;
                step(out, t, "fence (its buffer is empty)", WAIT_FENCE, n);
            }
        }
        Waiter::Observe => {
            n.observed = s.epoch;
            n.waiter = Waiter::Ready;
            step(out, t, "read the epoch under the lock", OBSERVE, n);
        }
        Waiter::Ready => {
            let ready = s.load(t, Word::Latch) == 1 || s.load(t, Word::Open) == 1;
            n.waiter = if ready { Waiter::Deregister } else { Waiter::Block };
            let what = if ready { "last look: ready" } else { "last look: nothing yet" };
            step(out, t, what, READY, n);
        }
        Waiter::Block => {
            let moved = s.epoch != s.observed;
            n.waiter = if moved { Waiter::Deregister } else { Waiter::Blocked };
            let what = if moved { "find the epoch moved" } else { "block on the condvar" };
            step(out, t, what, BLOCK, n);
        }
        Waiter::Blocked | Waiter::Finished => {}
        Waiter::Deregister => {
            let waiters = s.load(t, Word::Waiters);
            n.buffers[t].push((Word::Waiters, waiters - 1));
            n.waiter = Waiter::Done;
            step(out, t, "deregister", DEREGISTER, n);
        }
    }
}

fn flush_steps(s: &State, out: &mut Vec<Step>) {
    for (t, actor) in ACTORS.into_iter().enumerate() {
        if let Some(&(word, value)) = s.buffers[t].first() {
            let mut n = s.clone();
            n.buffers[t].remove(0);
            n.memory[word as usize] = value;
            let what = "flush its oldest store to memory (store buffer)";
            let label = Label { actor, what, cite: None };
            out.push(Step { label, next: n });
        }
    }
}

fn steps(s: &State, v: Variant) -> Vec<Step> {
    let mut out = Vec::new();
    publisher_steps(s, OWNER, v, &mut out);
    publisher_steps(s, THIEF, v, &mut out);
    waiter_steps(s, v, &mut out);
    flush_steps(s, &mut out);
    out
}

/// What the explorer found.
struct Exploration {
    states: usize,
    /// Reachable states in which the waiter has its latch or its job.
    finished: usize,
    /// The first lost wake: the trace that reaches it.
    lost: Option<Vec<String>>,
}

/// Breadth-first search over every interleaving; a state with no step left in which the
/// waiter sleeps while memory holds what it waits for is a lost wake.
fn explore(v: Variant) -> Exploration {
    let mut index: HashMap<State, usize> = HashMap::new();
    let mut states: Vec<State> = Vec::new();
    // For each state: the state it was first reached from, and the step that did it.
    let mut parent: Vec<Option<(usize, Label)>> = Vec::new();
    let mut queue = VecDeque::new();
    let start = State::initial();
    index.insert(start.clone(), 0);
    states.push(start);
    parent.push(None);
    queue.push_back(0);
    let mut finished = 0;
    while let Some(at) = queue.pop_front() {
        let state = states[at].clone();
        finished += usize::from(state.waiter == Waiter::Finished);
        let out = steps(&state, v);
        if out.is_empty() && state.lost_wake() {
            let mut trace = Vec::new();
            let mut cursor = at;
            while let Some((from, label)) = &parent[cursor] {
                trace.push(label.to_string());
                cursor = *from;
            }
            trace.reverse();
            trace.push(format!("lost wake: nobody has a step left in {state:?}"));
            return Exploration { states: states.len(), finished, lost: Some(trace) };
        }
        for st in out {
            if !index.contains_key(&st.next) {
                index.insert(st.next.clone(), states.len());
                states.push(st.next);
                parent.push(Some((at, st.label)));
                queue.push_back(states.len() - 1);
            }
        }
    }
    Exploration { states: states.len(), finished, lost: None }
}

#[test]
fn every_step_cites_one_line_of_the_source() {
    for cite in ALL_CITES {
        assert!(
            line_of(cite).is_some(),
            "{}: no single line of `{}` reads `{}`",
            cite.0,
            cite.1,
            cite.2
        );
    }
}

#[test]
fn no_wake_is_lost_in_any_interleaving() {
    let started = std::time::Instant::now();
    let found = explore(Variant::Correct);
    if let Some(trace) = &found.lost {
        panic!("a wake is lost:\n  {}", trace.join("\n  "));
    }
    let elapsed = started.elapsed();
    println!(
        "{} states, {} with the wait over, explored in {elapsed:?}",
        found.states, found.finished
    );
    assert!(found.states > 200, "the model explored only {} states", found.states);
    assert!(found.finished > 0, "the waiter never gets what it waits for");
    assert!(elapsed.as_secs_f64() < 1.0, "the exploration took {elapsed:?}");
}

#[test]
fn each_dropped_fence_loses_a_wake_with_a_trace() {
    for mutant in [
        Variant::WaiterWithoutFence,
        Variant::WakeOneWithoutFence,
        Variant::WakeAllWithoutFence,
        Variant::OfferNotify,
    ] {
        let found = explore(mutant);
        let trace =
            found.lost.unwrap_or_else(|| panic!("{mutant:?} survived {} states", found.states));
        println!("{mutant:?}:\n  {}", trace.join("\n  "));
        assert!(trace.len() > 1);
    }
}
