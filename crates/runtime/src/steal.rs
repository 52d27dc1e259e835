//! The steal cell: how a thief takes a worker's oldest job without touching its deque.
//!
//! Each worker's deque is a plain `VecDeque` that only its owner ever touches (`pool.rs`):
//! the owner pushes and pops the newest job with no atomic operation at all. What another
//! worker may take is the one job the owner has put **on offer** in its steal cell: its
//! oldest, which in a recursive computation is the largest — the task the paper's thief
//! takes. One steal moves exactly one task.
//!
//! The cell is one state word and one job slot, on a cache line of their own:
//!
//! * `BLOCKED` — nothing is on offer. Only the owner writes: [`StealCell::offer`] fills the
//!   slot and stores `OPEN`.
//! * `OPEN` — the slot holds the owner's oldest job. The owner ([`StealCell::reclaim`]) and
//!   every thief ([`StealCell::steal`]) may CAS the word away from `OPEN`; exactly one wins.
//! * a thief's index — that thief won and is moving the job out of the slot. Only it
//!   writes: it empties the slot and stores `BLOCKED`, a few instructions later.
//!
//! So the owner answers a steal before it is asked: a thief never waits for its victim,
//! whatever the victim is running, and the owner's push and pop pay no fence. The owner
//! re-offers (its oldest remaining job) when it next finds its cell `BLOCKED`: at every
//! push and in `find_job`. Its pop reclaims the offer only when its deque is empty, with the
//! one CAS on its path, out of line. `crates/runtime/tests/steal_cell_model.rs` explores
//! every interleaving of an owner and two thieves over this protocol.

// The slot is an `UnsafeCell` handed between threads by the state word: see each access.
#![allow(unsafe_code)]

use crate::job::Job;
use crossbeam_deque::Steal;
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicUsize, Ordering};

/// The state of a cell whose slot holds a job any thief may take.
const OPEN: usize = usize::MAX;
/// The state of a cell with nothing on offer. Every other state is a thief's index.
const BLOCKED: usize = usize::MAX - 1;

/// One worker's steal cell (see the module docs). Written by its owner and by thieves; the
/// pool keeps each on a cache line of its own.
pub(crate) struct StealCell {
    /// `OPEN`, `BLOCKED`, or the index of the thief moving the offer out.
    state: AtomicUsize,
    /// The offered job while `state` is `OPEN` or a thief's index; empty while `BLOCKED`.
    slot: UnsafeCell<Option<Job>>,
}

// SAFETY: `state` is atomic. The slot is touched only by whoever the state word makes its one
// holder: the owner while it is `BLOCKED` (or after its own CAS took it from `OPEN`), the thief
// whose index it holds. Every hand-over is a release store paired with an acquire CAS or
// fence on the other side, and a `Job` may move between threads (it is `Send`).
unsafe impl Sync for StealCell {}

impl Default for StealCell {
    fn default() -> Self {
        StealCell { state: AtomicUsize::new(BLOCKED), slot: UnsafeCell::new(None) }
    }
}

impl StealCell {
    /// Whether nothing is on offer (the owner's poll: one relaxed load). A cell a thief is
    /// emptying is not blocked yet; the owner re-offers at a later poll.
    #[inline]
    pub(crate) fn is_blocked(&self) -> bool {
        self.state.load(Ordering::Relaxed) == BLOCKED
    }

    /// Whether a job is on offer (an idle worker's last look before it parks).
    pub(crate) fn is_open(&self) -> bool {
        self.state.load(Ordering::Relaxed) == OPEN
    }

    /// Put `job` on offer.
    ///
    /// # Safety
    /// Only the cell's owner may call this, and only after [`StealCell::is_blocked`] said so.
    pub(crate) unsafe fn offer(&self, job: Job) {
        // Pairs with the release store of the thief that emptied the slot last: its move out
        // happens before this write.
        fence(Ordering::Acquire);
        *self.slot.get() = Some(job);
        self.state.store(OPEN, Ordering::Release);
    }

    /// Take the offer back (the owner, whose deque is empty). `None` when nothing is on
    /// offer or a thief is already moving it out: the job is the thief's then.
    pub(crate) fn reclaim(&self) -> Option<Job> {
        // Look before the CAS: an idle worker's every search starts here, on a blocked cell.
        if !self.is_open() {
            return None;
        }
        self.state.compare_exchange(OPEN, BLOCKED, Ordering::Relaxed, Ordering::Relaxed).ok()?;
        // SAFETY: winning the CAS from `OPEN` made this thread the slot's one holder, and the
        // only thread that fills the slot is the owner, which this is.
        unsafe { (*self.slot.get()).take() }
    }

    /// Take the offer for thief `thief`: `Empty` when nothing is on offer, `Retry` when
    /// another thief got there first.
    pub(crate) fn steal(&self, thief: usize) -> Steal<Job> {
        // Look before the CAS, so probing an idle victim does not take its line exclusive.
        match self.state.load(Ordering::Relaxed) {
            OPEN => {}
            BLOCKED => return Steal::Empty,
            _ => return Steal::Retry,
        }
        match self.state.compare_exchange(OPEN, thief, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => {
                // SAFETY: our index in the state word makes this thread the slot's one
                // holder; the acquire CAS saw the owner's release store after it filled it.
                let job = unsafe { (*self.slot.get()).take() };
                self.state.store(BLOCKED, Ordering::Release);
                Steal::Success(job.expect("an open steal cell holds a job"))
            }
            Err(BLOCKED) => Steal::Empty,
            Err(_) => Steal::Retry,
        }
    }
}

#[cfg(test)]
impl StealCell {
    /// The byte ranges `[start, end)` of the state word and of the slot, at this cell's
    /// address (the pool's layout test).
    pub(crate) fn spans(&self) -> [(usize, usize); 2] {
        let base = self as *const Self as usize;
        let state = base + std::mem::offset_of!(StealCell, state);
        let slot = base + std::mem::offset_of!(StealCell, slot);
        [
            (state, state + std::mem::size_of::<AtomicUsize>()),
            (slot, slot + std::mem::size_of::<Option<Job>>()),
        ]
    }
}
