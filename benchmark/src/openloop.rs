//! The open-loop load generator: requests are sent on a fixed schedule whether or not
//! earlier ones have completed, and each is timed from the moment it was *due*, so a
//! stall in the system (or in the generator) shows up as latency on every request it
//! delayed instead of silently lowering the offered load. How late the generator itself
//! ran is recorded per request (`harness.gen_lag_us_p99`).
//!
//! The generator is one thread. A synchronous target (`install`, `execute`) completes the
//! request inside `send`; an asynchronous one (`JobServer::submit`) is observed through
//! `poll` while the generator waits for the next due time.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// A fixed-rate schedule: request `i` is due `i × period` after the start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Nanoseconds between consecutive due times.
    pub period_ns: u64,
    /// Number of requests.
    pub count: u64,
}

impl Schedule {
    /// `rate_hz` requests per second for `seconds` seconds (at least one request).
    pub fn for_rate(rate_hz: f64, seconds: f64) -> Self {
        assert!(rate_hz > 0.0 && seconds > 0.0, "an open loop needs a positive rate and length");
        let period_ns = (1e9 / rate_hz).round().max(1.0) as u64;
        let count = ((seconds * 1e9) as u64 / period_ns).max(1);
        Schedule { period_ns, count }
    }

    /// When request `i` is due, in ns after the start.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.period_ns
    }
}

/// The generator's time source (a fake one drives the unit tests).
pub trait Clock {
    /// Nanoseconds since the clock's start.
    fn now_ns(&self) -> u64;
    /// Let up to `remaining_ns` pass; `outstanding` requests are waiting to be polled.
    fn pause(&self, remaining_ns: u64, outstanding: usize);
}

/// The wall clock. It sleeps through long gaps when nothing is outstanding and spins
/// otherwise, so completions are observed promptly and the next send is on time.
#[derive(Debug)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock starting now.
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn pause(&self, remaining_ns: u64, outstanding: usize) {
        const SPIN_BELOW_NS: u64 = 300_000;
        if outstanding == 0 && remaining_ns > SPIN_BELOW_NS {
            std::thread::sleep(Duration::from_nanos(remaining_ns - SPIN_BELOW_NS / 2));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What one open-loop phase measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpenLoop {
    /// Per request: due time → completion, µs.
    pub latency_us: Vec<f64>,
    /// Per request: due time → actual send, µs (the generator's own lateness).
    pub lag_us: Vec<f64>,
}

/// How long the generator waits after the last send for outstanding requests.
const DRAIN_LIMIT_NS: u64 = 5_000_000_000;

/// Drive `schedule` against an asynchronous target. `send(i, due_ns)` issues request `i`;
/// `poll(now_ns)` observes completions and returns how many requests are still
/// outstanding. Returns each request's lag in µs. Requests still outstanding
/// [`DRAIN_LIMIT_NS`] after the last send are left to the caller to count as failed.
pub fn drive<C: Clock>(
    clock: &C,
    schedule: Schedule,
    mut send: impl FnMut(u64, u64),
    mut poll: impl FnMut(u64) -> usize,
) -> Vec<f64> {
    let mut lag_us = Vec::with_capacity(schedule.count as usize);
    let start = clock.now_ns();
    for i in 0..schedule.count {
        let due = start + schedule.due_ns(i);
        let sent = loop {
            let now = clock.now_ns();
            if now >= due {
                break now;
            }
            let outstanding = poll(now);
            clock.pause(due - now, outstanding);
        };
        lag_us.push((sent - due) as f64 / 1e3);
        send(i, due);
    }
    let last_send = clock.now_ns();
    loop {
        let now = clock.now_ns();
        let outstanding = poll(now);
        if outstanding == 0 || now - last_send > DRAIN_LIMIT_NS {
            break;
        }
        clock.pause(0, outstanding);
    }
    lag_us
}

/// Drive `schedule` against a synchronous target: `request(i)` returns when request `i`
/// is complete, so a slow request delays the sends behind it and their latency, counted
/// from their due times, says so.
pub fn drive_sync<C: Clock>(
    clock: &C,
    schedule: Schedule,
    mut request: impl FnMut(u64),
) -> OpenLoop {
    let latency = Cell::new(Vec::with_capacity(schedule.count as usize));
    let lag_us = drive(
        clock,
        schedule,
        |i, due| {
            request(i);
            let mut v = latency.take();
            v.push((clock.now_ns() - due) as f64 / 1e3);
            latency.set(v);
        },
        |_| 0,
    );
    OpenLoop { latency_us: latency.into_inner(), lag_us }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to: `pause` jumps to the due time.
    struct FakeClock(Cell<u64>);

    impl FakeClock {
        fn advance(&self, ns: u64) {
            self.0.set(self.0.get() + ns);
        }
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn pause(&self, remaining_ns: u64, _outstanding: usize) {
            self.advance(remaining_ns.max(1));
        }
    }

    #[test]
    fn schedule_is_evenly_spaced_and_sized_by_rate() {
        let s = Schedule::for_rate(1_000.0, 2.5);
        assert_eq!(s, Schedule { period_ns: 1_000_000, count: 2_500 });
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(7), 7_000_000);
        let s = Schedule::for_rate(20_000.0, 0.01);
        assert_eq!((s.period_ns, s.count), (50_000, 200));
        assert_eq!(Schedule::for_rate(3.0, 0.1).count, 1, "never an empty phase");
    }

    #[test]
    fn an_on_time_generator_has_no_lag_and_latency_is_service_time() {
        let clock = FakeClock(Cell::new(500));
        let schedule = Schedule { period_ns: 1_000, count: 4 };
        let out = drive_sync(&clock, schedule, |_| clock.advance(200));
        assert_eq!(out.lag_us, vec![0.0; 4]);
        assert_eq!(out.latency_us, vec![0.2; 4]);
    }

    #[test]
    fn a_stall_is_charged_from_the_due_time_to_every_request_it_delays() {
        // Period 1000 ns; request 1 stalls for 2500 ns, the rest take 100 ns.
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule { period_ns: 1_000, count: 5 };
        let out = drive_sync(&clock, schedule, |i| clock.advance(if i == 1 { 2_500 } else { 100 }));
        // Request 1: due 1000, done 3500. Request 2: due 2000, sent 3500 (1500 late),
        // done 3600. Request 3: due 3000, sent 3600 (600 late), done 3700. Request 4 is
        // on time again.
        assert_eq!(out.lag_us, vec![0.0, 0.0, 1.5, 0.6, 0.0]);
        assert_eq!(out.latency_us, vec![0.1, 2.5, 1.6, 0.7, 0.1]);
    }

    #[test]
    fn asynchronous_completions_are_polled_while_waiting_and_drained_at_the_end() {
        // Each request completes 1500 ns after it is sent: later than the next send.
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule { period_ns: 1_000, count: 3 };
        let pending = Cell::new(Vec::<(u64, u64)>::new()); // (due, completes_at)
        let done = Cell::new(Vec::<u64>::new()); // latency from due
        let lag = drive(
            &clock,
            schedule,
            |_, due| {
                let mut p = pending.take();
                p.push((due, clock.now_ns() + 1_500));
                pending.set(p);
            },
            |now| {
                let mut p = pending.take();
                let mut d = done.take();
                p.retain(|&(due, at)| {
                    if at <= now {
                        d.push(at - due);
                    }
                    at > now
                });
                let left = p.len();
                pending.set(p);
                done.set(d);
                left
            },
        );
        assert_eq!(lag, vec![0.0; 3]);
        assert_eq!(done.into_inner(), vec![1_500; 3], "every request was observed, none lost");
        assert!(pending.into_inner().is_empty());
    }
}
