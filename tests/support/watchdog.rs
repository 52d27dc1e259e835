//! A watchdog for tests of a wake. No wait in `rws-runtime` re-checks on a timer, so a
//! lost wake blocks its waiter for good: run the test's body on a thread of its own and
//! fail, naming the wake, if the body has not returned within the limit. Pulled in with
//! `#[path]`, like `counting_alloc.rs`.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// How long a test of a wake may run: tens of times what any of them takes on a loaded
/// host. A lost wake never ends its wait, so the limit only sets how soon it is reported.
pub const LIMIT: Duration = Duration::from_secs(20);

/// Run `body` and return what it returns, or fail once `limit` has passed without it: then
/// `wake` (the wake the test is about) was lost. A panic in `body` fails the test as it
/// would have without the watchdog. A body that hangs cannot be joined: its thread is left
/// until the test binary exits.
pub fn within<R: Send + 'static>(
    limit: Duration,
    wake: &str,
    body: impl FnOnce() -> R + Send + 'static,
) -> R {
    let (done, outcome) = mpsc::channel();
    let runner = thread::spawn(move || {
        let _ = done.send(panic::catch_unwind(AssertUnwindSafe(body)));
    });
    let result = match outcome.recv_timeout(limit) {
        Ok(result) => result,
        Err(_) => panic!("lost wake: {wake} did not end its wait within {limit:?}"),
    };
    runner.join().expect("the body's panic was caught on its thread");
    result.unwrap_or_else(|payload| panic::resume_unwind(payload))
}
