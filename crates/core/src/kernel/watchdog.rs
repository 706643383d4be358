//! The round-progress watchdog (DESIGN.md §4.2).
//!
//! A kernel that enables the watchdog spawns one monitor thread inside its
//! worker scope. The control thread bumps a shared progress counter
//! whenever a round advances the run (moves events or globals, or moves
//! the window). The monitor sleeps on a condvar in short slices; when the
//! counter stops changing for the configured wall-clock deadline it marks
//! the run stalled and invokes the kernel's abort hook (barrier poisoning),
//! which makes every kernel thread drain out so the run can return
//! [`crate::error::SimError::Stalled`] instead of hanging.
//!
//! Wall-clock readings here are `Instant`-based, which is legal in
//! `kernel/*` (xtask lint rule 4): they measure the simulator, never the
//! simulation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Shared state between a kernel's threads and its watchdog monitor.
pub(crate) struct Watchdog {
    /// Monotone progress counter; any bump resets the deadline.
    // PADDING: watchdog words are touched once per round / per poll slice
    // (milliseconds), never per event — contention is negligible.
    progress: AtomicU64,
    /// Set by the monitor when the deadline expired.
    stalled: AtomicBool, // PADDING: cold; see `progress`.
    /// Run-finished latch, so the monitor exits promptly at run end.
    done: Mutex<bool>,
    cond: Condvar,
}

impl Watchdog {
    pub fn new() -> Self {
        Watchdog {
            progress: AtomicU64::new(0),
            stalled: AtomicBool::new(false),
            done: Mutex::new(false),
            cond: Condvar::new(),
        }
    }

    /// Records progress (cheap: one relaxed RMW).
    #[inline]
    pub fn tick(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether the monitor aborted the run.
    pub fn stalled(&self) -> bool {
        self.stalled.load(Ordering::Acquire)
    }

    /// Tells the monitor the run is over; it returns without firing.
    pub fn finish(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        *done = true;
        self.cond.notify_all();
    }

    /// The monitor loop. Returns `true` when it fired (stall detected and
    /// `on_stall` invoked), `false` when the run finished first.
    pub fn monitor(&self, deadline: Duration, on_stall: impl FnOnce()) -> bool {
        // Poll in slices of deadline/8 (≥ 1ms) so short test deadlines are
        // honored promptly without busy-waiting on long production ones.
        let slice = (deadline / 8).max(Duration::from_millis(1));
        let mut last = self.progress.load(Ordering::Relaxed);
        let mut last_change = Instant::now();
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if *done {
                return false;
            }
            let (guard, _) = self
                .cond
                .wait_timeout(done, slice)
                .unwrap_or_else(|e| e.into_inner());
            done = guard;
            if *done {
                return false;
            }
            let cur = self.progress.load(Ordering::Relaxed);
            if cur != last {
                last = cur;
                last_change = Instant::now();
            } else if last_change.elapsed() >= deadline {
                // Release so kernel threads that observe `stalled` with
                // Acquire also observe everything before the abort.
                self.stalled.store(true, Ordering::Release);
                drop(done);
                on_stall();
                return true;
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool as StdBool;

    #[test]
    fn finish_stops_monitor_without_firing() {
        let wd = Watchdog::new();
        let fired = StdBool::new(false);
        std::thread::scope(|s| {
            let fired = &fired;
            let h = s.spawn(|| {
                wd.monitor(Duration::from_secs(60), || {
                    fired.store(true, Ordering::Relaxed)
                })
            });
            wd.tick();
            wd.finish();
            assert!(!h.join().unwrap());
            assert!(!fired.load(Ordering::Relaxed));
            assert!(!wd.stalled());
        });
    }

    #[test]
    fn silence_past_deadline_fires() {
        let wd = Watchdog::new();
        let fired = StdBool::new(false);
        std::thread::scope(|s| {
            let fired = &fired;
            let h = s.spawn(|| {
                wd.monitor(Duration::from_millis(20), || {
                    fired.store(true, Ordering::Relaxed)
                })
            });
            assert!(h.join().unwrap(), "no ticks: the watchdog must fire");
            assert!(fired.load(Ordering::Relaxed));
            assert!(wd.stalled());
            wd.finish(); // idempotent after firing
        });
    }

    #[test]
    fn steady_ticks_keep_it_alive() {
        let wd = Watchdog::new();
        std::thread::scope(|s| {
            let h = s.spawn(|| wd.monitor(Duration::from_millis(50), || {}));
            for _ in 0..10 {
                wd.tick();
                std::thread::sleep(Duration::from_millis(5));
            }
            wd.finish();
            assert!(!h.join().unwrap(), "ticking run must not be aborted");
        });
    }
}
