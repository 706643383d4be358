//! A fixed reference computation, owned by the benchmark and independent of
//! the program, run in a fresh process between the timed runs.
//!
//! The sandbox this benchmark runs in shares its cores, caches and memory
//! with other tenants: the same deterministic run takes anywhere between
//! 1x and 2x as long from one half-minute to the next, and no statistic
//! over one invocation's repeats removes that. What slows a fresh process
//! at some moment slows every fresh process at that moment, so end-to-end
//! timings are reported relative to the speed at which this reference ran
//! during the same seconds (`README.md`, "Reference speed").
//!
//! The work resembles a simulator's, including what a fresh process pays
//! for memory it has never touched: build a 32 MiB table with scattered
//! writes, run a hold model on a binary heap (small, branchy,
//! cache-resident), then walk the table by dependent loads.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// What one reference run takes on the machine the baseline was recorded
/// on while it is quiet. Only a scale: it turns the relative speed back
/// into seconds of about the measured size.
pub const NOMINAL_S: f64 = 0.23;

/// 8 Mi entries of 4 bytes: 32 MiB, several times the last-level cache.
const TABLE_LEN: usize = 1 << 23;
const HEAP_RESIDENT: usize = 4096;
const HOLD_OPS: usize = 1_000_000;
const CHASE_OPS: usize = 500_000;

fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// One cycle through all `len` entries (Sattolo's shuffle), so a walk
/// never falls into a short loop that would fit a cache.
fn single_cycle(len: usize, lcg: &mut u64) -> Vec<u32> {
    let mut table: Vec<u32> = (0..len as u32).collect();
    for i in (1..len).rev() {
        table.swap(i, (lcg_next(lcg) % i as u64) as usize);
    }
    table
}

/// Runs the fixed work once, from fresh memory, and returns its seconds.
pub fn run_once() -> f64 {
    let started = Instant::now();
    let mut lcg = 0x5EED;
    let table = single_cycle(TABLE_LEN, &mut lcg);
    let mut heap: BinaryHeap<Reverse<u64>> = (0..HEAP_RESIDENT)
        .map(|_| Reverse(lcg_next(&mut lcg)))
        .collect();
    for _ in 0..HOLD_OPS {
        let Reverse(earliest) = heap.pop().expect("the heap keeps its resident size");
        heap.push(Reverse(earliest + 1 + lcg_next(&mut lcg) % (1 << 20)));
    }
    let mut at = 0u32;
    for _ in 0..CHASE_OPS {
        at = table[at as usize];
    }
    std::hint::black_box((at, heap.len()));
    started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle() {
        let table = single_cycle(1000, &mut 7);
        let mut at = 0u32;
        for step in 1..=1000 {
            at = table[at as usize];
            assert_eq!(
                at == 0,
                step == 1000,
                "returned to the start after {step} steps"
            );
        }
    }
}
