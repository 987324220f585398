//! A fixed host-speed probe, timed next to every replay.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed drifts
//! with the other tenants' load: back-to-back replays of one scenario vary
//! by about ±20%, and the host's speed moves by as much again over minutes.
//! [`probe_s`] times a fixed piece of work that uses none of the program's
//! code: hash-map inserts and lookups with small string allocations,
//! scattered read-modify-writes over a 16 MiB array, and binary-heap pushes
//! and pops. (A register-only integer loop was tried too: its time did not
//! follow the replay's, because the host's slow spells hit memory and
//! allocation, not arithmetic.) Its time rises and falls with the
//! host's speed, so a replay's host time divided by the probe's time next to
//! it is steadier than either. A change to the program cannot move the
//! probe.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Seconds one pass of the probe's fixed work took.
pub fn probe_s() -> f64 {
    let start = Instant::now();
    black_box(hash_map_work());
    black_box(scattered_writes());
    black_box(heap_work());
    start.elapsed().as_secs_f64()
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 33
}

fn hash_map_work() -> usize {
    let mut map: HashMap<u64, String> = HashMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0;
    for i in 0..400_000u64 {
        let k = lcg(&mut x) % 8192;
        if i % 3 == 0 {
            map.insert(k, format!("f#{k}"));
        } else if let Some(v) = map.get(&k) {
            acc += v.len();
        } else {
            map.remove(&(k ^ 1));
        }
    }
    acc
}

fn scattered_writes() -> u64 {
    const LEN: usize = 1 << 21;
    let mut v = vec![0u64; LEN];
    let mut x = 7;
    for _ in 0..1_500_000 {
        let i = lcg(&mut x) as usize & (LEN - 1);
        v[i] = v[i].wrapping_add(x);
    }
    black_box(&v);
    v[LEN / 2]
}

fn heap_work() -> u64 {
    let mut heap = BinaryHeap::new();
    let mut x = 13;
    let mut acc = 0;
    for i in 0..600_000u64 {
        heap.push(Reverse((lcg(&mut x) % 100_000 + i, vec![i; 2])));
        if heap.len() > 512 {
            acc += heap.pop().map_or(0, |Reverse((at, _))| at);
        }
    }
    acc
}
