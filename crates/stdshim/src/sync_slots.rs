//! Lock-free slot primitives for the warm request path.
//!
//! The pool's warm hit must be a handful of atomic operations, not a mutex
//! acquisition (DESIGN.md §5). This module provides the two building blocks:
//!
//! * [`SlotBitmap`] — a fixed-capacity bitmap free-list over `AtomicU64`
//!   words. A set bit means "this slot index is available in this bitmap's
//!   domain"; [`SlotBitmap::claim`] finds a set bit and CAS-clears it,
//!   [`SlotBitmap::release`] sets it back. Claim uses `Acquire` and release
//!   uses `Release` ordering, so everything a publisher wrote to a slot's
//!   backing storage *before* setting the bit is visible to the claimer
//!   after a successful claim — the publish-before-bit-set invariant the
//!   pool relies on.
//! * [`LazySlotTable`] — a two-level `OnceLock` table giving wait-free
//!   reads of densely indexed entries (per-key slot groups, per-container
//!   reverse index) without locking, growing one chunk at a time on first
//!   touch.
//! * [`MarkSet`] — a two-level atomic dirty set: lock-free writers mark an
//!   index, one lock-holding reader takes every mark, visiting only the
//!   marked words (the pool's eviction-dirty keys).
//!
//! Like the lock wrappers in [`crate::sync`], a `SlotBitmap` carries a
//! `&'static str` class label (convention: `"subsystem/role"`). The bitmap
//! is not a lock — claiming a bit never blocks and never counts against the
//! request-path scope assertion — but the label names the bitmap in misuse
//! panics (out-of-range indices, double release in debug builds), keeping
//! the diagnostics story uniform with the sanitizer's.
//!
//! Everything here is safe Rust over the [`crate::atomic`] facade — plain
//! `std::sync::atomic` in normal builds, the instrumented model-checker
//! types under `--cfg hotc_model` (the `atomic-facade` lint rule keeps raw
//! atomic imports out of this module); the workspace denies `unsafe_code`.

use crate::atomic::{Ordering, ShimAtomicU64 as AtomicU64, ShimOnceLock as OnceLock};

/// A fixed-capacity atomic bitmap free-list.
///
/// Bit `i` set ⇒ slot `i` is available to be claimed. All transitions are
/// single-word CAS/RMW operations:
///
/// * [`claim`](Self::claim) — find any set bit, clear it (`Acquire`), return
///   its index. The returned index is exclusively owned by the caller until
///   it is [`release`](Self::release)d.
/// * [`claim_at`](Self::claim_at) — clear one specific bit if set
///   (`Acquire`); used by lock-holding paths (evict, retire) that target a
///   known slot.
/// * [`release`](Self::release) — set bit `i` (`Release`). Returns `false`
///   if the bit was already set: a release of an unclaimed slot is rejected
///   rather than silently double-freeing the index.
///
/// Orderings: a claimer that observes a set bit via the `Acquire` CAS also
/// observes every store the releaser made before its `Release` set. That is
/// the only cross-slot guarantee; counting and snapshot reads are advisory.
#[derive(Debug)]
pub struct SlotBitmap {
    words: Box<[AtomicU64]>,
    capacity: usize,
    class: &'static str,
}

impl SlotBitmap {
    /// Creates an all-clear bitmap for `capacity` slots with a diagnostic
    /// class label (convention: `"subsystem/role"`, e.g. `"pool/slots"`).
    pub fn labeled(capacity: usize, class: &'static str) -> Self {
        let words = (0..capacity.div_ceil(64))
            .map(|_| AtomicU64::new(0))
            .collect();
        SlotBitmap {
            words,
            capacity,
            class,
        }
    }

    /// Number of slots this bitmap indexes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The diagnostic class label given at construction.
    pub fn class(&self) -> &'static str {
        self.class
    }

    #[inline]
    fn locate(&self, index: usize) -> (usize, u64) {
        assert!(
            index < self.capacity,
            "SlotBitmap '{}': index {} out of range (capacity {})",
            self.class,
            index,
            self.capacity
        );
        (index / 64, 1u64 << (index % 64))
    }

    /// Claims the lowest-index set bit: clears it and returns its index, or
    /// `None` if every bit is clear. `Acquire` on success — the caller sees
    /// everything published before the matching [`release`](Self::release).
    #[inline]
    pub fn claim(&self) -> Option<usize> {
        for (w, word) in self.words.iter().enumerate() {
            let mut current = word.load(Ordering::Relaxed);
            while current != 0 {
                let bit = current.trailing_zeros() as usize;
                match word.compare_exchange_weak(
                    current,
                    current & !(1u64 << bit),
                    Ordering::Acquire,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Some(w * 64 + bit),
                    Err(actual) => current = actual,
                }
            }
        }
        None
    }

    /// Claims bit `index` specifically. Returns `true` if this call cleared
    /// it (`Acquire`), `false` if it was already clear.
    #[inline]
    pub fn claim_at(&self, index: usize) -> bool {
        let (w, mask) = self.locate(index);
        self.words[w].fetch_and(!mask, Ordering::Acquire) & mask != 0
    }

    /// Releases slot `index` back into the bitmap (`Release`): every store
    /// made before this call is visible to whichever thread next claims the
    /// bit. Returns `false` — rejecting the release — if the bit was already
    /// set, which means the caller did not own the slot.
    #[inline]
    pub fn release(&self, index: usize) -> bool {
        let (w, mask) = self.locate(index);
        self.words[w].fetch_or(mask, Ordering::Release) & mask == 0
    }

    /// Mutation-harness variant of [`release`](Self::release) with the
    /// ordering deliberately weakened to `Relaxed` — it exists only in
    /// model-checker builds so `hotc-model/tests/mutation.rs` can prove the
    /// checker catches a publish that skips the release fence. Never a
    /// production code path.
    #[cfg(hotc_model)]
    pub fn release_relaxed(&self, index: usize) -> bool {
        let (w, mask) = self.locate(index);
        // lint:allow(atomic-ordering, deliberately weak: the mutation harness proves the checker catches this)
        self.words[w].fetch_or(mask, Ordering::Relaxed) & mask == 0
    }

    /// Whether bit `index` is currently set (`Acquire`; advisory — another
    /// thread may claim or release it immediately after the load).
    #[inline]
    pub fn is_set(&self, index: usize) -> bool {
        let (w, mask) = self.locate(index);
        self.words[w].load(Ordering::Acquire) & mask != 0
    }

    /// Number of set bits (advisory snapshot; see [`is_set`](Self::is_set)).
    pub fn count(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    /// Atomically claims *every* set bit word-by-word, returning the claimed
    /// indices in ascending order. Equivalent to looping
    /// [`claim`](Self::claim) to exhaustion, but one `swap` per word.
    pub fn drain(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (w, word) in self.words.iter().enumerate() {
            let mut got = word.swap(0, Ordering::Acquire);
            while got != 0 {
                out.push(w * 64 + got.trailing_zeros() as usize);
                got &= got - 1;
            }
        }
        out
    }

    /// Calls `f` for each set bit in an `Acquire` snapshot taken word by
    /// word (bits may change concurrently; indices are ascending).
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (w, word) in self.words.iter().enumerate() {
            let mut got = word.load(Ordering::Acquire);
            while got != 0 {
                f(w * 64 + got.trailing_zeros() as usize);
                got &= got - 1;
            }
        }
    }
}

/// A fixed-capacity two-level atomic dirty set over dense indices.
///
/// Writers [`mark`](Self::mark) an index with two `Release` `fetch_or`s:
/// the leaf word's bit first, then the summary bit naming that leaf word.
/// A single reader at a time (the caller serializes readers, e.g. under a
/// lock) [`drain`](Self::drain)s the set: for each set summary bit it
/// `Acquire`-swaps the summary word, then each named leaf word, to zero and
/// visits the indices it took — O(marked words), not O(capacity).
///
/// No mark is lost: a mark whose leaf bit the drain's swap read is visited
/// (and the swap's `Acquire` sees everything the marker wrote before its
/// `Release` set); a mark the drain missed left its bits set for the next
/// drain, because the marker sets the summary bit *after* the leaf bit and
/// the drain swaps the summary *before* the leaves. A summary bit whose
/// leaf word an earlier drain already emptied visits nothing.
#[derive(Debug)]
pub struct MarkSet {
    summary: Box<[AtomicU64]>,
    leaves: Box<[AtomicU64]>,
    capacity: usize,
}

impl MarkSet {
    /// An empty set over indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let leaves = capacity.div_ceil(64);
        MarkSet {
            summary: (0..leaves.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            leaves: (0..leaves).map(|_| AtomicU64::new(0)).collect(),
            capacity,
        }
    }

    /// Marks `index` (lock-free). Returns `false`, marking nothing, when
    /// `index` is out of range — the caller's cue to use its locked path.
    #[inline]
    pub fn mark(&self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        let leaf = index / 64;
        self.leaves[leaf].fetch_or(1 << (index % 64), Ordering::Release);
        self.summary[leaf / 64].fetch_or(1 << (leaf % 64), Ordering::Release);
        true
    }

    /// Whether `index` is currently marked (`Acquire`; advisory).
    pub fn is_marked(&self, index: usize) -> bool {
        index < self.capacity
            && self.leaves[index / 64].load(Ordering::Acquire) & (1 << (index % 64)) != 0
    }

    /// Takes every mark, calling `f` once per marked index (ascending).
    /// Readers must be serialized by the caller; markers never block.
    pub fn drain(&self, mut f: impl FnMut(usize)) {
        for (s, word) in self.summary.iter().enumerate() {
            // A stale zero only defers these marks to the next drain.
            if word.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut leaves = word.swap(0, Ordering::Acquire);
            while leaves != 0 {
                let leaf = s * 64 + leaves.trailing_zeros() as usize;
                leaves &= leaves - 1;
                let mut bits = self.leaves[leaf].swap(0, Ordering::Acquire);
                while bits != 0 {
                    f(leaf * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// A two-level lazily populated table with wait-free reads.
///
/// Conceptually `Vec<OnceLock<T>>` with a fixed maximum capacity, but the
/// backbone is a boxed slice of chunk `OnceLock`s so that:
///
/// * [`get`](Self::get) is two atomic loads and never blocks or allocates —
///   safe on the zero-lock warm path;
/// * memory grows one chunk (`chunk_size` entries) at a time on first
///   [`get_or_init`](Self::get_or_init) into that chunk;
/// * entries, once initialized, live at a stable address for the table's
///   lifetime (readers hold `&T` across concurrent inits elsewhere).
///
/// Indices at or beyond `capacity()` return `None`; callers fall back to
/// their locked slow path. Entries are never deinitialized — the value for
/// a dense id is expected to be reusable across that id's lifetimes (the
/// pool stores per-key slot groups that survive GC emptied, not freed).
#[derive(Debug)]
pub struct LazySlotTable<T> {
    chunks: Box<[OnceLock<Chunk<T>>]>,
    chunk_size: usize,
}

/// One lazily allocated run of `chunk_size` entry cells.
type Chunk<T> = Box<[OnceLock<T>]>;

impl<T> LazySlotTable<T> {
    /// Creates a table of `chunk_count × chunk_size` addressable entries;
    /// no chunk is allocated until first touched.
    pub fn new(chunk_count: usize, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "LazySlotTable chunk_size must be non-zero");
        LazySlotTable {
            chunks: (0..chunk_count).map(|_| OnceLock::new()).collect(),
            chunk_size,
        }
    }

    /// Total addressable entries (initialized or not).
    pub fn capacity(&self) -> usize {
        self.chunks.len() * self.chunk_size
    }

    /// Wait-free read of entry `index`: `None` if out of range or not yet
    /// initialized.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        let chunk = self.chunks.get(index / self.chunk_size)?.get()?;
        chunk[index % self.chunk_size].get()
    }

    /// Returns entry `index`, initializing it (and its chunk) via `init` if
    /// absent. `None` only when `index` is out of range — the caller's cue
    /// to use its locked fallback. May block briefly if another thread is
    /// initializing the same entry or chunk (cold paths only).
    pub fn get_or_init(&self, index: usize, init: impl FnOnce() -> T) -> Option<&T> {
        let slot = self.chunks.get(index / self.chunk_size)?;
        let chunk = slot.get_or_init(|| (0..self.chunk_size).map(|_| OnceLock::new()).collect());
        Some(chunk[index % self.chunk_size].get_or_init(init))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn claim_release_round_trip() {
        let b = SlotBitmap::labeled(8, "test/bitmap");
        assert_eq!(b.claim(), None, "fresh bitmap has nothing to claim");
        assert!(b.release(3), "first release accepted");
        assert!(b.is_set(3));
        assert_eq!(b.count(), 1);
        assert_eq!(b.claim(), Some(3));
        assert!(!b.is_set(3));
        assert_eq!(b.claim(), None);
    }

    #[test]
    fn claim_prefers_lowest_index() {
        let b = SlotBitmap::labeled(128, "test/bitmap");
        for i in [5usize, 70, 127] {
            assert!(b.release(i));
        }
        assert_eq!(b.claim(), Some(5));
        assert_eq!(b.claim(), Some(70));
        assert_eq!(b.claim(), Some(127));
        assert_eq!(b.claim(), None);
    }

    #[test]
    fn word_boundaries() {
        // Indices 63/64/65 straddle the first word boundary; 64 is the
        // low bit of word 1 and must not alias bit 0 of word 0.
        let b = SlotBitmap::labeled(130, "test/bitmap");
        assert!(b.release(63));
        assert!(b.release(64));
        assert!(b.release(65));
        assert!(b.release(129));
        assert!(!b.is_set(0));
        assert!(b.claim_at(64));
        assert!(!b.claim_at(64), "second targeted claim finds bit clear");
        assert!(b.is_set(63));
        assert!(b.is_set(65));
        assert_eq!(b.drain(), vec![63, 65, 129]);
    }

    #[test]
    fn full_bitmap_claims_every_slot_once() {
        // Capacity deliberately not a multiple of 64: the tail word's
        // unused high bits must never be claimable.
        let cap = 100usize;
        let b = SlotBitmap::labeled(cap, "test/bitmap");
        for i in 0..cap {
            assert!(b.release(i));
        }
        assert!(!b.release(0), "full bitmap rejects further releases");
        assert_eq!(b.count(), cap);
        let mut seen = Vec::new();
        while let Some(i) = b.claim() {
            seen.push(i);
        }
        assert_eq!(seen, (0..cap).collect::<Vec<_>>());
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn release_of_unclaimed_is_rejected() {
        let b = SlotBitmap::labeled(64, "test/bitmap");
        assert!(b.release(10));
        assert!(!b.release(10), "double release rejected");
        assert_eq!(b.claim(), Some(10));
        assert!(b.release(10), "release after claim accepted again");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_release_panics_with_class() {
        let b = SlotBitmap::labeled(10, "test/bitmap");
        b.release(10);
    }

    #[test]
    fn drain_empties_and_reports() {
        let b = SlotBitmap::labeled(200, "test/bitmap");
        assert_eq!(b.drain(), Vec::<usize>::new());
        for i in (0..200).step_by(7) {
            assert!(b.release(i));
        }
        let drained = b.drain();
        assert_eq!(drained, (0..200).step_by(7).collect::<Vec<_>>());
        assert_eq!(b.count(), 0);
        assert_eq!(b.claim(), None);
    }

    #[test]
    fn for_each_set_snapshots_ascending() {
        let b = SlotBitmap::labeled(70, "test/bitmap");
        for i in [2usize, 63, 64, 69] {
            assert!(b.release(i));
        }
        let mut seen = Vec::new();
        b.for_each_set(|i| seen.push(i));
        assert_eq!(seen, vec![2, 63, 64, 69]);
        assert_eq!(b.count(), 4, "for_each_set does not consume bits");
    }

    #[test]
    fn concurrent_claims_are_exclusive() {
        // 8 threads race to claim 256 released slots; every slot must be
        // claimed exactly once across all threads.
        let b = Arc::new(SlotBitmap::labeled(256, "test/bitmap"));
        for i in 0..256 {
            assert!(b.release(i));
        }
        let mut all: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(i) = b.claim() {
                            mine.push(i);
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("claimer thread"))
                .collect()
        });
        all.sort_unstable();
        assert_eq!(all, (0..256).collect::<Vec<_>>());
    }

    #[test]
    fn lazy_table_get_or_init_is_stable() {
        let t: LazySlotTable<String> = LazySlotTable::new(4, 8);
        assert_eq!(t.capacity(), 32);
        assert_eq!(t.get(5), None);
        let v = t.get_or_init(5, || "five".to_string()).expect("in range");
        assert_eq!(v, "five");
        // Second init is ignored; the first value wins.
        let again = t.get_or_init(5, || "other".to_string()).expect("in range");
        assert_eq!(again, "five");
        assert_eq!(t.get(5).map(String::as_str), Some("five"));
        // Out of range → None, never a panic: callers fall back to locks.
        assert_eq!(t.get(32), None);
        assert!(t.get_or_init(32, String::new).is_none());
    }

    #[test]
    fn lazy_table_concurrent_first_touch_initializes_once() {
        let t: Arc<LazySlotTable<usize>> = Arc::new(LazySlotTable::new(2, 64));
        let inits = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = Arc::clone(&t);
                let inits = Arc::clone(&inits);
                s.spawn(move || {
                    for i in 0..128 {
                        let v = t
                            .get_or_init(i, || {
                                inits.fetch_add(1, Ordering::Relaxed);
                                i * 10
                            })
                            .expect("in range");
                        assert_eq!(*v, i * 10);
                    }
                });
            }
        });
        assert_eq!(inits.load(Ordering::Relaxed), 128, "each entry inits once");
    }

    #[test]
    fn mark_set_drains_each_mark_once() {
        let m = MarkSet::new(5000);
        let mut seen = Vec::new();
        m.drain(|i| seen.push(i));
        assert!(seen.is_empty(), "fresh set is empty");
        for i in [4999usize, 0, 63, 64, 4095, 4096, 64] {
            assert!(m.mark(i));
        }
        assert!(m.is_marked(4096) && !m.is_marked(1));
        assert!(!m.mark(5000), "out of range is refused, not wrapped");
        m.drain(|i| seen.push(i));
        assert_eq!(seen, vec![0, 63, 64, 4095, 4096, 4999]);
        seen.clear();
        m.drain(|i| seen.push(i));
        assert!(seen.is_empty(), "a drain takes every mark");
        assert!(!m.is_marked(4096));
    }

    #[test]
    fn mark_set_loses_no_concurrent_mark() {
        // 4 markers race a draining reader; every index marked must be
        // visited by some drain (the final one runs after the join).
        let m = Arc::new(MarkSet::new(1024));
        let mut seen = std::thread::scope(|s| {
            for t in 0..4 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in (t..1024).step_by(4) {
                        assert!(m.mark(i));
                    }
                });
            }
            let mut seen = Vec::new();
            for _ in 0..50 {
                m.drain(|i| seen.push(i));
            }
            seen
        });
        m.drain(|i| seen.push(i));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, (0..1024).collect::<Vec<_>>());
    }
}
