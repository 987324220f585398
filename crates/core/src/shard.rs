//! The sharded concurrent runtime pool (§IV-B at production scale).
//!
//! The paper's key-value pool shards naturally along the runtime key: a
//! key's slot never interacts with another key's slot except during global
//! eviction. [`ShardedPool`] interns each configuration into a dense
//! [`KeyId`] and places it on one of N shards round-robin — but the warm
//! hit itself no longer touches the shard lock at all. Each key owns a
//! fixed-capacity slot array indexed by two [`stdshim::sync::SlotBitmap`]
//! free-lists (`avail` and `in_use`), so a warm acquire is a claim-bit CAS
//! plus a container-handle load, and a warm release is the mirror image.
//!
//! Lock discipline (see DESIGN.md §5):
//!
//! * **warm hit: zero locks.** `acquire_id` claims an `avail` bit with a
//!   CAS and loads the packed container entry; `release` resolves the
//!   container through a lock-free reverse index and claims its `in_use`
//!   bit. Under `KeyPolicy::Exact` the request-path sanitizer scope asserts
//!   a lock depth of zero on this path in debug builds.
//! * **miss / cold start / evict / controller / GC: shard lock.** The shard
//!   `Mutex` serializes slot-array *occupancy* changes (which slot index
//!   holds which container) and the overflow lists; engine calls (container
//!   creation, cleanup, teardown) always happen outside it, one lock at a
//!   time, so cold starts on different keys overlap.
//! * **publish-before-bit-set.** A newly cold-started or pre-warmed
//!   container's packed entry and reverse-index mapping are stored *before*
//!   its bitmap bit is set, and the bit-set is a release store — a claimer's
//!   acquire-CAS therefore always observes a fully published slot.
//! * global eviction is **indexed, then two-phase**: each shard keeps an
//!   ordered set of per-key *heads* — a key's oldest available container
//!   as `(created_at, container, key)` — plus a `container → created_at`
//!   record of the containers it tracks, both mutated under the shard lock.
//!   Phase one visits the shards one lock at a time and takes each one's
//!   valid front; phase two re-locks the owner of the oldest, re-verifies
//!   the entry, and claims the victim's `avail` bit (retrying if a racing
//!   acquire took it first) — no operation ever takes all shard locks at
//!   once.
//! * **the index stays off the warm path.** A lock-free acquire that takes
//!   a key's head leaves the entry stale; the evictor finds it at the front,
//!   sees the container is no longer available, and re-derives that key. A
//!   lock-free release makes a container available again, which may lower
//!   the head, so it marks the key *eviction-dirty*: its in-use decrement
//!   is one RMW that also counts a mark in the same word, and only the
//!   first mark since the evictor's last drain sets the key's bit in the
//!   shard's two-level [`MarkSet`]. The evictor drains those bits, clears
//!   each key's mark count (`Acquire`), and only then reads its `avail`
//!   bits: a release whose `Release` mark the clear reads is visible to
//!   that read, and a release ordered after the clear finds zero marks and
//!   marks the key again — so a racing release is never lost from the
//!   index, only deferred to the next eviction. Locked paths that make a
//!   container available (prewarm, overflow hand-back) lower the head
//!   directly. The scan this replaces survives as the reference the
//!   lockstep tests and debug builds hold every eviction to.
//! * **parking stays off the warm path too.** The controller may park a
//!   provably idle key ([`ShardedPool::park_keys`]): it leaves the active
//!   list and a per-shard deadline queue brings it back. Locked touches
//!   un-park it on the spot. A lock-free warm acquire learns that the key
//!   is parked from the in-use increment it already does (the flag lives
//!   in the same word) and sets the key's bit in the shard's wake
//!   [`MarkSet`], which the next dirty snapshot drains. Parking sets the
//!   flag by CAS, expecting no container in use, and then re-checks the
//!   demand watermark, so a racing acquire is either seen or woken.
//!
//! The pool's bookkeeping invariants (enforced by the property tests):
//!
//! * `total_live() == engine.live_count()` at quiescence;
//! * a slot index is in `avail` or `in_use`, never both; a container is
//!   owned by at most one request at a time (the `in_use` bit is the
//!   ownership token a release must claim);
//! * the `free` bitmap (slot-array occupancy) and the overflow lists are
//!   mutated only under the shard lock, so a key's live population is exact
//!   whenever the lock is held — the controller's GC decisions can never
//!   race a half-finished warm operation into stranding a container;
//! * a slot exists only while a container of its type exists or existed
//!   within the last [`ShardedPool::gc_intervals`] demand snapshots — failed
//!   creates never materialize slots, and long-dead slots are garbage
//!   collected together with their controller state.

use crate::key::{needs_reconfig, KeyId, KeyInterner, KeyPolicy, RuntimeKey, FUZZY_RECONFIG_COST};
use containersim::{ContainerConfig, ContainerEngine, ContainerId, CostBreakdown, EngineError};
use faas::Acquisition;
use simclock::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;
use stdshim::atomic::{Ordering, ShimAtomicU64 as AtomicU64, ShimAtomicUsize as AtomicUsize};
use stdshim::sync::{LazySlotTable, MarkSet, Mutex, SlotBitmap};
use stdshim::FastMap;

/// Default shard count — enough to spread a handful of worker threads'
/// runtime types without measurable cost for single-threaded use.
pub const DEFAULT_SHARDS: usize = 8;

/// Default number of consecutive zero-demand snapshots after which an empty
/// slot is garbage collected.
pub const DEFAULT_GC_INTERVALS: u32 = 3;

/// The in-use count's bits of [`KeySlots::in_use_word`]. Bit 31 is the
/// [`PARKED`] flag, and the high half counts eviction-dirty marks, in units
/// of [`MARK_ONE`].
const IN_USE_MASK: u64 = PARKED - 1;
/// Set in [`KeySlots::in_use_word`] while the controller has parked the key
/// (see [`ShardedPool::park_keys`]).
const PARKED: u64 = 1 << 31;
/// The in-use count plus [`PARKED`]: everything below the mark count.
const LOW_HALF: u64 = u32::MAX as u64;
const MARK_ONE: u64 = LOW_HALF + 1;

/// Lock-free slot-array capacity per key. Containers beyond this population
/// (or keys beyond the lock-free key table) spill into the shard-locked
/// overflow lists, trading the CAS fast path for unbounded capacity.
const SLOTS_PER_KEY: usize = 128;

/// Lock-free key table shape: `KEY_TABLE_CHUNKS × KEY_TABLE_CHUNK` dense key
/// ids are reachable without a lock.
const KEY_TABLE_CHUNKS: usize = 512;
const KEY_TABLE_CHUNK: usize = 64;

/// Container reverse-index shape (container id → packed key/slot).
const RINDEX_CHUNKS: usize = 4096;
const RINDEX_CHUNK: usize = 4096;

/// Scoped access to the container engine. The pool never holds a shard lock
/// across an engine call, so the engine guard's scope is chosen per call:
/// concurrent frontends implement this over a `Mutex<ContainerEngine>`,
/// single-threaded callers wrap their exclusive `&mut` in [`ExclusiveEngine`].
pub trait EngineRef {
    /// Runs `f` with exclusive access to the engine.
    fn with_engine<R>(&self, f: impl FnOnce(&mut ContainerEngine) -> R) -> R;

    /// Whether the caller owns the engine for the whole call, i.e. drives
    /// the pool from one thread. Debug builds then hold every eviction to
    /// the reference scan, which concurrent callers could race.
    fn is_exclusive(&self) -> bool {
        false
    }
}

impl EngineRef for Mutex<ContainerEngine> {
    fn with_engine<R>(&self, f: impl FnOnce(&mut ContainerEngine) -> R) -> R {
        f(&mut self.lock())
    }
}

/// [`EngineRef`] over an exclusive borrow, for single-threaded callers
/// (`ContainerPool`, the HotC provider) that already own `&mut` access.
pub struct ExclusiveEngine<'a> {
    inner: std::cell::RefCell<&'a mut ContainerEngine>,
}

impl<'a> ExclusiveEngine<'a> {
    /// Wraps an exclusive engine borrow.
    pub fn new(engine: &'a mut ContainerEngine) -> Self {
        ExclusiveEngine {
            inner: std::cell::RefCell::new(engine),
        }
    }
}

impl EngineRef for ExclusiveEngine<'_> {
    fn with_engine<R>(&self, f: impl FnOnce(&mut ContainerEngine) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }

    fn is_exclusive(&self) -> bool {
        true
    }
}

/// Packs a container handle and its has-executed flag into one atomic word:
/// `(id << 1) | execed`, with 0 meaning "slot empty" (engine ids start at 1).
fn pack_entry(container: ContainerId, execed: bool) -> u64 {
    (container.0 << 1) | u64::from(execed)
}

/// The container packed into a slot entry, or `None` for an empty slot.
fn entry_container(entry: u64) -> Option<ContainerId> {
    if entry == 0 {
        None
    } else {
        Some(ContainerId(entry >> 1))
    }
}

/// One key's lock-free slot array: the warm-path state ([Fig. 7]'s value
/// list, flattened into atomics).
///
/// Index lifecycle: `free` (unoccupied, mutated **only** under the shard
/// lock) → publish stores the packed entry + reverse-index mapping, then
/// sets exactly one of `avail`/`in_use` — the release-store that makes the
/// slot claimable. While a slot index is occupied its entry names the same
/// container; only lock-holding paths (publish, dispose) rewrite it, so
/// lock-free claimers can re-verify entries without ABA hazards.
#[derive(Debug)]
struct KeySlots {
    /// Packed `(container, execed)` per slot index; 0 = empty.
    entries: Box<[AtomicU64]>,
    /// Set = slot index unoccupied. Claimed at publish, released at dispose,
    /// both under the shard lock — `SLOTS_PER_KEY - free.count()` is the
    /// key's exact bitmap population whenever the lock is held.
    free: SlotBitmap,
    /// Set = warm container ready to claim (Existing-Available).
    avail: SlotBitmap,
    /// Set = handed out (Existing-Not-Available). The bit is the ownership
    /// token: a release must claim it, so double releases are rejected.
    in_use: SlotBitmap,
    /// Last application token executed per slot (0 = unknown/fresh): the
    /// gateway's lock-free app-switch check.
    last_app: Box<[AtomicU64]>,
    /// Two counters and a flag in one word. Low 31 bits ([`IN_USE_MASK`]):
    /// in-use containers of this key, bitmap + overflow, including releases
    /// still in transit through their engine critical section — decremented
    /// only once the container is available again (or disposed), so the
    /// demand watermark never under-reports a mid-release container. Bit 31
    /// ([`PARKED`]): the controller skips this key until it is touched, so
    /// the acquire's increment doubles as the "am I parked?" read. High
    /// half: lock-free hand-backs since the evictor last took this key's
    /// marks (see [`Self::hand_back`]), so marking the key eviction-dirty
    /// costs the release no RMW beyond the decrement it already does.
    in_use_word: AtomicU64,
    /// Peak in-use count since the last demand snapshot — the
    /// `history[k][t]` series the adaptive controller feeds the predictor.
    watermark: AtomicUsize,
}

impl KeySlots {
    fn new() -> KeySlots {
        let ks = KeySlots::new_unfreed();
        for i in 0..SLOTS_PER_KEY {
            ks.free.release(i);
        }
        ks
    }

    /// Every bitmap clear, *including* `free`: no slot is claimable until
    /// the caller releases free bits. Split from [`new`](Self::new) so the
    /// model API can free a small prefix instead of all
    /// [`SLOTS_PER_KEY`] — under the checker each bit release is a schedule
    /// point paid on every re-executed schedule.
    fn new_unfreed() -> KeySlots {
        KeySlots {
            entries: (0..SLOTS_PER_KEY).map(|_| AtomicU64::new(0)).collect(),
            free: SlotBitmap::labeled(SLOTS_PER_KEY, "pool/slot-free"),
            avail: SlotBitmap::labeled(SLOTS_PER_KEY, "pool/slot-avail"),
            in_use: SlotBitmap::labeled(SLOTS_PER_KEY, "pool/slot-inuse"),
            last_app: (0..SLOTS_PER_KEY).map(|_| AtomicU64::new(0)).collect(),
            in_use_word: AtomicU64::new(0),
            watermark: AtomicUsize::new(0),
        }
    }

    /// Occupied bitmap slots. Exact under the shard lock (see `free`).
    fn occupied(&self) -> usize {
        SLOTS_PER_KEY - self.free.count()
    }

    /// In-use containers right now (the low half of `in_use_word`).
    fn in_use(&self) -> usize {
        (self.in_use_word.load(Ordering::Relaxed) & IN_USE_MASK) as usize
    }

    /// Counts an acquisition into the demand bookkeeping. Returns whether
    /// the key was parked — read off the increment itself, no extra atomic.
    fn note_acquire(&self) -> bool {
        let before = self.in_use_word.fetch_add(1, Ordering::Relaxed);
        let now = (before + 1) & IN_USE_MASK;
        self.watermark.fetch_max(now as usize, Ordering::Relaxed);
        before & PARKED != 0
    }

    /// Sets [`PARKED`] if the key is idle: a CAS expecting an in-use count
    /// of zero, then a re-check that no acquisition raised the watermark
    /// since the demand snapshot reset it. Shard lock held.
    ///
    /// A racing acquire is either seen or woken. One whose increment
    /// precedes the CAS has either not been released (the CAS sees it in
    /// use and fails) or been released by a `Release` hand-back the
    /// `Acquire` CAS reads from, which makes its earlier watermark raise
    /// visible to the re-check; one whose increment follows the CAS reads
    /// the flag and wakes the key (see [`Self::claim_warm`]).
    fn try_park(&self) -> bool {
        let mut word = self.in_use_word.load(Ordering::Relaxed);
        loop {
            if word & (IN_USE_MASK | PARKED) != 0 {
                return false;
            }
            match self.in_use_word.compare_exchange(
                word,
                word | PARKED,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                // Only mark counts can have moved with the count at zero.
                Err(now) => word = now,
            }
        }
        if self.watermark.load(Ordering::Relaxed) != 0 {
            self.unpark();
            return false;
        }
        true
    }

    /// Clears [`PARKED`]. Shard lock held.
    fn unpark(&self) {
        // lint:allow(atomic-ordering, the flag publishes nothing; it only decides whether an acquire sets a wake bit)
        self.in_use_word.fetch_and(!PARKED, Ordering::Relaxed);
    }

    /// Counts an in-use container out of the demand bookkeeping without
    /// making it available (disposal, or a hand-back under the shard lock).
    fn note_settled(&self) {
        self.in_use_word.fetch_sub(1, Ordering::Relaxed);
    }

    /// Clears the key's eviction-dirty marks. The evictor calls this under
    /// the shard lock *before* reading `avail`: the `Acquire` pairs with the
    /// `Release` mark of every hand-back it clears, so each of those
    /// containers' `avail` bits is visible to the read that follows, and a
    /// hand-back ordered after this clear sees zero marks and re-marks.
    fn take_marks(&self) {
        self.in_use_word.fetch_and(LOW_HALF, Ordering::Acquire);
    }

    /// Calls `f(slot, container)` for each available bitmap container.
    fn for_each_avail(&self, mut f: impl FnMut(usize, ContainerId)) {
        self.avail.for_each_set(|i| {
            if let Some(c) = entry_container(self.entries[i].load(Ordering::Relaxed)) {
                f(i, c);
            }
        });
    }

    /// Lock-free warm claim: CAS an `avail` bit, load the published entry,
    /// take the `in_use` ownership token. Returns the slot index, container,
    /// and whether it has executed before. A claim on a parked key sets the
    /// key's bit at `local` in the shard's wake set, which the next dirty
    /// snapshot drains; parking only admits keys inside the set.
    fn claim_warm(&self, wakes: &MarkSet, local: usize) -> Option<(usize, ContainerId, bool)> {
        let i = self.avail.claim()?;
        // The claim's acquire CAS synchronizes with the publisher's release
        // bit-set, so the entry (stored before the bit) is fully visible.
        let entry = self.entries[i].load(Ordering::Relaxed);
        debug_assert_ne!(entry, 0, "claimed an avail bit over an empty slot");
        let fresh = self.in_use.release(i);
        debug_assert!(fresh, "slot was avail and in_use at once");
        if self.note_acquire() {
            let woke = wakes.mark(local);
            debug_assert!(woke, "a parked key lies outside its wake set");
        }
        Some((i, ContainerId(entry >> 1), entry & 1 == 1))
    }

    /// Lock-free release claim: verify the entry names `container`, take the
    /// `in_use` ownership token, then re-verify. Entries only change while a
    /// slot is unoccupied or under the shard lock, so a double release (bit
    /// already claimed) or a stale reverse-index mapping fails here and
    /// falls back to the locked slow path.
    fn try_claim_release(&self, i: usize, container: ContainerId) -> bool {
        if entry_container(self.entries[i].load(Ordering::Acquire)) != Some(container) {
            return false;
        }
        if !self.in_use.claim_at(i) {
            return false;
        }
        if entry_container(self.entries[i].load(Ordering::Relaxed)) != Some(container) {
            let fresh = self.in_use.release(i);
            debug_assert!(fresh, "restored claim found the in_use bit set");
            return false;
        }
        true
    }

    /// Scans the in-use bitmap for `container` and claims it. Called under
    /// the shard lock (slow-path release when the reverse index missed), but
    /// the claim itself still races lock-free releasers, so a lost CAS means
    /// the container was already released.
    fn claim_in_use_scan(&self, container: ContainerId) -> Option<usize> {
        let mut found = None;
        self.in_use.for_each_set(|i| {
            if found.is_none()
                && entry_container(self.entries[i].load(Ordering::Acquire)) == Some(container)
            {
                found = Some(i);
            }
        });
        let i = found?;
        self.in_use.claim_at(i).then_some(i)
    }

    /// Returns a claimed slot's container to the warm pool and marks the
    /// key eviction-dirty. Lock-free: the entry store (now flagged as
    /// executed) happens before the `avail` release-store, upholding
    /// publish-before-bit-set; the in-use decrement then also counts one
    /// mark (a single `Release` RMW, after the bit-set). Only the hand-back
    /// that finds zero marks — the first since the evictor's last
    /// [`Self::take_marks`] — also sets the key's bit in the shard's
    /// [`MarkSet`] at `local`.
    ///
    /// Returns `false` when `local` is beyond the mark set: the caller must
    /// then refresh the key's eviction head under the shard lock.
    fn hand_back(&self, i: usize, container: ContainerId, marks: &MarkSet, local: usize) -> bool {
        // lint:allow(atomic-ordering, entry store is ordered by the avail.release bit-set below)
        self.entries[i].store(pack_entry(container, true), Ordering::Relaxed);
        let fresh = self.avail.release(i);
        debug_assert!(fresh, "hand-back found the avail bit already set");
        let before = self.in_use_word.fetch_add(MARK_ONE - 1, Ordering::Release);
        before & !LOW_HALF != 0 || marks.mark(local)
    }

    /// Empties a slot index whose bits are already claimed by the caller.
    /// Shard lock required: this mutates `free` (occupancy).
    fn dispose_idle(&self, i: usize) {
        // lint:allow(atomic-ordering, caller owns every bit of this slot; unreachable until free.release)
        self.entries[i].store(0, Ordering::Relaxed);
        // lint:allow(atomic-ordering, same: slot unreachable until the free.release below)
        self.last_app[i].store(0, Ordering::Relaxed);
        let fresh = self.free.release(i);
        debug_assert!(fresh, "disposed slot was already free");
    }

    /// True if `container` sits available in this key's bitmap (diagnostic
    /// scan for keys outside the lock-free reverse index).
    fn avail_contains(&self, container: ContainerId) -> bool {
        let mut found = false;
        self.avail.for_each_set(|i| {
            if entry_container(self.entries[i].load(Ordering::Acquire)) == Some(container) {
                found = true;
            }
        });
        found
    }
}

/// One runtime type's containers, plus the bookkeeping the adaptive
/// controller feeds on. The warm-path state lives in the shared [`KeySlots`];
/// this struct holds the shard-locked remainder: overflow lists, controller
/// flags, and a representative configuration.
#[derive(Debug)]
struct Slot {
    /// The key's lock-free slot array, shared with the pool-level key table
    /// so warm paths reach it without this `Slot` (or its lock).
    ks: Arc<KeySlots>,
    /// Available containers beyond the bitmap capacity, FIFO. The flag
    /// records whether the container has ever executed (false for
    /// pre-warmed) so acquires report `first_exec` without an engine call.
    overflow_avail: VecDeque<(ContainerId, bool)>,
    /// In-use overflow containers, by id — membership makes a `release`
    /// legal, exactly like an `in_use` bitmap bit.
    overflow_in_use: Vec<ContainerId>,
    /// Overflow releases in transit through their engine critical section:
    /// claimed off `overflow_in_use` but not yet handed back or disposed.
    /// Keeps the live population exact for the GC decision.
    overflow_transit: usize,
    /// Whether this key is on the shard's active list (touched since the
    /// last snapshot, or still holding containers and not parked). The flag
    /// keeps the list duplicate-free without a per-touch hash probe.
    active: bool,
    /// The snapshot sequence number at which a parked key is due back on
    /// the active list; `None` unless parked (see
    /// [`ShardedPool::park_keys`]). Any touch un-parks it.
    parked_until: Option<u64>,
    /// The snapshot sequence number at which this slot went empty with zero
    /// demand, if it is currently cold; the slot is GC'd once it stays cold
    /// for the pool's GC threshold. Any touch clears it.
    cold_since: Option<u64>,
    /// A representative configuration for this key, kept so the controller
    /// can pre-warm by key alone.
    config: ContainerConfig,
    /// This key's entry in the shard's eviction index, if any (see
    /// [`ShardState::heads`]).
    head: Option<Head>,
}

impl Slot {
    fn new(config: ContainerConfig, ks: Arc<KeySlots>) -> Self {
        Slot {
            ks,
            overflow_avail: VecDeque::new(),
            overflow_in_use: Vec::new(),
            overflow_transit: 0,
            active: false,
            parked_until: None,
            cold_since: None,
            config,
            head: None,
        }
    }

    /// Whether `head`'s container still sits available in this key. Exact
    /// under the shard lock, up to racing lock-free acquires.
    fn holds_available(&self, head: Head) -> bool {
        match head.slot {
            Some(i) => {
                entry_container(self.ks.entries[i].load(Ordering::Relaxed)) == Some(head.container)
                    && self.ks.avail.is_set(i)
            }
            None => self
                .overflow_avail
                .iter()
                .any(|&(c, _)| c == head.container),
        }
    }

    /// Exact live population (bitmap + overflow, including releases in
    /// transit). Only meaningful under the shard lock.
    fn live_now(&self) -> usize {
        self.ks.occupied()
            + self.overflow_avail.len()
            + self.overflow_in_use.len()
            + self.overflow_transit
    }

    /// Available containers right now (bitmap + overflow).
    fn avail_now(&self) -> usize {
        self.ks.avail.count() + self.overflow_avail.len()
    }
}

/// A key's eviction head: its oldest available container, ordered by
/// `(created_at, container)` exactly like the reference scan (container ids
/// are unique, so `slot` never decides an ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Head {
    at: SimTime,
    container: ContainerId,
    /// The container's bitmap slot index; `None` for an overflow container.
    slot: Option<usize>,
}

impl Head {
    fn entry(self, id: KeyId) -> (SimTime, ContainerId, KeyId) {
        (self.at, self.container, id)
    }
}

#[derive(Debug, Default)]
struct ShardState {
    /// Keyed by interned id with [`FastMap`] — the id is an internal dense
    /// integer, so the default hasher's DoS resistance buys nothing on this
    /// per-request lookup.
    slots: FastMap<KeyId, Slot>,
    /// Keys the next control snapshot must visit: touched since the last
    /// snapshot or holding containers. Duplicate-free (see [`Slot::active`]).
    /// Lock-free warm hits never need to push here — any key with live
    /// containers is already on the list and stays on it until it drains.
    active: Vec<KeyId>,
    /// Cold slots awaiting GC, queued as `(key, went_cold_at_seq)` in
    /// nondecreasing sequence order — the dirty snapshot's "idle sweep" pops
    /// exactly the entries whose deadline arrived. Entries are lazily
    /// invalidated by re-touches (the slot's `cold_since` moves on).
    cold: VecDeque<(KeyId, u64)>,
    /// Parked keys' wake-up deadlines as `(due_seq, key)`, earliest first.
    /// Entries are lazily invalidated: one counts only while its key's
    /// [`Slot::parked_until`] still names its deadline.
    parked: BinaryHeap<Reverse<(u64, KeyId)>>,
    /// Snapshot sequence number (one per demand snapshot of this shard).
    seq: u64,
    /// Containers currently tracked by this shard (available + in use),
    /// maintained under the lock at every occupancy change so
    /// [`ShardedPool::total_live`] is O(shards). Warm hits and warm
    /// releases do not change occupancy, so they never touch it. The
    /// full-sweep snapshot cross-checks it in debug builds.
    live: usize,
    /// The eviction index: one `(created_at, container, key)` entry per
    /// key with a [`Slot::head`]. An entry may be stale — its container
    /// since claimed by a lock-free acquire, or disposed — but it is never
    /// younger than its key's oldest available container unless the key is
    /// marked eviction-dirty; the evictor re-derives dirty keys and stale
    /// front entries, so the first valid front is the shard's oldest.
    heads: BTreeSet<(SimTime, ContainerId, KeyId)>,
    /// Creation time of every container this shard tracks (available or in
    /// use): written at the two publish sites, removed at the four disposal
    /// sites, read when a key's head is re-derived. O(live containers).
    born: FastMap<ContainerId, SimTime>,
    /// Index entries the evictor examined (test-only cost probe).
    #[cfg(test)]
    head_visits: usize,
}

impl ShardState {
    /// Re-derives `id`'s eviction head from its `avail` bitmap and overflow
    /// list and re-indexes it. O(available containers of the key).
    fn refresh_head(&mut self, id: KeyId) {
        let Some(slot) = self.slots.get_mut(&id) else {
            return;
        };
        if let Some(old) = slot.head.take() {
            self.heads.remove(&old.entry(id));
        }
        let born = &self.born;
        let mut best: Option<Head> = None;
        let mut offer = |container, slot| {
            if let Some(&at) = born.get(&container) {
                let head = Head {
                    at,
                    container,
                    slot,
                };
                if best.is_none_or(|b| head < b) {
                    best = Some(head);
                }
            }
        };
        slot.ks.for_each_avail(|i, c| offer(c, Some(i)));
        for &(c, _) in &slot.overflow_avail {
            offer(c, None);
        }
        if let Some(head) = best {
            self.heads.insert(head.entry(id));
        }
        slot.head = best;
    }

    /// Lowers `id`'s head to a container this thread just made available
    /// under the shard lock (prewarm, overflow hand-back).
    fn offer_head(&mut self, id: KeyId, container: ContainerId, at_slot: Option<usize>) {
        let (Some(slot), Some(&at)) = (self.slots.get_mut(&id), self.born.get(&container)) else {
            return;
        };
        let head = Head {
            at,
            container,
            slot: at_slot,
        };
        if slot.head.is_some_and(|h| h <= head) {
            return;
        }
        if let Some(old) = slot.head.replace(head) {
            self.heads.remove(&old.entry(id));
        }
        self.heads.insert(head.entry(id));
    }

    /// Flags `id` as touched this control interval (O(1) when already
    /// active), un-parks it, and cancels any pending cold-GC countdown.
    fn mark_active(&mut self, id: KeyId) {
        if let Some(slot) = self.slots.get_mut(&id) {
            slot.cold_since = None;
            if slot.parked_until.take().is_some() {
                slot.ks.unpark();
            }
            if !slot.active {
                slot.active = true;
                self.active.push(id);
            }
        }
    }

    /// Puts `id` back on the active list if it is parked, and only then: a
    /// stale wake bit must not reset a cold key's GC countdown.
    fn wake(&mut self, id: KeyId) {
        if self
            .slots
            .get(&id)
            .is_some_and(|s| s.parked_until.is_some())
        {
            self.mark_active(id);
        }
    }
}

/// One key's demand sample within a [`ShardSnapshot`]. Carries the slot's
/// live population as seen while the shard lock was already held, so the
/// controller can size the key without re-locking the shard per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyDemand {
    /// The runtime key.
    pub id: KeyId,
    /// Peak concurrent use over the interval (`history[k][t]`).
    pub demand: usize,
    /// Available containers at snapshot time.
    pub avail: usize,
    /// In-use containers at snapshot time.
    pub in_use: usize,
}

impl KeyDemand {
    /// Total live containers (available + in use) at snapshot time.
    pub fn live(&self) -> usize {
        self.avail + self.in_use
    }
}

/// One shard's demand snapshot: per-key demand for the controller, plus the
/// keys whose empty slots were garbage collected in this snapshot (the
/// controller drops their predictors).
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// `history[k][t]` entries for the interval, sorted by key id.
    pub demands: Vec<KeyDemand>,
    /// Keys GC'd by this snapshot, sorted.
    pub retired: Vec<KeyId>,
    /// The shard's snapshot sequence number; [`ShardedPool::park_keys`]
    /// parks only against the latest snapshot.
    pub seq: u64,
}

/// An acquisition with the pool-side detail the sharded gateway needs to
/// keep the warm path off the engine lock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolAcquisition {
    /// The container to run in.
    pub container: ContainerId,
    /// Virtual time spent obtaining it.
    pub cost: SimDuration,
    /// Whether a new container had to be created.
    pub cold: bool,
    /// Whether this container has never executed before (fresh or
    /// pre-warmed) — exactly `engine.exec_count(container) == Some(0)`, but
    /// known from pool bookkeeping alone.
    pub first_exec: bool,
    /// Per-stage decomposition of a cold start (`None` on reuse).
    pub breakdown: Option<CostBreakdown>,
    /// Reconfiguration cost of a fuzzy-matched reuse (zero otherwise).
    pub reconfig: SimDuration,
    /// The bitmap slot index the container occupies, when it is tracked by
    /// the key's lock-free slot array (`None` for overflow containers). The
    /// gateway keys its lock-free last-app check on this.
    pub slot: Option<usize>,
    /// True when the acquisition completed without a single lock — a warm
    /// bitmap hit under an exact policy (fuzzy reuse checks the engine's
    /// config, locked-retry hits hold the shard lock). Callers assert a
    /// sanitizer lock depth of zero against this in debug builds.
    pub lock_free: bool,
}

impl From<PoolAcquisition> for Acquisition {
    fn from(a: PoolAcquisition) -> Acquisition {
        Acquisition {
            container: a.container,
            cost: a.cost,
            cold: a.cold,
            breakdown: a.breakdown,
            reconfig: a.reconfig,
        }
    }
}

/// A claimed bitmap slot: the caller holds the slot's ownership token (its
/// `in_use` bit is cleared) and must hand it back or dispose of it.
struct ClaimedSlot<'a> {
    id: KeyId,
    ks: &'a KeySlots,
    slot: usize,
}

/// How a slow-path release claimed its container under the shard lock.
enum SlowClaim {
    Bitmap(Arc<KeySlots>, usize),
    Overflow,
}

/// The sharded HotC container pool (Algorithms 1–2 per shard).
///
/// All methods take `&self`; warm hits are lock-free (bitmap CAS), while
/// the per-shard mutexes serialize occupancy changes of keys that hash to
/// the same shard. Engine work happens outside any shard lock via
/// [`EngineRef`].
#[derive(Debug)]
pub struct ShardedPool {
    policy: KeyPolicy,
    shards: Box<[Mutex<ShardState>]>,
    /// Per shard, the keys marked eviction-dirty by lock-free hand-backs
    /// since the evictor last drained that shard, indexed by the key's
    /// position on its shard (`id / shards`).
    marks: Box<[MarkSet]>,
    /// Per shard, the parked keys a lock-free warm acquire touched since
    /// the last snapshot, indexed like `marks`.
    wakes: Box<[MarkSet]>,
    /// Interns configurations into dense [`KeyId`]s; the shard maps, the
    /// controller, and the gateway all key on the id, so the canonical key
    /// string is formatted once per distinct configuration.
    interner: KeyInterner,
    /// Lock-free key table: dense key id → that key's slot array. Entries
    /// are created once (first cold start / prewarm of the key) and persist
    /// across slot GC — their counters are provably zero while the key is
    /// untracked, and a revived key reuses the same array.
    key_slots: LazySlotTable<Arc<KeySlots>>,
    /// Lock-free reverse index: container id → packed `(key, slot)` (see
    /// [`pack_rindex`]), 0 = untracked. Written at publish and cleared at
    /// dispose, both under the owning shard's lock; read lock-free by
    /// `release`, which gets its key and slot without touching the engine
    /// or the interner.
    rindex: LazySlotTable<AtomicU64>,
    gc_intervals: u32,
    /// Bumped by every operation that may change warm availability
    /// (acquire, release, prewarm, retire, evict). External indexes over
    /// this pool's warm state — the cluster placement index — compare it to
    /// decide whether a resync is due, so an idle pool costs them one load.
    /// A bump without an actual change (e.g. a failed cold start) only
    /// causes a spurious resync, never a stale read.
    mutation_epoch: AtomicU64,
}

/// Packs a key/slot pair for the container reverse index. Both halves are
/// stored +1 so the zero word means "no mapping".
fn pack_rindex(id: KeyId, slot: usize) -> u64 {
    ((id.index() as u64 + 1) << 32) | (slot as u64 + 1)
}

impl ShardedPool {
    /// Creates a pool with [`DEFAULT_SHARDS`] shards.
    pub fn new(policy: KeyPolicy) -> Self {
        Self::with_shards(policy, DEFAULT_SHARDS)
    }

    /// Creates a pool with an explicit shard count (at least 1).
    pub fn with_shards(policy: KeyPolicy, shards: usize) -> Self {
        let shards = shards.max(1);
        let marked_keys = (KEY_TABLE_CHUNKS * KEY_TABLE_CHUNK).div_ceil(shards);
        ShardedPool {
            policy,
            shards: (0..shards)
                .map(|_| Mutex::labeled(ShardState::default(), "pool/shard"))
                .collect(),
            marks: (0..shards).map(|_| MarkSet::new(marked_keys)).collect(),
            wakes: (0..shards).map(|_| MarkSet::new(marked_keys)).collect(),
            interner: KeyInterner::new(policy),
            key_slots: LazySlotTable::new(KEY_TABLE_CHUNKS, KEY_TABLE_CHUNK),
            rindex: LazySlotTable::new(RINDEX_CHUNKS, RINDEX_CHUNK),
            gc_intervals: DEFAULT_GC_INTERVALS,
            mutation_epoch: AtomicU64::new(0),
        }
    }

    /// Monotonic counter of warm-availability-affecting operations. Equal
    /// epochs guarantee warm counts have not changed since the last read;
    /// unequal epochs mean "maybe changed, rescan".
    pub fn mutation_epoch(&self) -> u64 {
        self.mutation_epoch.load(Ordering::Relaxed)
    }

    /// Marks warm availability as possibly changed (an atomic add, not a
    /// lock — the zero-lock warm path stays zero-lock).
    fn bump_epoch(&self) {
        self.mutation_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Visits every key with at least one available (warm) container,
    /// yielding `(id, available_count)`. Takes the shard locks one at a
    /// time; O(tracked keys). Counts are per-shard-consistent snapshots —
    /// exact when the caller serializes pool mutations (the single-threaded
    /// cluster scheduler does).
    pub fn for_each_warm(&self, mut f: impl FnMut(KeyId, usize)) {
        for shard in self.shards.iter() {
            let state = shard.lock();
            for (&id, slot) in &state.slots {
                let avail = slot.avail_now();
                if avail > 0 {
                    f(id, avail);
                }
            }
        }
    }

    /// The key policy in force.
    pub fn policy(&self) -> KeyPolicy {
        self.policy
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Consecutive zero-demand snapshots before an empty slot is GC'd.
    pub fn gc_intervals(&self) -> u32 {
        self.gc_intervals
    }

    /// Overrides the empty-slot GC threshold (setup only).
    pub fn set_gc_intervals(&mut self, intervals: u32) {
        self.gc_intervals = intervals.max(1);
    }

    /// The runtime key for a configuration under this pool's policy.
    pub fn key_of(&self, config: &ContainerConfig) -> RuntimeKey {
        RuntimeKey::from_config(config, self.policy)
    }

    /// Interns a configuration, returning its stable [`KeyId`] under this
    /// pool's policy. Steady-state calls hash only the key-relevant config
    /// fields — no string is formatted, nothing is allocated.
    pub fn intern_config(&self, config: &ContainerConfig) -> KeyId {
        self.interner.intern(config)
    }

    /// The id of an already-interned canonical key, if the pool has seen a
    /// configuration with that key.
    pub fn id_of(&self, key: &RuntimeKey) -> Option<KeyId> {
        self.interner.lookup(key)
    }

    /// The canonical key string behind an id issued by this pool.
    pub fn resolve_key(&self, id: KeyId) -> Option<RuntimeKey> {
        self.interner.resolve(id)
    }

    /// The shard a key lives on. Ids are dense, so round-robin by index
    /// gives a perfect spread without hashing.
    pub fn shard_of(&self, id: KeyId) -> usize {
        id.index() % self.shards.len()
    }

    fn shard(&self, id: KeyId) -> &Mutex<ShardState> {
        &self.shards[self.shard_of(id)]
    }

    /// The key's slot array, creating the key-table entry on first use.
    /// Keys beyond the table's capacity get a private array reachable only
    /// through their `Slot` — every touch of it holds the shard lock.
    fn slots_for(&self, id: KeyId) -> Arc<KeySlots> {
        match self
            .key_slots
            .get_or_init(id.index(), || Arc::new(KeySlots::new()))
        {
            Some(ks) => Arc::clone(ks),
            None => Arc::new(KeySlots::new()),
        }
    }

    /// Resolves a container through the lock-free reverse index. `None` for
    /// untracked containers, overflow containers, and keys beyond the
    /// lock-free key table — all of which the locked slow paths handle.
    fn rindex_lookup(&self, container: ContainerId) -> Option<ClaimedSlot<'_>> {
        let packed = self
            .rindex
            .get(container.0 as usize)?
            .load(Ordering::Acquire);
        if packed == 0 {
            return None;
        }
        let key_index = (packed >> 32) as usize - 1;
        let slot = (packed & u64::from(u32::MAX)) as usize - 1;
        let ks = &**self.key_slots.get(key_index)?;
        Some(ClaimedSlot {
            id: KeyId::from_index(key_index as u32),
            ks,
            slot,
        })
    }

    /// Publishes a container's reverse-index mapping (shard lock held).
    fn rindex_set(&self, container: ContainerId, id: KeyId, slot: usize) {
        if let Some(cell) = self
            .rindex
            .get_or_init(container.0 as usize, || AtomicU64::new(0))
        {
            cell.store(pack_rindex(id, slot), Ordering::Release);
        }
    }

    /// Clears a container's reverse-index mapping (shard lock held).
    fn rindex_clear(&self, container: ContainerId) {
        if let Some(cell) = self.rindex.get(container.0 as usize) {
            cell.store(0, Ordering::Release);
        }
    }

    /// Algorithm 1: obtain a runtime for `config`. Reuses the first
    /// available container of the same type if one exists, otherwise starts
    /// a new container — with the creation outside the shard lock, so cold
    /// starts of different types overlap.
    pub fn acquire(
        &self,
        engine: &impl EngineRef,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        self.acquire_detailed(engine, config, now).map(Into::into)
    }

    /// [`Self::acquire`] with the extra pool-side detail ([`PoolAcquisition`])
    /// the concurrent frontend uses to avoid engine round trips.
    pub fn acquire_detailed(
        &self,
        engine: &impl EngineRef,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<PoolAcquisition, EngineError> {
        let id = self.interner.intern(config);
        self.acquire_id(engine, id, config, now)
    }

    /// [`Self::acquire_detailed`] with a pre-interned key id: callers that
    /// serve the same function repeatedly (the sharded gateway) intern the
    /// key once at registration instead of even fingerprinting the
    /// configuration per request. `id` must be `self.intern_config(config)`.
    ///
    /// A warm hit takes **zero locks**: an `avail`-bit CAS claims the slot,
    /// the packed entry yields the container. Only a miss (no warm
    /// container) falls to the shard lock, and only a cold start touches
    /// the engine.
    pub fn acquire_id(
        &self,
        engine: &impl EngineRef,
        id: KeyId,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<PoolAcquisition, EngineError> {
        // DESIGN.md §5: warm hits are lock-free; every other transition
        // takes its locks (shard, engine) strictly one at a time. The
        // sanitizer enforces both in debug builds.
        let _scope = stdshim::request_path_scope();
        self.bump_epoch();
        let shard = self.shard_of(id);
        let local = id.index() / self.shards.len();
        if let Some(ks) = self.key_slots.get(id.index()) {
            if let Some((i, container, execed)) = ks.claim_warm(&self.wakes[shard], local) {
                let lock_free = self.policy != KeyPolicy::Fuzzy;
                let cost = self.fuzzy_reuse_cost(engine, container, config);
                // Exact keys never consult the engine on reuse, so the whole
                // warm hit must have run without a single lock.
                debug_assert!(
                    !lock_free || _scope.locks_taken() == 0,
                    "warm hit took a lock"
                );
                return Ok(PoolAcquisition {
                    container,
                    cost,
                    cold: false,
                    first_exec: !execed,
                    breakdown: None,
                    reconfig: cost,
                    slot: Some(i),
                    lock_free,
                });
            }
        }
        // The id↔config contract is verified off the lock-free path only:
        // the check interns, and the interner's read lock would break the
        // warm hit's zero-lock guarantee in debug builds.
        debug_assert_eq!(id, self.intern_config(config));
        let wakes = &self.wakes[shard];
        let shard = &self.shards[shard];
        let warm = {
            let mut guard = shard.lock();
            let warm = guard.slots.get_mut(&id).and_then(|slot| {
                // Retry the bitmap under the lock — a racing release may
                // have refilled it after the lock-free claim missed — then
                // fall back to the overflow list.
                if let Some((i, container, execed)) = slot.ks.claim_warm(wakes, local) {
                    return Some((Some(i), container, execed));
                }
                let (container, execed) = slot.overflow_avail.pop_front()?;
                slot.ks.note_acquire();
                slot.overflow_in_use.push(container);
                Some((None, container, execed))
            });
            if warm.is_some() {
                // A locked touch un-parks directly. A key holding a
                // container is otherwise active already, so this is a no-op.
                guard.mark_active(id);
            }
            warm
        };
        if let Some((slot_idx, container, execed)) = warm {
            let cost = self.fuzzy_reuse_cost(engine, container, config);
            return Ok(PoolAcquisition {
                container,
                cost,
                cold: false,
                first_exec: !execed,
                breakdown: None,
                reconfig: cost,
                slot: slot_idx,
                lock_free: false,
            });
        }
        // Not existing, or existing but not available: start a new one. The
        // slot is recorded only once the container exists, so a failed
        // create leaves no phantom slot behind for the controller to track.
        let (container, breakdown) =
            engine.with_engine(|e| e.create_container(config.clone(), now))?;
        let slot_idx = {
            let mut guard = shard.lock();
            let slot = guard
                .slots
                .entry(id)
                .or_insert_with(|| Slot::new(config.clone(), self.slots_for(id)));
            let slot_idx = self.publish_in_use(slot, id, container);
            guard.born.insert(container, now);
            guard.live += 1;
            guard.mark_active(id);
            slot_idx
        };
        Ok(PoolAcquisition {
            container,
            cost: breakdown.total(),
            cold: true,
            first_exec: true,
            breakdown: Some(breakdown),
            reconfig: SimDuration::ZERO,
            slot: slot_idx,
            lock_free: false,
        })
    }

    /// Reconfiguration cost of reusing `container` for `config` — zero for
    /// exact keys (every key-relevant field is pinned), an engine config
    /// check for fuzzy keys.
    fn fuzzy_reuse_cost(
        &self,
        engine: &impl EngineRef,
        container: ContainerId,
        config: &ContainerConfig,
    ) -> SimDuration {
        if self.policy != KeyPolicy::Fuzzy {
            return SimDuration::ZERO;
        }
        engine.with_engine(|e| match e.config(container) {
            Some(existing) if needs_reconfig(existing, config) => FUZZY_RECONFIG_COST,
            _ => SimDuration::ZERO,
        })
    }

    /// Publishes a just-created container straight into the in-use state
    /// (cold-start acquire). Shard lock held; the entry and reverse-index
    /// stores precede the `in_use` bit-set.
    fn publish_in_use(&self, slot: &mut Slot, id: KeyId, container: ContainerId) -> Option<usize> {
        let ks = &slot.ks;
        if let Some(i) = ks.free.claim() {
            // lint:allow(atomic-ordering, entry store is ordered by the in_use.release bit-set below)
            ks.entries[i].store(pack_entry(container, false), Ordering::Relaxed);
            // lint:allow(atomic-ordering, advisory recency token; ordered by the bit-set below)
            ks.last_app[i].store(0, Ordering::Relaxed);
            self.rindex_set(container, id, i);
            let fresh = ks.in_use.release(i);
            debug_assert!(fresh, "published slot's in_use bit was already set");
            ks.note_acquire();
            Some(i)
        } else {
            ks.note_acquire();
            slot.overflow_in_use.push(container);
            None
        }
    }

    /// Publishes a just-created container into the available state
    /// (prewarm), returning its bitmap slot index. Shard lock held;
    /// publish-before-bit-set as above.
    fn publish_avail(
        &self,
        slot: &mut Slot,
        id: KeyId,
        container: ContainerId,
        execed: bool,
    ) -> Option<usize> {
        let ks = &slot.ks;
        if let Some(i) = ks.free.claim() {
            // lint:allow(atomic-ordering, entry store is ordered by the avail.release bit-set below)
            ks.entries[i].store(pack_entry(container, execed), Ordering::Relaxed);
            // lint:allow(atomic-ordering, advisory recency token; ordered by the bit-set below)
            ks.last_app[i].store(0, Ordering::Relaxed);
            self.rindex_set(container, id, i);
            let fresh = ks.avail.release(i);
            debug_assert!(fresh, "published slot's avail bit was already set");
            Some(i)
        } else {
            slot.overflow_avail.push_back((container, execed));
            None
        }
    }

    /// Algorithm 2: clean the used container and add it back to the pool.
    /// A crashed (Stopped) container cannot be reused: it is disposed of
    /// instead. Releasing a container that was never acquired from this pool
    /// — or releasing the same container twice — is an
    /// [`EngineError::InvalidState`]: the duplicate must not be pooled, or
    /// one container could serve two requests at once.
    ///
    /// The warm path takes **zero pool locks**: the reverse index resolves
    /// the container to its key and slot, the `in_use` bit-claim proves
    /// ownership, and the hand-back is an entry store plus an `avail`
    /// release-store. Only crashed containers, overflow containers, and
    /// reverse-index misses fall to the shard lock.
    pub fn release(
        &self,
        engine: &impl EngineRef,
        container: ContainerId,
        now: SimTime,
    ) -> Result<SimDuration, EngineError> {
        // DESIGN.md §5: engine and shard locks are taken one at a time.
        let _scope = stdshim::request_path_scope();
        self.bump_epoch();
        if let Some(claim) = self.rindex_lookup(container) {
            if claim.ks.try_claim_release(claim.slot, container) {
                return self.finish_claimed_release(engine, claim, container, now, None);
            }
        }
        self.release_slow(engine, container, now)
    }

    /// Ends a claimed bitmap container's pool tenure: one engine critical
    /// section (optionally ending the execution first), then hand-back
    /// (lock-free) or disposal (shard lock). The caller holds the slot's
    /// ownership token; an engine rejection restores it.
    fn finish_claimed_release(
        &self,
        engine: &impl EngineRef,
        claim: ClaimedSlot<'_>,
        container: ContainerId,
        now: SimTime,
        end_exec_then_crashed: Option<bool>,
    ) -> Result<SimDuration, EngineError> {
        let outcome = engine.with_engine(|e| {
            let crashed = match end_exec_then_crashed {
                Some(crashed) => {
                    e.end_exec(container, now)?;
                    crashed
                }
                None => e.state(container) == containersim::ContainerState::Stopped,
            };
            let cost = if crashed {
                e.stop_and_remove(container, now)
            } else {
                e.cleanup(container, now)
            }?;
            Ok::<_, EngineError>((cost, crashed))
        });
        match outcome {
            Ok((cost, crashed)) => {
                if crashed {
                    self.dispose_claimed(claim, container);
                } else {
                    self.hand_back(&claim, container);
                }
                Ok(cost)
            }
            Err(err) => {
                // The engine rejected the hand-back (e.g. released while
                // still Running): return the ownership token so bookkeeping
                // stays honest. The key still holds the container, so it is
                // necessarily on the active list already.
                let fresh = claim.ks.in_use.release(claim.slot);
                debug_assert!(fresh, "restored claim found the in_use bit set");
                Err(err)
            }
        }
    }

    /// Hands a claimed bitmap container back lock-free and marks its key
    /// eviction-dirty. Keys beyond the shard's mark set re-derive their
    /// head under the shard lock instead; clearing the marks first keeps
    /// the next hand-back of such a key on this path too.
    fn hand_back(&self, claim: &ClaimedSlot<'_>, container: ContainerId) {
        let shard = self.shard_of(claim.id);
        let local = claim.id.index() / self.shards.len();
        if !claim
            .ks
            .hand_back(claim.slot, container, &self.marks[shard], local)
        {
            let mut guard = self.shards[shard].lock();
            claim.ks.take_marks();
            guard.refresh_head(claim.id);
        }
    }

    /// Disposes of a claimed bitmap container (crashed release, or evicted
    /// under the lock). Takes the shard lock: occupancy changes here.
    fn dispose_claimed(&self, claim: ClaimedSlot<'_>, container: ContainerId) {
        let mut guard = self.shard(claim.id).lock();
        debug_assert!(
            guard.slots.contains_key(&claim.id),
            "claimed container's key has no slot"
        );
        if guard.slots.contains_key(&claim.id) {
            claim.ks.dispose_idle(claim.slot);
            claim.ks.note_settled();
            self.rindex_clear(container);
            guard.born.remove(&container);
            guard.live -= 1;
        }
        // A disposal is a touch: the controller must re-examine this key.
        guard.mark_active(claim.id);
    }

    /// The locked release path: overflow containers, reverse-index misses
    /// (keys beyond the lock-free table), and failed fast-path claims
    /// (double releases, which must error here).
    fn release_slow(
        &self,
        engine: &impl EngineRef,
        container: ContainerId,
        now: SimTime,
    ) -> Result<SimDuration, EngineError> {
        let (config, state_now, crashed) = engine.with_engine(|e| {
            let config = e
                .config(container)
                .cloned()
                .ok_or(EngineError::UnknownContainer(container))?;
            let state = e.state(container);
            Ok::<_, EngineError>((
                config,
                state,
                state == containersim::ContainerState::Stopped,
            ))
        })?;
        // The container came from an acquire, so its config is already
        // interned — this is the fingerprint fast path, no string work.
        let id = self.interner.intern(&config);
        let claimed = self.claim_slow(id, container);
        let Some(claimed) = claimed else {
            return Err(EngineError::InvalidState {
                id: container,
                state: state_now,
                needed: "a container acquired from this pool",
            });
        };
        match claimed {
            SlowClaim::Bitmap(ks, slot) => self.finish_claimed_release(
                engine,
                ClaimedSlot { id, ks: &ks, slot },
                container,
                now,
                None,
            ),
            SlowClaim::Overflow => {
                let result = engine.with_engine(|e| {
                    if crashed {
                        e.stop_and_remove(container, now)
                    } else {
                        e.cleanup(container, now)
                    }
                });
                self.settle_overflow(id, container, crashed, result)
            }
        }
    }

    /// Claims `container` from `id`'s in-use bookkeeping under the shard
    /// lock: the overflow list first, then the in-use bitmap (keys beyond
    /// the reverse index). `None` means the pool never handed it out — or
    /// it was already released.
    fn claim_slow(&self, id: KeyId, container: ContainerId) -> Option<SlowClaim> {
        let mut guard = self.shard(id).lock();
        guard.slots.get_mut(&id).and_then(|slot| {
            if let Some(at) = slot.overflow_in_use.iter().position(|&c| c == container) {
                slot.overflow_in_use.swap_remove(at);
                slot.overflow_transit += 1;
                Some(SlowClaim::Overflow)
            } else {
                slot.ks
                    .claim_in_use_scan(container)
                    .map(|i| SlowClaim::Bitmap(Arc::clone(&slot.ks), i))
            }
        })
    }

    /// Settles an overflow release after its engine critical section:
    /// hand back, dispose, or restore on engine rejection.
    fn settle_overflow(
        &self,
        id: KeyId,
        container: ContainerId,
        crashed: bool,
        result: Result<SimDuration, EngineError>,
    ) -> Result<SimDuration, EngineError> {
        let mut guard = self.shard(id).lock();
        if let Some(slot) = guard.slots.get_mut(&id) {
            slot.overflow_transit -= 1;
            match &result {
                Ok(_) if !crashed => {
                    slot.overflow_avail.push_back((container, true));
                    slot.ks.note_settled();
                    guard.offer_head(id, container, None);
                }
                Ok(_) => {
                    slot.ks.note_settled();
                    guard.live -= 1;
                    guard.born.remove(&container);
                }
                Err(_) => {
                    // The engine rejected the hand-back; restore the claim
                    // so bookkeeping stays honest.
                    slot.overflow_in_use.push(container);
                }
            }
        }
        // A release (even of a crashed container) is a touch: the
        // controller must see this key's interval even if demand fell
        // to zero, so retire/GC decisions keep firing.
        guard.mark_active(id);
        result
    }

    /// The concurrent frontend's combined end-of-request path: claims the
    /// container, then ends the execution and cleans (or, if `crashed`,
    /// disposes of) the container in a **single** engine critical section.
    /// Bitmap containers resolve lock-free through the reverse index — which
    /// also knows the container's *true* key when the function was
    /// re-registered with a different configuration mid-flight. Returns
    /// `Ok(None)` without touching the engine when the container is unknown
    /// to both the reverse index and `id`'s locked bookkeeping, so the
    /// caller can fall back to the engine-derived [`Self::release`].
    pub fn try_finish_release(
        &self,
        engine: &impl EngineRef,
        id: KeyId,
        container: ContainerId,
        now: SimTime,
        crashed: bool,
    ) -> Result<Option<SimDuration>, EngineError> {
        // DESIGN.md §5: claim, engine critical section, and hand-back are
        // disjoint regions — lock-free, engine-locked, lock-free (or shard-
        // locked on disposal) — never nested.
        let _scope = stdshim::request_path_scope();
        self.bump_epoch();
        if let Some(claim) = self.rindex_lookup(container) {
            if claim.ks.try_claim_release(claim.slot, container) {
                return self
                    .finish_claimed_release(engine, claim, container, now, Some(crashed))
                    .map(Some);
            }
        }
        let Some(claimed) = self.claim_slow(id, container) else {
            return Ok(None);
        };
        match claimed {
            SlowClaim::Bitmap(ks, slot) => self
                .finish_claimed_release(
                    engine,
                    ClaimedSlot { id, ks: &ks, slot },
                    container,
                    now,
                    Some(crashed),
                )
                .map(Some),
            SlowClaim::Overflow => {
                let result = engine.with_engine(|e| {
                    e.end_exec(container, now)?;
                    if crashed {
                        e.stop_and_remove(container, now)
                    } else {
                        e.cleanup(container, now)
                    }
                });
                self.settle_overflow(id, container, crashed, result)
                    .map(Some)
            }
        }
    }

    /// Records the application token last executed in a bitmap slot,
    /// returning the previous token (0 = fresh or unknown). The caller must
    /// own the slot via a live acquisition. `None` when the key is beyond
    /// the lock-free table — the gateway then keeps the app on the
    /// container's engine record.
    pub fn note_app(&self, id: KeyId, slot: usize, token: u64) -> Option<u64> {
        if slot >= SLOTS_PER_KEY {
            return None;
        }
        let ks = self.key_slots.get(id.index())?;
        // lint:allow(atomic-ordering, advisory recency token; readers tolerate staleness)
        Some(ks.last_app[slot].swap(token, Ordering::Relaxed))
    }

    /// Pre-warms one container of the given configuration (adaptive
    /// controller's scale-up action). The container boots straight into the
    /// Existing-Available state. Returns the cold-start cost (background).
    pub fn prewarm(
        &self,
        engine: &impl EngineRef,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<SimDuration, EngineError> {
        let id = self.interner.intern(config);
        self.bump_epoch();
        let (container, breakdown) =
            engine.with_engine(|e| e.create_container(config.clone(), now))?;
        let mut guard = self.shard(id).lock();
        let slot = guard
            .slots
            .entry(id)
            .or_insert_with(|| Slot::new(config.clone(), self.slots_for(id)));
        let at_slot = self.publish_avail(slot, id, container, false);
        guard.born.insert(container, now);
        guard.offer_head(id, container, at_slot);
        guard.live += 1;
        guard.mark_active(id);
        Ok(breakdown.total())
    }

    /// Pre-warms one container for a key the pool already tracks, using the
    /// slot's representative configuration. Returns `Ok(None)` if the key is
    /// unknown (e.g. its slot was GC'd since the snapshot).
    pub fn prewarm_key_id(
        &self,
        engine: &impl EngineRef,
        id: KeyId,
        now: SimTime,
    ) -> Result<Option<SimDuration>, EngineError> {
        let config = self
            .shard(id)
            .lock()
            .slots
            .get(&id)
            .map(|s| s.config.clone());
        match config {
            Some(config) => self.prewarm(engine, &config, now).map(Some),
            None => Ok(None),
        }
    }

    /// [`Self::prewarm_key_id`] by canonical key (compatibility path).
    pub fn prewarm_key(
        &self,
        engine: &impl EngineRef,
        key: &RuntimeKey,
        now: SimTime,
    ) -> Result<Option<SimDuration>, EngineError> {
        match self.id_of(key) {
            Some(id) => self.prewarm_key_id(engine, id, now),
            None => Ok(None),
        }
    }

    /// Retires one available container of the given type (adaptive
    /// controller's scale-down action). Returns the teardown cost, or `None`
    /// if none was available.
    pub fn retire_one_id(
        &self,
        engine: &impl EngineRef,
        id: KeyId,
        now: SimTime,
    ) -> Result<Option<SimDuration>, EngineError> {
        self.bump_epoch();
        let popped = {
            let mut guard = self.shard(id).lock();
            let popped = guard.slots.get_mut(&id).and_then(|slot| {
                // The avail-bit claim is atomic against racing lock-free
                // acquires: whoever wins the CAS owns the slot.
                if let Some(i) = slot.ks.avail.claim() {
                    let container = entry_container(slot.ks.entries[i].load(Ordering::Relaxed));
                    debug_assert!(container.is_some(), "avail bit over an empty slot");
                    slot.ks.dispose_idle(i);
                    container
                } else {
                    slot.overflow_avail.pop_front().map(|(c, _)| c)
                }
            });
            if let Some(container) = popped {
                self.rindex_clear(container);
                guard.born.remove(&container);
                guard.live -= 1;
                guard.mark_active(id);
            }
            popped
        };
        match popped {
            Some(container) => engine
                .with_engine(|e| e.stop_and_remove(container, now))
                .map(Some),
            None => Ok(None),
        }
    }

    /// [`Self::retire_one_id`] by canonical key (compatibility path).
    pub fn retire_one(
        &self,
        engine: &impl EngineRef,
        key: &RuntimeKey,
        now: SimTime,
    ) -> Result<Option<SimDuration>, EngineError> {
        match self.id_of(key) {
            Some(id) => self.retire_one_id(engine, id, now),
            None => Ok(None),
        }
    }

    /// Forcibly terminates the *oldest* available live container across all
    /// types (§IV-B's response to too many containers / memory pressure).
    ///
    /// Two-phase: (1) shard by shard (one lock at a time), take the dirty
    /// marks and re-derive those keys' heads, then validate the front of
    /// the shard's eviction index; keep the oldest front across shards.
    /// (2) Re-lock the owning shard, re-verify the slot entry still names
    /// the candidate, and claim its `avail` bit — if a racing acquire took
    /// it in between, retry. Returns the teardown cost, or `None` if the
    /// pool holds no available container. Cost: O(shards + keys released
    /// since the last eviction + stale index entries), not O(tracked keys).
    pub fn evict_oldest(
        &self,
        engine: &impl EngineRef,
        now: SimTime,
    ) -> Result<Option<SimDuration>, EngineError> {
        self.bump_epoch();
        // Bounded retries: each retry means a racing acquire claimed our
        // candidate, which is progress for the system as a whole.
        for _ in 0..8 {
            let oldest = self
                .shards
                .iter()
                .enumerate()
                .filter_map(|(shard, lock)| self.shard_oldest(shard, &mut lock.lock()))
                .min();
            let Some((head, key)) = oldest else {
                return Ok(None);
            };
            let container = head.container;
            #[cfg(debug_assertions)]
            if engine.is_exclusive() {
                assert_eq!(
                    self.oldest_available_scan(engine),
                    Some(container),
                    "eviction index diverged from the reference scan"
                );
            }
            let claimed = {
                let mut guard = self.shard(key).lock();
                let claimed = guard.slots.get_mut(&key).is_some_and(|s| match head.slot {
                    Some(i) => {
                        // Entries are frozen while occupied, so candidate
                        // still present ⇔ entry still names it; the bit
                        // claim then races only lock-free acquirers.
                        let entry = s.ks.entries[i].load(Ordering::Relaxed);
                        if entry_container(entry) == Some(container) && s.ks.avail.claim_at(i) {
                            s.ks.dispose_idle(i);
                            self.rindex_clear(container);
                            true
                        } else {
                            false
                        }
                    }
                    None => {
                        let before = s.overflow_avail.len();
                        s.overflow_avail.retain(|&(c, _)| c != container);
                        s.overflow_avail.len() != before
                    }
                });
                if claimed {
                    // The key's head is now stale; the next eviction
                    // re-derives it when it reaches the front.
                    guard.born.remove(&container);
                    guard.live -= 1;
                    // An eviction is a touch: the controller must re-examine
                    // this key at the next interval.
                    guard.mark_active(key);
                }
                claimed
            };
            if claimed {
                return engine
                    .with_engine(|e| e.stop_and_remove(container, now))
                    .map(Some);
            }
        }
        Ok(None)
    }

    /// One shard's oldest available container (its lock held): takes the
    /// shard's dirty marks and re-derives each marked key's head, then
    /// pops stale index entries until the front is available. A key's marks
    /// are cleared *before* its `avail` bits are read (see
    /// [`KeySlots::take_marks`]), so a hand-back racing this drain is
    /// either seen here or left marked for the next one.
    fn shard_oldest(&self, shard: usize, state: &mut ShardState) -> Option<(Head, KeyId)> {
        let shards = self.shards.len();
        self.marks[shard].drain(|local| {
            let id = KeyId::from_index((local * shards + shard) as u32);
            // A GC'd key keeps its slot array in the key table; its marks
            // must still be cleared, or its next hand-back would not mark.
            match state.slots.get(&id) {
                Some(slot) => slot.ks.take_marks(),
                None => {
                    if let Some(ks) = self.key_slots.get(id.index()) {
                        ks.take_marks();
                    }
                }
            }
            state.refresh_head(id);
        });
        loop {
            let &(at, container, id) = state.heads.first()?;
            #[cfg(test)]
            {
                state.head_visits += 1;
            }
            let head = state
                .slots
                .get(&id)
                .and_then(|s| Some((s.head?, s)))
                .filter(|(h, _)| h.entry(id) == (at, container, id));
            match head {
                Some((head, slot)) if slot.holds_available(head) => return Some((head, id)),
                // Stale: the container was acquired or disposed since.
                Some(_) => state.refresh_head(id),
                // Not its key's current head. Every path that replaces or
                // drops a head also removes its entry, so this only keeps
                // the loop finite should that ever break.
                None => {
                    state.heads.pop_first();
                }
            }
        }
    }

    /// The reference the eviction index is held to (debug builds and the
    /// lockstep tests): the oldest available container by `(created_at,
    /// id)`, found by scanning every key's bitmap and overflow list and
    /// asking the engine for each creation time. O(tracked keys +
    /// available containers).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn oldest_available_scan(&self, engine: &impl EngineRef) -> Option<ContainerId> {
        let mut candidates = Vec::new();
        for shard in self.shards.iter() {
            let state = shard.lock();
            for slot in state.slots.values() {
                slot.ks.for_each_avail(|_, c| candidates.push(c));
                candidates.extend(slot.overflow_avail.iter().map(|&(c, _)| c));
            }
        }
        engine.with_engine(|e| {
            candidates
                .into_iter()
                .filter_map(|c| Some((e.created_at(c)?, c)))
                .min()
                .map(|(_, c)| c)
        })
    }

    /// `num_avail[key]`: available containers of the given type.
    pub fn num_avail_id(&self, id: KeyId) -> usize {
        self.shard(id)
            .lock()
            .slots
            .get(&id)
            .map_or(0, Slot::avail_now)
    }

    /// In-use containers of the given type (including releases in transit
    /// through their engine critical section).
    pub fn num_in_use_id(&self, id: KeyId) -> usize {
        self.shard(id)
            .lock()
            .slots
            .get(&id)
            .map_or(0, |s| s.ks.in_use())
    }

    /// `(available, in_use)` for a key id in one lock acquisition — the
    /// controller's per-key sizing read.
    pub fn live_of_id(&self, id: KeyId) -> (usize, usize) {
        self.shard(id)
            .lock()
            .slots
            .get(&id)
            .map_or((0, 0), |s| (s.avail_now(), s.ks.in_use()))
    }

    /// [`Self::num_avail_id`] by canonical key (compatibility path).
    pub fn num_avail(&self, key: &RuntimeKey) -> usize {
        self.id_of(key).map_or(0, |id| self.num_avail_id(id))
    }

    /// [`Self::num_in_use_id`] by canonical key (compatibility path).
    pub fn num_in_use(&self, key: &RuntimeKey) -> usize {
        self.id_of(key).map_or(0, |id| self.num_in_use_id(id))
    }

    /// Total live containers tracked by the pool (available + in use).
    /// Reads the per-shard counters — O(shards), not O(tracked keys), so
    /// the limit check the controller runs every tick stays independent of
    /// fleet size.
    pub fn total_live(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().live).sum()
    }

    /// Per-shard `(available, in_use)` container counts, indexed by shard —
    /// the telemetry layer exports these as per-shard pool-size gauges.
    pub fn shard_sizes(&self) -> Vec<(usize, usize)> {
        self.shards
            .iter()
            .map(|shard| {
                let state = shard.lock();
                state
                    .slots
                    .values()
                    .fold((0, 0), |(a, u), s| (a + s.avail_now(), u + s.ks.in_use()))
            })
            .collect()
    }

    /// Total available containers across all types.
    pub fn total_available(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let state = shard.lock();
                state.slots.values().map(Slot::avail_now).sum::<usize>()
            })
            .sum()
    }

    /// The Fig. 7 pool-view code for a container: 1 Existing-Available, 0
    /// Existing-Not-Available, -1 Not-Existing.
    pub fn pool_code(&self, engine: &ContainerEngine, container: ContainerId) -> i8 {
        // Reverse-index hit: the avail bit answers directly.
        let pooled = match self.rindex_lookup(container) {
            Some(claim) => claim.ks.avail.is_set(claim.slot),
            // Otherwise: overflow containers and beyond-table keys, scanned
            // under the shard locks (diagnostic path only).
            None => self.shards.iter().any(|shard| {
                shard.lock().slots.values().any(|s| {
                    s.overflow_avail.iter().any(|&(c, _)| c == container)
                        || s.ks.avail_contains(container)
                })
            }),
        };
        if pooled {
            1
        } else if engine.config(container).is_some() {
            0
        } else {
            -1
        }
    }

    /// Takes one shard's **full-sweep** demand snapshot (`history[k][t]`):
    /// visits every slot, resets watermarks for the next control interval,
    /// and garbage-collects slots that have been empty for
    /// [`Self::gc_intervals`] consecutive zero-demand snapshots. Keys with
    /// live containers are always reported, including zero-demand intervals.
    ///
    /// GC fires only when the key's live population — bitmap occupancy plus
    /// overflow lists plus releases in transit, all exact under the shard
    /// lock — is zero, so a warm operation caught between its CAS and its
    /// bookkeeping can never have its container stranded by a GC.
    ///
    /// This is the O(tracked keys) reference path; the controller's default
    /// is [`Self::take_shard_snapshot_dirty`], which visits only the active
    /// list and produces the same GC timing (asserted by a property test in
    /// `controller.rs`). The sweep un-parks every parked key.
    pub fn take_shard_snapshot(&self, shard: usize) -> ShardSnapshot {
        let mut demands = Vec::new();
        let mut retired = Vec::new();
        let gc_after = u64::from(self.gc_intervals);
        let seq;
        {
            let mut guard = self.shards[shard].lock();
            guard.seq += 1;
            seq = guard.seq;
            self.wakes[shard].drain(|_| {});
            let ShardState {
                slots,
                active,
                cold,
                parked,
                live,
                heads,
                ..
            } = &mut *guard;
            parked.clear();
            slots.retain(|&id, slot| {
                if slot.parked_until.take().is_some() {
                    slot.ks.unpark();
                }
                let in_use = slot.ks.in_use();
                let avail = slot.avail_now();
                let demand = slot
                    .ks
                    .watermark
                    // lint:allow(atomic-ordering, watermark is an advisory peak counter reset under the shard lock)
                    .swap(in_use, Ordering::Relaxed)
                    .max(in_use);
                if demand == 0 && slot.live_now() == 0 {
                    let since = match slot.cold_since {
                        Some(since) => since,
                        None => {
                            // First zero-demand interval: leave the active
                            // list and start the GC countdown.
                            slot.cold_since = Some(seq);
                            slot.active = false;
                            queue_cold(cold, id, seq, gc_after);
                            seq
                        }
                    };
                    if seq - since + 1 >= gc_after {
                        unindex(heads, id, slot);
                        retired.push(id);
                        return false;
                    }
                } else {
                    slot.cold_since = None;
                    if !slot.active {
                        slot.active = true;
                        active.push(id);
                    }
                }
                demands.push(KeyDemand {
                    id,
                    demand,
                    avail,
                    in_use,
                });
                true
            });
            // The full sweep visits every slot anyway: cross-check the
            // shard's live counter against the ground truth it summarises.
            debug_assert_eq!(
                *live,
                slots.values().map(Slot::live_now).sum::<usize>(),
                "shard live counter diverged from slot contents"
            );
            // Heal the active list: GC'd and newly-cold keys drop out.
            active.retain(|id| slots.get(id).is_some_and(|s| s.active));
            // The retain above already GC'd everything due, so this only
            // discards stale queue entries; it keeps the queue bounded when
            // full sweeps and dirty snapshots interleave.
            drain_due_cold(slots, heads, cold, &mut retired, seq, gc_after);
        }
        demands.sort_unstable_by_key(|d| d.id);
        retired.sort_unstable();
        ShardSnapshot {
            demands,
            retired,
            seq,
        }
    }

    /// Takes one shard's **dirty-set** demand snapshot: visits only the keys
    /// touched since the last snapshot or still holding containers, plus the
    /// cold queue's due GC deadlines (the "idle sweep" that guarantees
    /// zero-demand GC fires within [`Self::gc_intervals`] snapshots of a key
    /// going cold — identical timing to the full sweep).
    ///
    /// Work is O(active keys + due GCs), independent of how many keys the
    /// shard tracks. Cold keys are reported once (their final zero-demand
    /// interval) and then skipped until GC'd or re-touched; the controller
    /// backfills the skipped zero observations from the snapshot sequence
    /// gap, so predictor state matches the full sweep exactly. Lock-free
    /// warm hits keep the dirty set honest for free: a key serving warm
    /// traffic holds containers, and any key holding containers is on the
    /// active list unless parked ([`Self::park_keys`]). A parked key rejoins
    /// the list when its deadline arrives or when a warm acquire has set
    /// its wake bit; every locked touch un-parks it on the spot.
    pub fn take_shard_snapshot_dirty(&self, shard: usize) -> ShardSnapshot {
        let mut demands = Vec::new();
        let mut retired = Vec::new();
        let gc_after = u64::from(self.gc_intervals);
        let seq;
        {
            let mut guard = self.shards[shard].lock();
            guard.seq += 1;
            seq = guard.seq;
            let shards = self.shards.len();
            self.wakes[shard].drain(|local| {
                guard.wake(KeyId::from_index((local * shards + shard) as u32));
            });
            while let Some(&Reverse((due, id))) = guard.parked.peek() {
                if due > seq {
                    break;
                }
                guard.parked.pop();
                if guard
                    .slots
                    .get(&id)
                    .is_some_and(|s| s.parked_until == Some(due))
                {
                    guard.mark_active(id);
                }
            }
            let ShardState {
                slots,
                active,
                cold,
                heads,
                ..
            } = &mut *guard;
            for id in std::mem::take(active) {
                let Some(slot) = slots.get_mut(&id) else {
                    continue;
                };
                let in_use = slot.ks.in_use();
                let avail = slot.avail_now();
                let demand = slot
                    .ks
                    .watermark
                    // lint:allow(atomic-ordering, watermark is an advisory peak counter reset under the shard lock)
                    .swap(in_use, Ordering::Relaxed)
                    .max(in_use);
                if demand == 0 && slot.live_now() == 0 {
                    // Final zero-demand report; the slot then waits on the
                    // cold queue for GC (or a re-touch).
                    slot.active = false;
                    slot.cold_since = Some(seq);
                    if gc_after <= 1 {
                        // The full sweep GCs a just-cold slot in this same
                        // snapshot without reporting it; match that.
                        if let Some(slot) = slots.remove(&id) {
                            unindex(heads, id, &slot);
                        }
                        retired.push(id);
                        continue;
                    }
                    cold.push_back((id, seq));
                } else {
                    // Keys holding containers stay on the active list: the
                    // controller sizes them every interval, exactly like
                    // the full sweep.
                    slot.active = true;
                    active.push(id);
                }
                demands.push(KeyDemand {
                    id,
                    demand,
                    avail,
                    in_use,
                });
            }
            drain_due_cold(slots, heads, cold, &mut retired, seq, gc_after);
        }
        demands.sort_unstable_by_key(|d| d.id);
        retired.sort_unstable();
        ShardSnapshot {
            demands,
            retired,
            seq,
        }
    }

    /// Parks quiet keys of `shard` after its dirty snapshot `seq`: each
    /// `(key, runs)` leaves the active list, skips the next `runs`
    /// snapshots, and rejoins at snapshot `seq + runs + 1`. The caller
    /// vouches that those snapshots would find the key's decision a no-op
    /// as long as nothing touches it; the pool makes sure that anything
    /// that does touch it wakes it first.
    ///
    /// A key parks only if it still holds exactly one container, none in
    /// use (CAS on the in-use word, then a watermark re-check — see
    /// [`KeySlots::try_park`]), it sits in the lock-free key table (so a
    /// warm acquire can reach its wake bit), and `seq` is still the shard's
    /// latest snapshot. Returns how many keys parked.
    pub fn park_keys(&self, shard: usize, seq: u64, keys: &[(KeyId, u64)]) -> usize {
        if keys.is_empty() {
            return 0;
        }
        let mut guard = self.shards[shard].lock();
        if guard.seq != seq {
            return 0;
        }
        let ShardState {
            slots,
            active,
            parked,
            ..
        } = &mut *guard;
        let mut count = 0;
        for &(id, runs) in keys {
            debug_assert_eq!(self.shard_of(id), shard, "key parked on a foreign shard");
            let Some(slot) = slots.get_mut(&id) else {
                continue;
            };
            if !slot.active
                || slot.live_now() != 1
                || id.index() >= self.key_slots.capacity()
                || !slot.ks.try_park()
            {
                continue;
            }
            let due = seq + runs + 1;
            slot.parked_until = Some(due);
            slot.active = false;
            parked.push(Reverse((due, id)));
            count += 1;
        }
        if count > 0 {
            active.retain(|id| slots.get(id).is_none_or(|s| s.parked_until.is_none()));
        }
        count
    }

    /// Keys currently parked, sorted (test probe).
    #[cfg(test)]
    pub(crate) fn parked_keys(&self) -> Vec<KeyId> {
        let mut ids: Vec<KeyId> = self
            .shards
            .iter()
            .flat_map(|shard| {
                let state = shard.lock();
                state
                    .slots
                    .iter()
                    .filter(|(_, s)| s.parked_until.is_some())
                    .map(|(&id, _)| id)
                    .collect::<Vec<_>>()
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Takes the demand snapshot across every shard (full sweep, GC
    /// included), merged and sorted — the single-threaded controller path.
    pub fn take_demand_snapshot(&self) -> Vec<(RuntimeKey, usize)> {
        let mut ids = Vec::new();
        for shard in 0..self.num_shards() {
            ids.extend(self.take_shard_snapshot(shard).demands);
        }
        let mut out: Vec<(RuntimeKey, usize)> = ids
            .into_iter()
            .filter_map(|d| Some((self.resolve_key(d.id)?, d.demand)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The keys the pool currently tracks, sorted.
    pub fn keys(&self) -> Vec<RuntimeKey> {
        let ids: Vec<KeyId> = self
            .shards
            .iter()
            .flat_map(|shard| shard.lock().slots.keys().copied().collect::<Vec<_>>())
            .collect();
        let mut keys: Vec<RuntimeKey> = ids
            .into_iter()
            .filter_map(|id| self.resolve_key(id))
            .collect();
        keys.sort();
        keys
    }
}

/// Drops a GC'd slot's (necessarily stale) entry from the eviction index.
fn unindex(heads: &mut BTreeSet<(SimTime, ContainerId, KeyId)>, id: KeyId, slot: &Slot) {
    if let Some(head) = slot.head {
        heads.remove(&head.entry(id));
    }
}

/// Queues a newly-cold key for the idle sweep, unless it is due immediately
/// (the caller GCs it in the same snapshot).
fn queue_cold(cold: &mut VecDeque<(KeyId, u64)>, id: KeyId, seq: u64, gc_after: u64) {
    if gc_after > 1 {
        cold.push_back((id, seq));
    }
}

/// Pops every cold-queue entry whose GC deadline arrived at `seq` and
/// retires the slots that are still cold since then. Entries invalidated by
/// a re-touch (the slot's `cold_since` moved or cleared) or by an earlier GC
/// are discarded. The queue is in nondecreasing `since` order, so this stops
/// at the first not-yet-due entry.
fn drain_due_cold(
    slots: &mut FastMap<KeyId, Slot>,
    heads: &mut BTreeSet<(SimTime, ContainerId, KeyId)>,
    cold: &mut VecDeque<(KeyId, u64)>,
    retired: &mut Vec<KeyId>,
    seq: u64,
    gc_after: u64,
) {
    while let Some(&(id, since)) = cold.front() {
        if seq.saturating_sub(since) + 1 < gc_after {
            break;
        }
        cold.pop_front();
        if slots.get(&id).is_some_and(|s| s.cold_since == Some(since)) {
            if let Some(slot) = slots.remove(&id) {
                unindex(heads, id, &slot);
            }
            retired.push(id);
        }
    }
}

/// Model-checker surface over the private [`KeySlots`] protocol, compiled
/// only under `--cfg hotc_model` (the instrumented build `hotc-model`'s
/// protocol suite runs against; see DESIGN.md §7.3).
///
/// The lock-free operations (`claim_warm`, `hand_back`,
/// `try_claim_release`) and the park CAS (`park`) call the real `KeySlots`
/// methods unmodified; the key is index 0 of one-key [`MarkSet`]s standing
/// in for its shard's mark and wake sets. The lock-holding operations
/// (`publish_avail`, `retire_avail`, `evict_at`, `drain_marks`) replay the
/// exact store sequences of [`ShardedPool::publish_avail`],
/// [`ShardedPool::retire_one_id`], and [`ShardedPool::evict_oldest`]'s
/// claim and mark-drain phases, minus the shard lock and reverse index — in
/// the model the
/// lock's happens-before hand-off is reproduced by running every
/// lock-holding op either before spawning the racers (spawn copies the
/// parent's vector clock) or as the only lock-holder in the schedule, which
/// is precisely the mutual exclusion the real lock provides.
#[cfg(hotc_model)]
pub mod model_api {
    use super::{
        entry_container, pack_entry, KeySlots, MarkSet, Ordering, LOW_HALF, MARK_ONE, PARKED,
        SLOTS_PER_KEY,
    };
    use containersim::ContainerId;

    /// One key's slot-array protocol surface for model tests.
    #[derive(Debug)]
    pub struct ModelSlots {
        ks: KeySlots,
        marks: MarkSet,
        wakes: MarkSet,
    }

    impl ModelSlots {
        /// A fresh slot group with only the first `prefree` free-bitmap
        /// slots released. The real constructor frees all
        /// [`SLOTS_PER_KEY`]; model tests keep `prefree` small so each
        /// re-executed schedule pays a handful of setup ops instead of 128.
        pub fn new(prefree: usize) -> ModelSlots {
            assert!(prefree <= SLOTS_PER_KEY);
            let ks = KeySlots::new_unfreed();
            for i in 0..prefree {
                ks.free.release(i);
            }
            ModelSlots {
                ks,
                marks: MarkSet::new(1),
                wakes: MarkSet::new(1),
            }
        }

        /// Real lock-free warm claim ([`KeySlots::claim_warm`]), wake mark
        /// included.
        pub fn claim_warm(&self) -> Option<(usize, ContainerId, bool)> {
            self.ks.claim_warm(&self.wakes, 0)
        }

        /// Real park of an idle key ([`KeySlots::try_park`]): the CAS that
        /// sets the flag, then the watermark re-check.
        pub fn park(&self) -> bool {
            self.ks.try_park()
        }

        /// [`Self::park`] with the CAS split into a load and a store — the
        /// mutation the harness must catch (`hotc-model/tests/mutation.rs`):
        /// an acquire whose increment lands between the two is overwritten
        /// and never reads the flag, so nothing wakes the key. Never a
        /// production sequence.
        pub fn park_split(&self) -> bool {
            let word = self.ks.in_use_word.load(Ordering::Relaxed);
            if word & LOW_HALF != 0 {
                return false;
            }
            self.ks.in_use_word.store(word | PARKED, Ordering::Release);
            if self.ks.watermark.load(Ordering::Relaxed) != 0 {
                self.ks.unpark();
                return false;
            }
            true
        }

        /// Whether a warm claim has set the key's wake bit.
        pub fn is_woken(&self) -> bool {
            self.wakes.is_marked(0)
        }

        /// Real lock-free hand-back ([`KeySlots::hand_back`]), dirty mark
        /// included.
        pub fn hand_back(&self, i: usize, container: ContainerId) {
            let marked = self.ks.hand_back(i, container, &self.marks, 0);
            assert!(marked, "key 0 lies inside the one-key mark set");
        }

        /// [`Self::hand_back`] with the mark RMW split into a load and a
        /// store — the mutation the harness must catch
        /// (`hotc-model/tests/mutation.rs`): a drain that clears the marks
        /// between the two is overwritten, and the hand-back, having loaded
        /// a nonzero mark, never re-marks. Never a production sequence.
        pub fn hand_back_split_mark(&self, i: usize, container: ContainerId) {
            // lint:allow(atomic-ordering, entry store is ordered by the avail.release bit-set below)
            self.ks.entries[i].store(pack_entry(container, true), Ordering::Relaxed);
            let fresh = self.ks.avail.release(i);
            debug_assert!(fresh, "hand-back found the avail bit already set");
            let before = self.ks.in_use_word.load(Ordering::Relaxed);
            self.ks
                .in_use_word
                .store(before + MARK_ONE - 1, Ordering::Release);
            if before & !LOW_HALF == 0 {
                self.marks.mark(0);
            }
        }

        /// The mark-drain of [`super::ShardedPool::evict_oldest`]: take the
        /// shard's marks and, for the marked key, clear its mark count
        /// before reading its available containers. Returns the containers
        /// the drain saw available (empty if the key was not marked).
        pub fn drain_marks(&self) -> Vec<ContainerId> {
            let mut seen = Vec::new();
            self.marks.drain(|_| {
                self.ks.take_marks();
                self.ks.for_each_avail(|_, c| seen.push(c));
            });
            seen
        }

        /// Whether the key is still marked for the next drain.
        pub fn is_marked(&self) -> bool {
            self.marks.is_marked(0)
        }

        /// Real lock-free release claim ([`KeySlots::try_claim_release`]).
        pub fn try_claim_release(&self, i: usize, container: ContainerId) -> bool {
            self.ks.try_claim_release(i, container)
        }

        /// The store sequence of [`super::ShardedPool::publish_avail`]'s
        /// bitmap arm: free-claim, entry store, last-app store, then the
        /// `avail` release bit-set (publish-before-bit-set).
        pub fn publish_avail(&self, container: ContainerId, execed: bool) -> Option<usize> {
            let i = self.ks.free.claim()?;
            // lint:allow(atomic-ordering, entry store is ordered by the avail.release bit-set below)
            self.ks.entries[i].store(pack_entry(container, execed), Ordering::Relaxed);
            // lint:allow(atomic-ordering, advisory recency token; ordered by the bit-set below)
            self.ks.last_app[i].store(0, Ordering::Relaxed);
            let fresh = self.ks.avail.release(i);
            debug_assert!(fresh, "published slot's avail bit was already set");
            Some(i)
        }

        /// [`Self::publish_avail`] with the final bit-set deliberately
        /// weakened to `Relaxed` — the mutation the harness must catch
        /// (`hotc-model/tests/mutation.rs`). Never a production sequence.
        pub fn publish_avail_weak(&self, container: ContainerId, execed: bool) -> Option<usize> {
            let i = self.ks.free.claim()?;
            // lint:allow(atomic-ordering, deliberately weak publish; the mutation harness must catch it)
            self.ks.entries[i].store(pack_entry(container, execed), Ordering::Relaxed);
            // lint:allow(atomic-ordering, advisory recency token only)
            self.ks.last_app[i].store(0, Ordering::Relaxed);
            let fresh = self.ks.avail.release_relaxed(i);
            debug_assert!(fresh, "published slot's avail bit was already set");
            Some(i)
        }

        /// The slot-array arm of [`super::ShardedPool::retire_one_id`]:
        /// claim any `avail` bit (atomic against racing lock-free
        /// acquires), read the entry, dispose the slot.
        pub fn retire_avail(&self) -> Option<ContainerId> {
            let i = self.ks.avail.claim()?;
            let container = entry_container(self.ks.entries[i].load(Ordering::Relaxed));
            debug_assert!(container.is_some(), "avail bit over an empty slot");
            self.ks.dispose_idle(i);
            container
        }

        /// The claim phase of [`super::ShardedPool::evict_oldest`]: re-verify
        /// the entry still names `container`, then take its `avail` bit;
        /// a racing acquire winning the bit fails the eviction.
        pub fn evict_at(&self, i: usize, container: ContainerId) -> bool {
            let entry = self.ks.entries[i].load(Ordering::Relaxed);
            if entry_container(entry) == Some(container) && self.ks.avail.claim_at(i) {
                self.ks.dispose_idle(i);
                true
            } else {
                false
            }
        }

        /// Advisory `avail` population ([`super::SlotBitmap::count`]).
        pub fn avail_count(&self) -> usize {
            self.ks.avail.count()
        }

        /// Advisory `in_use` population.
        pub fn in_use_count(&self) -> usize {
            self.ks.in_use.count()
        }

        /// Advisory free population.
        pub fn free_count(&self) -> usize {
            self.ks.free.count()
        }

        /// Whether `container` sits available ([`KeySlots::avail_contains`]).
        pub fn avail_contains(&self, container: ContainerId) -> bool {
            self.ks.avail_contains(container)
        }

        /// The key's in-use demand counter.
        pub fn in_use_total(&self) -> usize {
            self.ks.in_use()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use containersim::engine::ExecWork;
    use containersim::{HardwareProfile, ImageId};

    fn engine() -> Mutex<ContainerEngine> {
        Mutex::labeled(
            ContainerEngine::with_local_images(HardwareProfile::server()),
            "core/engine",
        )
    }

    fn cfg(image: &str) -> ContainerConfig {
        ContainerConfig::bridge(ImageId::parse(image))
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let pool = ShardedPool::with_shards(KeyPolicy::Exact, 4);
        for image in ["alpine:3.12", "python:3.8-alpine", "golang:1.13"] {
            let id = pool.intern_config(&cfg(image));
            let s = pool.shard_of(id);
            assert!(s < 4);
            assert_eq!(s, pool.shard_of(id), "placement must be stable");
            assert_eq!(id, pool.intern_config(&cfg(image)), "ids must be stable");
        }
    }

    #[test]
    fn acquire_release_round_trip_through_shards() {
        let e = engine();
        let pool = ShardedPool::with_shards(KeyPolicy::Exact, 4);
        let c = cfg("alpine:3.12");
        let a = pool.acquire(&e, &c, SimTime::ZERO).unwrap();
        assert!(a.cold);
        e.with_engine(|e| {
            let out = e
                .begin_exec(
                    a.container,
                    ExecWork::light(SimDuration::from_millis(1)),
                    SimTime::ZERO,
                )
                .unwrap();
            e.end_exec(a.container, SimTime::ZERO + out.latency)
                .unwrap();
        });
        pool.release(&e, a.container, SimTime::from_secs(1))
            .unwrap();
        let b = pool.acquire(&e, &c, SimTime::from_secs(2)).unwrap();
        assert!(!b.cold);
        assert_eq!(b.container, a.container);
    }

    #[test]
    fn warm_hit_reports_its_bitmap_slot_and_reuses_it() {
        let e = engine();
        let pool = ShardedPool::with_shards(KeyPolicy::Exact, 4);
        let c = cfg("alpine:3.12");
        let id = pool.intern_config(&c);
        let a = pool.acquire_detailed(&e, &c, SimTime::ZERO).unwrap();
        assert!(a.slot.is_some(), "cold start should land in the bitmap");
        e.with_engine(|e| {
            let out = e
                .begin_exec(
                    a.container,
                    ExecWork::light(SimDuration::from_millis(1)),
                    SimTime::ZERO,
                )
                .unwrap();
            e.end_exec(a.container, SimTime::ZERO + out.latency)
                .unwrap();
        });
        pool.release(&e, a.container, SimTime::from_secs(1))
            .unwrap();
        let b = pool
            .acquire_detailed(&e, &c, SimTime::from_secs(2))
            .unwrap();
        assert!(!b.cold);
        assert!(!b.first_exec, "reused container has executed before");
        assert_eq!(b.slot, a.slot, "container keeps its slot across reuse");
        // The app-token slot survives the round trip too.
        assert_eq!(pool.note_app(id, b.slot.unwrap(), 7), Some(0));
        assert_eq!(pool.note_app(id, b.slot.unwrap(), 7), Some(7));
    }

    #[test]
    fn double_release_is_rejected_not_double_pooled() {
        let e = engine();
        let pool = ShardedPool::with_shards(KeyPolicy::Exact, 2);
        let c = cfg("alpine:3.12");
        let a = pool.acquire(&e, &c, SimTime::ZERO).unwrap();
        e.with_engine(|e| {
            let out = e
                .begin_exec(
                    a.container,
                    ExecWork::light(SimDuration::from_millis(1)),
                    SimTime::ZERO,
                )
                .unwrap();
            e.end_exec(a.container, SimTime::ZERO + out.latency)
                .unwrap();
        });
        pool.release(&e, a.container, SimTime::from_secs(1))
            .unwrap();
        assert!(pool
            .release(&e, a.container, SimTime::from_secs(2))
            .is_err());
        assert_eq!(pool.total_available(), 1, "no double-pooling");
        assert_eq!(pool.total_live(), 1);
    }

    #[test]
    fn parallel_warm_acquires_on_distinct_keys_do_not_serialize_on_one_lock() {
        // Smoke-level check that distinct keys land on distinct shards often
        // enough that 8 keys use >1 shard.
        let pool = ShardedPool::with_shards(KeyPolicy::Exact, 8);
        let shards: std::collections::HashSet<usize> = (0..8)
            .map(|i| {
                let mut c = cfg("alpine:3.12");
                c.exec.env.insert("K".into(), i.to_string());
                pool.shard_of(pool.intern_config(&c))
            })
            .collect();
        assert!(shards.len() > 1, "8 keys should spread across shards");
    }

    #[test]
    fn dirty_snapshot_skips_cold_keys_but_gcs_them_on_schedule() {
        let e = engine();
        let mut pool = ShardedPool::with_shards(KeyPolicy::Exact, 1);
        pool.set_gc_intervals(2);
        let a = cfg("alpine:3.12");
        let b = cfg("python:3.8-alpine");
        pool.prewarm(&e, &a, SimTime::ZERO).unwrap();
        pool.prewarm(&e, &b, SimTime::ZERO).unwrap();
        let ida = pool.intern_config(&a);
        let idb = pool.intern_config(&b);
        // Both warm: both visited every interval even without touches.
        let visited = |s: &ShardSnapshot| -> Vec<(KeyId, usize)> {
            s.demands.iter().map(|d| (d.id, d.demand)).collect()
        };
        let s1 = pool.take_shard_snapshot_dirty(0);
        assert_eq!(visited(&s1), vec![(ida, 0), (idb, 0)]);
        // The snapshot carries each slot's live population (one prewarmed
        // container apiece), so the controller needs no second lookup.
        assert!(s1.demands.iter().all(|d| d.avail == 1 && d.in_use == 0));
        // Drain A to empty; the retire is a touch, so the next snapshot
        // reports its final zero-demand interval and starts the countdown.
        pool.retire_one_id(&e, ida, SimTime::from_secs(1)).unwrap();
        let s2 = pool.take_shard_snapshot_dirty(0);
        assert_eq!(visited(&s2), vec![(ida, 0), (idb, 0)]);
        assert!(s2.retired.is_empty());
        // Cold now: skipped from the demand scan, GC'd by the idle sweep
        // exactly gc_intervals snapshots after going cold.
        let s3 = pool.take_shard_snapshot_dirty(0);
        assert_eq!(visited(&s3), vec![(idb, 0)]);
        assert_eq!(s3.retired, vec![ida]);
        assert_eq!(pool.keys(), vec![pool.key_of(&b)]);
        // A re-touch after going cold cancels the countdown.
        pool.prewarm(&e, &a, SimTime::from_secs(2)).unwrap();
        pool.retire_one_id(&e, pool.intern_config(&a), SimTime::from_secs(3))
            .unwrap();
        let _ = pool.take_shard_snapshot_dirty(0); // goes cold again
        pool.prewarm(&e, &a, SimTime::from_secs(4)).unwrap(); // re-touched
        let s5 = pool.take_shard_snapshot_dirty(0);
        assert!(s5.retired.is_empty(), "re-touched key must not be GC'd");
        assert!(s5.demands.iter().any(|d| d.id == pool.intern_config(&a)));
    }

    #[test]
    fn full_and_dirty_snapshots_agree_on_gc_timing() {
        for gc in [1u32, 2, 3] {
            let (ef, ed) = (engine(), engine());
            let mut full = ShardedPool::with_shards(KeyPolicy::Exact, 1);
            let mut dirty = ShardedPool::with_shards(KeyPolicy::Exact, 1);
            full.set_gc_intervals(gc);
            dirty.set_gc_intervals(gc);
            let c = cfg("alpine:3.12");
            full.prewarm(&ef, &c, SimTime::ZERO).unwrap();
            dirty.prewarm(&ed, &c, SimTime::ZERO).unwrap();
            full.retire_one(&ef, &full.key_of(&c), SimTime::ZERO)
                .unwrap();
            dirty
                .retire_one(&ed, &dirty.key_of(&c), SimTime::ZERO)
                .unwrap();
            // The slot is empty; both modes must GC it at the same snapshot.
            for step in 1..=gc + 1 {
                let f = full.take_shard_snapshot(0);
                let d = dirty.take_shard_snapshot_dirty(0);
                assert_eq!(
                    f.retired, d.retired,
                    "gc={gc} step={step}: retire timing diverged"
                );
                assert_eq!(
                    full.keys().is_empty(),
                    dirty.keys().is_empty(),
                    "gc={gc} step={step}"
                );
            }
        }
    }

    #[test]
    fn evict_oldest_scans_across_shards() {
        let e = engine();
        let pool = ShardedPool::with_shards(KeyPolicy::Exact, 4);
        // Three types, staggered creation: the oldest must go first even
        // though the types live on different shards.
        let configs = [
            cfg("alpine:3.12"),
            cfg("python:3.8-alpine"),
            cfg("golang:1.13"),
        ];
        for (i, c) in configs.iter().enumerate() {
            pool.prewarm(&e, c, SimTime::from_secs(i as u64)).unwrap();
        }
        let oldest = pool.oldest_available_scan(&e).unwrap();
        assert_eq!(e.with_engine(|e| e.created_at(oldest)), Some(SimTime::ZERO));
        pool.evict_oldest(&e, SimTime::from_secs(10)).unwrap();
        assert_eq!(
            e.with_engine(|e| e.state(oldest)),
            containersim::ContainerState::Removed
        );
        assert_eq!(pool.total_available(), 2);
    }

    fn keyed(k: usize) -> ContainerConfig {
        let mut c = cfg("alpine:3.12");
        c.exec.env.insert("K".into(), k.to_string());
        c
    }

    #[test]
    fn eviction_index_picks_the_scans_victim_in_lockstep() {
        // One pool, a seeded op mix, and before every eviction the
        // reference scan names the victim the index must pick.
        let work = ExecWork::light(SimDuration::from_millis(1));
        let mut evictions = 0;
        testkit::check(40, |g| {
            let e = engine();
            let shards = g.usize_in(1..4);
            let mut pool = ShardedPool::with_shards(KeyPolicy::Exact, shards);
            pool.set_gc_intervals(g.u32_in(1..3));
            let configs: Vec<ContainerConfig> = (0..6).map(keyed).collect();
            let mut busy: Vec<(KeyId, ContainerId)> = Vec::new();
            for step in 0..g.u64_in(60..240) {
                // Creation times out of order (as concurrent gateway threads
                // publish them) and often tied (ids break the tie).
                let now = SimTime::from_secs(step / 2 + g.u64_in(0..20));
                let config = g.pick(&configs);
                let id = pool.intern_config(config);
                match g.u8_in(0..10) {
                    0 => {
                        pool.prewarm(&e, config, now).unwrap();
                    }
                    1 | 2 => {
                        // Now and then a burst past the 128-slot bitmap, so
                        // the key spills into its overflow lists.
                        let n = if g.u8_in(0..8) == 0 { 140 } else { 1 };
                        for _ in 0..n {
                            let a = pool.acquire_detailed(&e, config, now).unwrap();
                            e.with_engine(|e| e.begin_exec(a.container, work, now))
                                .unwrap();
                            busy.push((id, a.container));
                        }
                    }
                    3 | 4 if !busy.is_empty() => {
                        let (id, c) = busy.swap_remove(g.usize_in(0..busy.len()));
                        let crashed = g.u8_in(0..5) == 0;
                        if !crashed && g.bool() {
                            e.with_engine(|e| e.end_exec(c, now)).unwrap();
                            pool.release(&e, c, now).unwrap();
                        } else {
                            let done = pool.try_finish_release(&e, id, c, now, crashed);
                            assert!(done.unwrap().is_some(), "held container released");
                        }
                    }
                    5 => {
                        pool.retire_one_id(&e, id, now).unwrap();
                    }
                    6 => {
                        // A control tick: cold keys are GC'd here and
                        // revived by later ops on the same key.
                        for shard in 0..shards {
                            if g.bool() {
                                pool.take_shard_snapshot_dirty(shard);
                            } else {
                                pool.take_shard_snapshot(shard);
                            }
                        }
                    }
                    _ => {
                        let expect = pool.oldest_available_scan(&e);
                        let got = pool.evict_oldest(&e, now).unwrap();
                        assert_eq!(got.is_some(), expect.is_some(), "step {step}");
                        if let Some(victim) = expect {
                            assert_eq!(
                                e.with_engine(|e| e.state(victim)),
                                containersim::ContainerState::Removed,
                                "step {step}: the index evicted another container than the scan"
                            );
                            evictions += 1;
                        }
                    }
                }
                assert_eq!(pool.total_live(), e.with_engine(|e| e.live_count()));
            }
        });
        assert!(evictions > 100, "only {evictions} evictions exercised");
    }

    #[test]
    fn eviction_visits_o1_index_entries_while_old_containers_are_held() {
        let e = engine();
        let pool = ShardedPool::with_shards(KeyPolicy::Exact, 4);
        let visits = |p: &ShardedPool| p.shards.iter().map(|s| s.lock().head_visits).sum::<usize>();
        let held = 300;
        // The oldest containers are all held in use: cold-started ones
        // never enter the index ...
        for k in 0..held {
            let a = pool
                .acquire_detailed(&e, &keyed(k), SimTime::from_secs(k as u64))
                .unwrap();
            assert!(a.cold);
        }
        for k in held..held + 8 {
            pool.prewarm(&e, &keyed(k), SimTime::from_secs(k as u64))
                .unwrap();
        }
        let before = visits(&pool);
        assert!(pool
            .evict_oldest(&e, SimTime::from_secs(999))
            .unwrap()
            .is_some());
        assert!(
            visits(&pool) - before <= pool.num_shards(),
            "one eviction visited {} entries past {held} held containers",
            visits(&pool) - before
        );
        // ... and pre-warmed ones taken warm leave stale heads, discarded
        // once by the next eviction and never visited again.
        for k in held + 8..2 * held {
            // Older than every available container, so they reach the front.
            let t = SimTime::from_millis(k as u64);
            pool.prewarm(&e, &keyed(k), t).unwrap();
            assert!(!pool.acquire_detailed(&e, &keyed(k), t).unwrap().cold);
        }
        assert!(pool
            .evict_oldest(&e, SimTime::from_secs(999))
            .unwrap()
            .is_some());
        for _ in 0..4 {
            let before = visits(&pool);
            assert!(pool
                .evict_oldest(&e, SimTime::from_secs(999))
                .unwrap()
                .is_some());
            assert!(
                visits(&pool) - before <= pool.num_shards() + 1,
                "one eviction visited {} entries",
                visits(&pool) - before
            );
        }
    }
}
