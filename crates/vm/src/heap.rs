//! The object heap: a never-collected **closure space** plus a
//! semispace-collected **allocation space**, with a 512-byte card table
//! limiting GC root scans — the memory-management design of §4.4.
//!
//! * Objects arriving in the initial closure (and everything later fetched
//!   from remote endpoints) are copied into the closure space, which is
//!   append-only: the paper treats all closure objects as alive for the
//!   lifetime of the FaaS instance.
//! * Objects allocated during execution go to the allocation space and die
//!   young; when it fills up, a copying collection from the roots (stacks,
//!   statics, dirty closure-space cards) empties it.
//! * A card table over the closure space (512-byte cards) records where
//!   closure-space objects may reference allocation-space objects, so GC
//!   scans only dirty cards instead of the whole space.
//!
//! Addresses are 8-byte-aligned byte addresses in disjoint ranges per space;
//! bit 63 marks remote references (see [`crate::value`]).
//!
//! For failure recovery (§4.5) a heap also keeps a *sync image* — a mirror
//! refreshed at every synchronization point — up to date by difference: each
//! in-place write stamps its 64-word page with the heap's clock, so
//! [`Heap::sync_image`] copies the pages written since the image's last
//! refresh plus whatever each space appended, not the whole heap.

use std::sync::atomic::{AtomicU64, Ordering};

use beehive_sim::{Duration, FastMap};

use crate::ids::ClassId;
use crate::value::{Addr, Value};

/// Which space an address belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Space {
    /// The never-collected closure space.
    Closure,
    /// The semispace-collected allocation space.
    Alloc,
}

/// Base address of the closure space.
pub const CLOSURE_BASE: u64 = 0x1000_0000_0000;
/// Base address of allocation semispace A.
pub const ALLOC_BASE_A: u64 = 0x2000_0000_0000;
/// Base address of allocation semispace B.
pub const ALLOC_BASE_B: u64 = 0x3000_0000_0000;
/// Exclusive upper bound of the address ranges (1 TiB per space is plenty).
const SPACE_SIZE: u64 = 0x1000_0000_0000;

/// Card granularity: 512 bytes = 64 words (paper §4.4).
pub const CARD_BYTES: u64 = 512;
const CARD_WORDS: usize = (CARD_BYTES / 8) as usize;
/// Granularity of the write stamps [`Heap::sync_image`] copies by: one card.
const PAGE_WORDS: usize = CARD_WORDS;

/// Header flag: object is an array (length in the `len` field, elements as
/// slots).
const FLAG_ARRAY: u64 = 1 << 56;
/// Header flag: object is on the endpoint's dirty list (§4.2).
const FLAG_DIRTY: u64 = 1 << 57;

const LEN_SHIFT: u32 = 32;
const LEN_MASK: u64 = 0xFF_FFFF;

/// Fields / elements of the object whose header word is `header`.
fn header_len(header: u64) -> u32 {
    ((header >> LEN_SHIFT) & LEN_MASK) as u32
}

/// The visitor [`Heap::collect`] hands to its root walker; the walker must
/// call it on every root slot so the collector can relocate references.
pub type RootVisitor<'a> = dyn FnMut(&mut Value) + 'a;

/// Statistics from one collection.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GcStats {
    /// Bytes of surviving (copied) objects.
    pub live_bytes: u64,
    /// Bytes reclaimed.
    pub freed_bytes: u64,
    /// Number of objects copied.
    pub copied_objects: u64,
    /// Dirty closure-space cards scanned.
    pub cards_scanned: u64,
    /// Modelled pause duration (charged as virtual time).
    pub pause: Duration,
}

/// Cost model for the modelled GC pause.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GcCosts {
    /// Fixed pause component.
    pub base: Duration,
    /// Per-copied-word cost.
    pub per_word: Duration,
    /// Per-scanned-card cost.
    pub per_card: Duration,
}

impl Default for GcCosts {
    fn default() -> Self {
        // Calibrated so that the per-request footprints of the evaluated
        // applications produce the paper's §5.6 pause medians (0.92/2.64/1.42
        // ms for thumbnail/pybbs/blog at ~3/29/22 MB heaps).
        GcCosts {
            base: Duration::from_micros(150),
            per_word: Duration::from_nanos(6),
            per_card: Duration::from_nanos(120),
        }
    }
}

/// One space's words, plus — per 64-word page — the heap's clock reading
/// at the last in-place write to that page.
#[derive(Clone, Debug, Default, PartialEq)]
struct Region {
    words: Vec<u64>,
    /// Covers every page of `words` (it may run longer after a collection).
    stamps: Vec<u64>,
}

impl Region {
    /// Store `word` at `idx` in place, stamping its page with `clock`.
    fn write(&mut self, idx: usize, word: u64, clock: u64) {
        self.words[idx] = word;
        self.stamps[idx / PAGE_WORDS] = clock;
    }

    /// Append an object (`header` then `slots` zero words), returning the
    /// header's index.
    fn push(&mut self, header: u64, slots: usize) -> usize {
        let idx = self.words.len();
        self.words.push(header);
        self.words.extend(std::iter::repeat_n(0, slots));
        let pages = self.words.len().div_ceil(PAGE_WORDS);
        if self.stamps.len() < pages {
            self.stamps.resize(pages, 0);
        }
        idx
    }

    /// Make `image` equal to this region. `since` is the clock reading
    /// `image` last mirrored it at, when it did: then only the pages
    /// stamped at or after that reading and the words appended since are
    /// copied.
    fn sync_into(&self, image: &mut Region, since: Option<u64>) {
        match since {
            Some(since) => {
                let synced = image.words.len();
                let pages = self.stamps[..synced.div_ceil(PAGE_WORDS)].iter();
                for (page, _) in pages.enumerate().filter(|&(_, &at)| at >= since) {
                    let range = page * PAGE_WORDS..synced.min((page + 1) * PAGE_WORDS);
                    image.words[range.clone()].copy_from_slice(&self.words[range]);
                }
                image.words.extend_from_slice(&self.words[synced..]);
            }
            None => image.words.clone_from(&self.words),
        }
        image.stamps.clone_from(&self.stamps);
    }
}

/// Which heap this is and — on a sync image — which heap it last mirrored,
/// at which clock reading. Not part of a heap's value: every heap, a clone
/// included, gets a new id, and identities always compare equal.
#[derive(Debug)]
struct Identity {
    id: u64,
    mirrors: Option<(u64, u64)>,
}

impl Identity {
    fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Identity {
            id: NEXT.fetch_add(1, Ordering::Relaxed),
            mirrors: None,
        }
    }
}

impl Clone for Identity {
    /// A clone is a new heap that starts out equal, not a mirror.
    fn clone(&self) -> Self {
        Identity::fresh()
    }
}

impl PartialEq for Identity {
    fn eq(&self, _: &Identity) -> bool {
        true
    }
}

/// The two-space heap of one VM instance. Heaps compare by content.
#[derive(Debug, Clone, PartialEq)]
pub struct Heap {
    closure: Region,
    alloc: Region,
    alloc_base: u64,
    alloc_capacity_words: usize,
    cards: Vec<bool>,
    gc_costs: GcCosts,
    /// Running count of allocated bytes (both spaces, monotonic).
    allocated_bytes: u64,
    /// High-water mark of live alloc-space bytes observed at GC.
    peak_used_bytes: u64,
    /// Advances on every allocation and collection; in-place writes stamp
    /// their page with its current reading. Writes are not counted — they
    /// are the mutator's hottest path — so a page stamped at the very
    /// reading an image last mirrored may or may not be newer than it, and
    /// is copied again.
    clock: u64,
    /// Collections so far (each one rebuilds the allocation space).
    collections: u64,
    identity: Identity,
}

impl Heap {
    /// A heap whose allocation space holds `alloc_capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is smaller than one object.
    pub fn new(alloc_capacity_bytes: u64, gc_costs: GcCosts) -> Self {
        assert!(alloc_capacity_bytes >= 64, "allocation space too small");
        assert!(
            alloc_capacity_bytes < SPACE_SIZE,
            "allocation space too big"
        );
        Heap {
            closure: Region::default(),
            alloc: Region::default(),
            alloc_base: ALLOC_BASE_A,
            alloc_capacity_words: (alloc_capacity_bytes / 8) as usize,
            cards: Vec::new(),
            gc_costs,
            allocated_bytes: 0,
            peak_used_bytes: 0,
            clock: 0,
            collections: 0,
            identity: Identity::fresh(),
        }
    }

    /// Bring `image` up to date with this heap, in place; returns `true`
    /// when that went by difference. If `image` last mirrored this very heap,
    /// only the pages written in place since that refresh and each space's
    /// appended words are copied — the allocation space whole instead if a
    /// collection rebuilt it in between. Otherwise everything is copied.
    /// Either way `image` ends equal to `self.clone()`, provided nothing but
    /// this method writes to `image` (a clone of it is a new heap, and free
    /// to be written).
    pub fn sync_image(&self, image: &mut Heap) -> bool {
        let Heap {
            closure,
            alloc,
            alloc_base,
            alloc_capacity_words,
            cards,
            gc_costs,
            allocated_bytes,
            peak_used_bytes,
            clock,
            collections,
            identity,
        } = self;
        let since = match image.identity.mirrors {
            Some((heap, at)) if heap == identity.id => Some(at),
            _ => None,
        };
        closure.sync_into(&mut image.closure, since);
        let rebuilt = image.collections != *collections;
        alloc.sync_into(&mut image.alloc, since.filter(|_| !rebuilt));
        image.cards.clone_from(cards);
        image.alloc_base = *alloc_base;
        image.alloc_capacity_words = *alloc_capacity_words;
        image.gc_costs = *gc_costs;
        image.allocated_bytes = *allocated_bytes;
        image.peak_used_bytes = *peak_used_bytes;
        image.clock = *clock;
        image.collections = *collections;
        image.identity.mirrors = Some((identity.id, *clock));
        since.is_some()
    }

    /// Which space `addr` points into.
    ///
    /// # Panics
    ///
    /// Panics on remote or out-of-range addresses.
    pub fn space_of(&self, addr: Addr) -> Space {
        assert!(!addr.is_remote(), "space_of on remote address {addr:?}");
        let a = addr.raw();
        if (CLOSURE_BASE..CLOSURE_BASE + SPACE_SIZE).contains(&a) {
            Space::Closure
        } else if (self.alloc_base..self.alloc_base + SPACE_SIZE).contains(&a) {
            Space::Alloc
        } else {
            panic!(
                "address {addr:?} outside this heap (alloc base {:#x})",
                self.alloc_base
            )
        }
    }

    fn words(&self, space: Space) -> &[u64] {
        match space {
            Space::Closure => &self.closure.words,
            Space::Alloc => &self.alloc.words,
        }
    }

    fn region_mut(&mut self, space: Space) -> &mut Region {
        match space {
            Space::Closure => &mut self.closure,
            Space::Alloc => &mut self.alloc,
        }
    }

    /// Store `word` at index `idx` of `space` in place: the one write path
    /// of the mutator, so every write stamps its page.
    fn write(&mut self, space: Space, idx: usize, word: u64) {
        let clock = self.clock;
        self.region_mut(space).write(idx, word, clock);
    }

    fn base(&self, space: Space) -> u64 {
        match space {
            Space::Closure => CLOSURE_BASE,
            Space::Alloc => self.alloc_base,
        }
    }

    /// Resolve `addr` to its space and the word index of its header. Every
    /// accessor resolves once and works on the words from there.
    fn index(&self, addr: Addr) -> (Space, usize) {
        let space = self.space_of(addr);
        (space, ((addr.raw() - self.base(space)) / 8) as usize)
    }

    fn header(&self, addr: Addr) -> u64 {
        let (space, idx) = self.index(addr);
        self.words(space)[idx]
    }

    /// Rewrite the header of the object at `addr` with `f`, returning the
    /// old header.
    fn update_header(&mut self, addr: Addr, f: impl FnOnce(u64) -> u64) -> u64 {
        let (space, idx) = self.index(addr);
        let old = self.words(space)[idx];
        self.write(space, idx, f(old));
        old
    }

    /// Allocate an object with `slots` fields in `space`.
    ///
    /// Returns `None` when the allocation space is full (the caller must
    /// trigger a collection); closure-space allocation always succeeds.
    pub fn alloc_object(&mut self, class: ClassId, slots: u32, space: Space) -> Option<Addr> {
        self.alloc_raw(class.0, slots, space, false)
    }

    /// Allocate an array of `len` elements in `space`.
    ///
    /// Returns `None` when the allocation space is full.
    pub fn alloc_array(&mut self, len: u32, space: Space) -> Option<Addr> {
        self.alloc_raw(0, len, space, true)
    }

    fn alloc_raw(
        &mut self,
        class_bits: u32,
        slots: u32,
        space: Space,
        array: bool,
    ) -> Option<Addr> {
        assert!(slots as u64 <= LEN_MASK, "object too large: {slots} slots");
        let need = 1 + slots as usize;
        if space == Space::Alloc && self.alloc.words.len() + need > self.alloc_capacity_words {
            return None;
        }
        let base = self.base(space);
        let mut header = class_bits as u64 | ((slots as u64) << LEN_SHIFT);
        if array {
            header |= FLAG_ARRAY;
        }
        self.clock += 1;
        let idx = self.region_mut(space).push(header, slots as usize);
        if space == Space::Closure {
            let cards_needed = (idx + need).div_ceil(CARD_WORDS);
            if self.cards.len() < cards_needed {
                self.cards.resize(cards_needed, false);
            }
        }
        self.allocated_bytes += need as u64 * 8;
        Some(Addr(base + idx as u64 * 8))
    }

    /// The class of the object at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is an array or not a valid object.
    pub fn class_of(&self, addr: Addr) -> ClassId {
        let h = self.header(addr);
        assert_eq!(h & FLAG_ARRAY, 0, "class_of on array {addr:?}");
        ClassId(h as u32)
    }

    /// `true` when the object at `addr` is an array.
    pub fn is_array(&self, addr: Addr) -> bool {
        self.header(addr) & FLAG_ARRAY != 0
    }

    /// Number of fields / array elements.
    pub fn len_of(&self, addr: Addr) -> u32 {
        header_len(self.header(addr))
    }

    /// Read field/element `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub fn get(&self, addr: Addr, slot: u32) -> Value {
        let (space, idx) = self.index(addr);
        let words = self.words(space);
        assert!(
            slot < header_len(words[idx]),
            "slot {slot} out of bounds at {addr:?}"
        );
        Value::decode(words[idx + 1 + slot as usize])
    }

    /// Write field/element `slot`, maintaining the card table.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of bounds.
    pub fn set(&mut self, addr: Addr, slot: u32, value: Value) {
        let (space, idx) = self.index(addr);
        assert!(
            slot < header_len(self.words(space)[idx]),
            "slot {slot} out of bounds at {addr:?}"
        );
        let word = idx + 1 + slot as usize;
        self.write(space, word, value.encode());
        // Card marking: a reference stored into the closure space may create
        // a closure→alloc edge the next GC must treat as a root.
        if space == Space::Closure && matches!(value, Value::Ref(a) if !a.is_remote()) {
            self.cards[word / CARD_WORDS] = true;
        }
    }

    /// Copy `n` slots from `src[src_pos..]` to `dst[dst_pos..]`, first to
    /// last — the element-wise `get`/`set` loop (so a forward-overlapping
    /// copy within one array propagates the same way), with both objects
    /// resolved once and the card table maintained like [`Heap::set`].
    ///
    /// # Panics
    ///
    /// Panics if either range runs past its object.
    pub fn copy_slots(&mut self, src: Addr, src_pos: u32, dst: Addr, dst_pos: u32, n: u32) {
        if n == 0 {
            return;
        }
        let (src_space, src_idx) = self.index(src);
        let (dst_space, dst_idx) = self.index(dst);
        let in_bounds = |pos: u32, len: u32| pos as u64 + n as u64 <= len as u64;
        assert!(
            in_bounds(src_pos, header_len(self.words(src_space)[src_idx])),
            "slots {src_pos}+{n} out of bounds at {src:?}"
        );
        assert!(
            in_bounds(dst_pos, header_len(self.words(dst_space)[dst_idx])),
            "slots {dst_pos}+{n} out of bounds at {dst:?}"
        );
        let from = src_idx + 1 + src_pos as usize;
        let to = dst_idx + 1 + dst_pos as usize;
        for i in 0..n as usize {
            let word = self.words(src_space)[from + i];
            self.write(dst_space, to + i, word);
            if dst_space == Space::Closure
                && matches!(Value::decode(word), Value::Ref(a) if !a.is_remote())
            {
                self.cards[(to + i) / CARD_WORDS] = true;
            }
        }
    }

    /// Mark the object dirty (it will be shipped at the next synchronization,
    /// §4.2). Returns `true` if it was newly marked.
    pub fn mark_dirty(&mut self, addr: Addr) -> bool {
        self.update_header(addr, |h| h | FLAG_DIRTY) & FLAG_DIRTY == 0
    }

    /// Clear the dirty mark.
    pub fn clear_dirty(&mut self, addr: Addr) {
        self.update_header(addr, |h| h & !FLAG_DIRTY);
    }

    /// Bytes currently used in the allocation space.
    pub fn used_alloc_bytes(&self) -> u64 {
        self.alloc.words.len() as u64 * 8
    }

    /// Bytes used in the closure space.
    pub fn used_closure_bytes(&self) -> u64 {
        self.closure.words.len() as u64 * 8
    }

    /// Monotonic count of all bytes ever allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// Peak combined footprint observed (updated at each GC and on query).
    pub fn peak_used_bytes(&self) -> u64 {
        self.peak_used_bytes
            .max(self.used_alloc_bytes() + self.used_closure_bytes())
    }

    /// Semispace collection of the allocation space.
    ///
    /// `each_root` must invoke its visitor on **every** root slot: operand
    /// stacks and locals of live executions, statics, and any embedder
    /// tables (e.g. the server's object-mapping tables, §4.4). Closure-space
    /// objects are additional roots discovered through dirty cards.
    pub fn collect(&mut self, each_root: &mut dyn FnMut(&mut RootVisitor)) -> GcStats {
        self.peak_used_bytes = self
            .peak_used_bytes
            .max(self.used_alloc_bytes() + self.used_closure_bytes());

        let from_base = self.alloc_base;
        let to_base = if from_base == ALLOC_BASE_A {
            ALLOC_BASE_B
        } else {
            ALLOC_BASE_A
        };
        let from = std::mem::take(&mut self.alloc.words);
        let old_used = from.len() as u64 * 8;
        self.alloc_base = to_base;
        self.clock += 1;
        self.collections += 1;

        let mut forwarding: FastMap<u64, u64> = FastMap::default();
        let mut copied_objects = 0u64;

        // Copy one object from from-space, returning its new address.
        let copy = |heap: &mut Heap,
                    forwarding: &mut FastMap<u64, u64>,
                    copied: &mut u64,
                    old: u64|
         -> u64 {
            if let Some(&new) = forwarding.get(&old) {
                return new;
            }
            let idx = ((old - from_base) / 8) as usize;
            let header = from[idx];
            let len = header_len(header) as usize;
            let new_idx = heap.alloc.words.len();
            heap.alloc
                .words
                .extend_from_slice(&from[idx..idx + 1 + len]);
            let new = to_base + new_idx as u64 * 8;
            forwarding.insert(old, new);
            *copied += 1;
            new
        };

        let in_from = |w: u64| -> bool {
            w != 0
                && w & 1 == 0
                && !Addr(w).is_remote()
                && (from_base..from_base + SPACE_SIZE).contains(&w)
        };

        // Phase 1: roots.
        {
            let mut visit = |v: &mut Value| {
                if let Value::Ref(a) = *v {
                    if !a.is_remote() && (from_base..from_base + SPACE_SIZE).contains(&a.raw()) {
                        let new = copy(self, &mut forwarding, &mut copied_objects, a.raw());
                        *v = Value::Ref(Addr(new));
                    }
                }
            };
            each_root(&mut visit);
        }

        // Phase 2: dirty closure-space cards.
        let mut cards_scanned = 0u64;
        for card in 0..self.cards.len() {
            if !self.cards[card] {
                continue;
            }
            cards_scanned += 1;
            let start = card * CARD_WORDS;
            let end = ((card + 1) * CARD_WORDS).min(self.closure.words.len());
            let mut still_dirty = false;
            for i in start..end {
                let w = self.closure.words[i];
                if in_from(w) {
                    let new = copy(self, &mut forwarding, &mut copied_objects, w);
                    self.write(Space::Closure, i, new);
                    still_dirty = true;
                }
            }
            self.cards[card] = still_dirty;
        }

        // Phase 3: Cheney scan of to-space. A rebuilt space is mirrored whole
        // (see `sync_image`), so these writes need no page stamps; the stamp
        // table still covers it, as to-space holds at most what from-space
        // did.
        let mut scan = 0usize;
        while scan < self.alloc.words.len() {
            let header = self.alloc.words[scan];
            let len = header_len(header) as usize;
            for slot in 0..len {
                let w = self.alloc.words[scan + 1 + slot];
                if in_from(w) {
                    let new = copy(self, &mut forwarding, &mut copied_objects, w);
                    self.alloc.words[scan + 1 + slot] = new;
                }
            }
            scan += 1 + len;
        }

        let live_bytes = self.alloc.words.len() as u64 * 8;
        GcStats {
            live_bytes,
            freed_bytes: old_used.saturating_sub(live_bytes),
            copied_objects,
            cards_scanned,
            pause: self.gc_costs.base
                + Duration::from_nanos(
                    self.gc_costs.per_word.as_nanos() * (live_bytes / 8)
                        + self.gc_costs.per_card.as_nanos() * cards_scanned,
                ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Heap {
        /// `true` when an allocation of `slots` fields would fail right now.
        fn needs_gc(&self, slots: u32) -> bool {
            self.alloc.words.len() + 1 + slots as usize > self.alloc_capacity_words
        }
    }

    fn heap() -> Heap {
        Heap::new(4096, GcCosts::default())
    }

    #[test]
    fn alloc_and_field_access() {
        let mut h = heap();
        let obj = h.alloc_object(ClassId(7), 3, Space::Alloc).unwrap();
        assert_eq!(h.class_of(obj), ClassId(7));
        assert_eq!(h.len_of(obj), 3);
        assert_eq!(h.get(obj, 0), Value::Null);
        h.set(obj, 1, Value::I64(99));
        assert_eq!(h.get(obj, 1), Value::I64(99));
    }

    #[test]
    fn arrays() {
        let mut h = heap();
        let arr = h.alloc_array(10, Space::Alloc).unwrap();
        assert!(h.is_array(arr));
        assert_eq!(h.len_of(arr), 10);
        h.set(arr, 9, Value::I64(-1));
        assert_eq!(h.get(arr, 9), Value::I64(-1));
    }

    #[test]
    fn alloc_space_fills_up() {
        let mut h = Heap::new(64, GcCosts::default()); // 8 words
        assert!(h.alloc_object(ClassId(0), 3, Space::Alloc).is_some()); // 4 words
        assert!(h.needs_gc(5));
        assert!(h.alloc_object(ClassId(0), 5, Space::Alloc).is_none());
        // Closure space is unbounded.
        assert!(h.alloc_object(ClassId(0), 100, Space::Closure).is_some());
    }

    #[test]
    fn spaces_are_distinguished() {
        let mut h = heap();
        let a = h.alloc_object(ClassId(0), 1, Space::Alloc).unwrap();
        let c = h.alloc_object(ClassId(0), 1, Space::Closure).unwrap();
        assert_eq!(h.space_of(a), Space::Alloc);
        assert_eq!(h.space_of(c), Space::Closure);
    }

    #[test]
    fn gc_reclaims_garbage_and_preserves_roots() {
        let mut h = heap();
        let keep = h.alloc_object(ClassId(1), 2, Space::Alloc).unwrap();
        h.set(keep, 0, Value::I64(5));
        for _ in 0..10 {
            h.alloc_object(ClassId(2), 4, Space::Alloc).unwrap(); // garbage
        }
        let mut root = Value::Ref(keep);
        let stats = h.collect(&mut |visit| visit(&mut root));
        let new_addr = root.as_ref().unwrap();
        assert_eq!(h.class_of(new_addr), ClassId(1));
        assert_eq!(h.get(new_addr, 0), Value::I64(5));
        assert_eq!(stats.copied_objects, 1);
        assert!(stats.freed_bytes > 0);
        assert_eq!(h.used_alloc_bytes(), 3 * 8);
    }

    #[test]
    fn gc_follows_object_graphs() {
        let mut h = heap();
        let a = h.alloc_object(ClassId(1), 1, Space::Alloc).unwrap();
        let b = h.alloc_object(ClassId(2), 1, Space::Alloc).unwrap();
        h.set(a, 0, Value::Ref(b));
        h.set(b, 0, Value::I64(42));
        h.alloc_array(50, Space::Alloc).unwrap(); // garbage
        let mut root = Value::Ref(a);
        let stats = h.collect(&mut |visit| visit(&mut root));
        assert_eq!(stats.copied_objects, 2);
        let a2 = root.as_ref().unwrap();
        let b2 = h.get(a2, 0).as_ref().unwrap();
        assert_eq!(h.get(b2, 0), Value::I64(42));
    }

    #[test]
    fn gc_handles_cycles_and_sharing() {
        let mut h = heap();
        let a = h.alloc_object(ClassId(1), 2, Space::Alloc).unwrap();
        let b = h.alloc_object(ClassId(2), 1, Space::Alloc).unwrap();
        h.set(a, 0, Value::Ref(b));
        h.set(a, 1, Value::Ref(b)); // shared edge
        h.set(b, 0, Value::Ref(a)); // cycle
        let mut root = Value::Ref(a);
        let stats = h.collect(&mut |visit| visit(&mut root));
        assert_eq!(stats.copied_objects, 2);
        let a2 = root.as_ref().unwrap();
        let b2 = h.get(a2, 0).as_ref().unwrap();
        assert_eq!(h.get(a2, 1).as_ref().unwrap(), b2, "sharing preserved");
        assert_eq!(h.get(b2, 0).as_ref().unwrap(), a2, "cycle preserved");
    }

    #[test]
    fn closure_space_objects_keep_alloc_targets_alive_via_cards() {
        let mut h = heap();
        let holder = h.alloc_object(ClassId(1), 1, Space::Closure).unwrap();
        let target = h.alloc_object(ClassId(2), 1, Space::Alloc).unwrap();
        h.set(target, 0, Value::I64(7));
        h.set(holder, 0, Value::Ref(target)); // marks card
        let stats = h.collect(&mut |_| {}); // no stack roots at all
        assert_eq!(stats.copied_objects, 1);
        assert!(stats.cards_scanned >= 1);
        let target2 = h.get(holder, 0).as_ref().unwrap();
        assert_eq!(h.get(target2, 0), Value::I64(7));
        assert_eq!(h.space_of(target2), Space::Alloc);
    }

    #[test]
    fn remote_refs_are_ignored_by_gc() {
        let mut h = heap();
        let holder = h.alloc_object(ClassId(1), 1, Space::Closure).unwrap();
        let remote = Addr(ALLOC_BASE_A + 0x40).to_remote();
        h.set(holder, 0, Value::Ref(remote));
        let mut root = Value::Ref(remote);
        let stats = h.collect(&mut |visit| visit(&mut root));
        assert_eq!(stats.copied_objects, 0);
        assert_eq!(root.as_ref().unwrap(), remote, "remote ref untouched");
        assert_eq!(h.get(holder, 0).as_ref().unwrap(), remote);
    }

    #[test]
    fn two_successive_gcs_flip_semispaces() {
        let mut h = heap();
        let a = h.alloc_object(ClassId(1), 1, Space::Alloc).unwrap();
        h.set(a, 0, Value::I64(1));
        let mut root = Value::Ref(a);
        h.collect(&mut |v| v(&mut root));
        let first = root.as_ref().unwrap();
        h.collect(&mut |v| v(&mut root));
        let second = root.as_ref().unwrap();
        assert_ne!(
            first.raw() & 0xF000_0000_0000,
            second.raw() & 0xF000_0000_0000
        );
        assert_eq!(h.get(second, 0), Value::I64(1));
    }

    #[test]
    fn copy_slots_is_the_element_wise_loop() {
        let fill = |h: &mut Heap, space: Space| {
            let target = h.alloc_object(ClassId(1), 1, Space::Alloc).unwrap();
            let a = h.alloc_array(12, space).unwrap();
            for i in 0..12 {
                let v = match i % 3 {
                    0 => Value::I64(i as i64 - 4),
                    1 => Value::Ref(target),
                    _ => Value::Null,
                };
                h.set(a, i, v);
            }
            (a, h.alloc_array(12, space).unwrap())
        };
        for space in [Space::Alloc, Space::Closure] {
            // (src_pos, dst_pos, n, same array?)
            for (sp, dp, n, same) in [(0, 4, 8, false), (2, 0, 5, false), (0, 3, 9, true)] {
                let mut by_loop = Heap::new(1 << 16, GcCosts::default());
                let mut bulk = Heap::new(1 << 16, GcCosts::default());
                let (a, b) = fill(&mut by_loop, space);
                assert_eq!(fill(&mut bulk, space), (a, b));
                let dst = if same { a } else { b };
                for i in 0..n {
                    let v = by_loop.get(a, sp + i);
                    by_loop.set(dst, dp + i, v);
                }
                bulk.copy_slots(a, sp, dst, dp, n);
                assert_eq!(by_loop.closure, bulk.closure);
                assert_eq!(by_loop.alloc, bulk.alloc);
                assert_eq!(by_loop.cards, bulk.cards, "{space:?} {sp}->{dp} x{n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "slots 8+5 out of bounds")]
    fn copy_slots_checks_the_destination_range() {
        let mut h = heap();
        let a = h.alloc_array(12, Space::Alloc).unwrap();
        let b = h.alloc_array(12, Space::Alloc).unwrap();
        h.copy_slots(a, 0, b, 8, 5);
    }

    #[test]
    fn dirty_marks() {
        let mut h = heap();
        let o = h.alloc_object(ClassId(0), 1, Space::Closure).unwrap();
        assert!(h.mark_dirty(o));
        assert!(!h.mark_dirty(o), "second mark is a no-op");
        h.clear_dirty(o);
        assert!(h.mark_dirty(o));
    }

    #[test]
    fn gc_pause_grows_with_live_set() {
        let mut h = Heap::new(1 << 20, GcCosts::default());
        let small = {
            let a = h.alloc_object(ClassId(0), 1, Space::Alloc).unwrap();
            let mut root = Value::Ref(a);
            h.collect(&mut |v| v(&mut root)).pause
        };
        let big = {
            let mut roots: Vec<Value> = Vec::new();
            for _ in 0..1000 {
                let a = h.alloc_object(ClassId(0), 7, Space::Alloc).unwrap();
                roots.push(Value::Ref(a));
            }
            h.collect(&mut |v| roots.iter_mut().for_each(&mut *v)).pause
        };
        assert!(big > small, "pause should scale: {small:?} vs {big:?}");
    }

    #[test]
    fn peak_usage_tracks_high_water_mark() {
        let mut h = heap();
        for _ in 0..8 {
            h.alloc_object(ClassId(0), 7, Space::Alloc).unwrap();
        }
        let before = h.peak_used_bytes();
        h.collect(&mut |_| {});
        assert!(h.peak_used_bytes() >= before);
        assert_eq!(h.used_alloc_bytes(), 0);
    }
}
