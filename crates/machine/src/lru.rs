//! The LRU list of one private cache, keyed by dense block index.
//!
//! The paper's caches are ideal caches of `M` words with optimal-enough replacement; as is
//! standard in cache-oblivious analysis we model them as fully associative LRU caches of
//! `M / B` lines. Evictions happen on every miss once the cache is full, so the structure
//! must support O(1) touch / insert / evict. Keys are the dense indices handed out by
//! [`crate::index::BlockIndex`], so the doubly-linked list is intrusive in one flat vector:
//! `links[key]` holds the key's neighbours, or marks it absent. There is no map and no slot
//! allocation; the vector grows to the largest key this cache has ever held.

const NIL: u32 = u32::MAX;
/// Stored in `prev` of a key that is not in the list.
const ABSENT: u32 = u32::MAX - 1;

#[derive(Clone, Copy, Debug)]
struct Link {
    prev: u32,
    next: u32,
}

/// A fixed-capacity LRU set of dense `u32` keys with O(1) insert, touch and evict.
#[derive(Clone, Debug)]
pub(crate) struct LruList {
    capacity: usize,
    len: usize,
    links: Vec<Link>,
    head: u32, // most recently used
    tail: u32, // least recently used
}

impl LruList {
    /// Create an LRU list holding at most `capacity` keys. `capacity` must be at least 1.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU capacity must be at least 1");
        LruList { capacity, len: 0, links: Vec::new(), head: NIL, tail: NIL }
    }

    /// Number of keys currently resident.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether `key` is resident (does not affect recency).
    pub(crate) fn contains(&self, key: u32) -> bool {
        self.links.get(key as usize).is_some_and(|l| l.prev != ABSENT)
    }

    /// Mark `key` as most recently used. Returns `true` if the key was resident.
    #[inline]
    pub(crate) fn touch(&mut self, key: u32) -> bool {
        if !self.contains(key) {
            return false;
        }
        if self.head != key {
            self.unlink(key);
            self.push_front(key);
        }
        true
    }

    /// Insert `key` as most recently used. If the list is full, the least recently used key
    /// is evicted and returned. If `key` was already resident it is just touched and `None`
    /// is returned.
    pub(crate) fn insert(&mut self, key: u32) -> Option<u32> {
        assert!(key < ABSENT, "block index out of range");
        if self.touch(key) {
            return None;
        }
        let evicted = if self.len == self.capacity { self.evict_lru() } else { None };
        if key as usize >= self.links.len() {
            self.links.resize(key as usize + 1, Link { prev: ABSENT, next: NIL });
        }
        self.push_front(key);
        self.len += 1;
        evicted
    }

    /// Remove `key` from the list, returning `true` if it was resident.
    pub(crate) fn remove(&mut self, key: u32) -> bool {
        if !self.contains(key) {
            return false;
        }
        self.unlink(key);
        self.links[key as usize].prev = ABSENT;
        self.len -= 1;
        true
    }

    /// Remove and return the least recently used key, if any.
    pub(crate) fn evict_lru(&mut self) -> Option<u32> {
        let key = self.tail;
        self.remove(key).then_some(key)
    }

    /// Iterate over resident keys from most to least recently used.
    #[cfg(test)]
    pub(crate) fn iter_mru(&self) -> impl Iterator<Item = u32> + '_ {
        let some = |key: u32| (key != NIL).then_some(key);
        std::iter::successors(some(self.head), move |&k| some(self.links[k as usize].next))
    }

    fn unlink(&mut self, key: u32) {
        let Link { prev, next } = self.links[key as usize];
        if prev != NIL {
            self.links[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.links[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, key: u32) {
        self.links[key as usize] = Link { prev: NIL, next: self.head };
        if self.head != NIL {
            self.links[self.head as usize].prev = key;
        } else {
            self.tail = key;
        }
        self.head = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut lru = LruList::new(2);
        assert!(lru.insert(1).is_none());
        assert!(lru.insert(2).is_none());
        assert!(lru.contains(1));
        assert!(lru.contains(2));
        assert!(!lru.contains(0), "an index below a resident one is not resident");
        assert!(!lru.contains(9), "an index this cache never saw is not resident");
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn eviction_is_lru_order() {
        let mut lru = LruList::new(2);
        lru.insert(1);
        lru.insert(2);
        // 1 is now least recently used.
        assert_eq!(lru.insert(3), Some(1));
        assert!(!lru.contains(1));
        assert!(lru.contains(2));
        assert!(lru.contains(3));
    }

    #[test]
    fn touch_changes_victim() {
        let mut lru = LruList::new(2);
        lru.insert(1);
        lru.insert(2);
        assert!(lru.touch(1));
        // 2 is now the LRU entry.
        assert_eq!(lru.insert(3), Some(2));
        assert!(lru.contains(1));
    }

    #[test]
    fn reinsert_does_not_evict() {
        let mut lru = LruList::new(2);
        lru.insert(1);
        lru.insert(2);
        assert_eq!(lru.insert(2), None);
        assert_eq!(lru.len(), 2);
        assert!(lru.contains(1));
    }

    #[test]
    fn remove_frees_space() {
        let mut lru = LruList::new(2);
        lru.insert(1);
        lru.insert(2);
        assert!(lru.remove(1));
        assert!(!lru.remove(1));
        assert!(!lru.remove(40), "removing an index beyond the table is a no-op");
        assert_eq!(lru.insert(3), None);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn mru_iteration_order() {
        let mut lru = LruList::new(3);
        lru.insert(1);
        lru.insert(2);
        lru.insert(3);
        lru.touch(1);
        let order: Vec<u32> = lru.iter_mru().collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn capacity_one() {
        let mut lru = LruList::new(1);
        assert_eq!(lru.insert(1), None);
        assert_eq!(lru.insert(2), Some(1));
        assert_eq!(lru.insert(3), Some(2));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn evict_lru_empties_in_order() {
        let mut lru = LruList::new(3);
        lru.insert(1);
        lru.insert(2);
        lru.insert(3);
        assert_eq!(lru.evict_lru(), Some(1));
        assert_eq!(lru.evict_lru(), Some(2));
        assert_eq!(lru.evict_lru(), Some(3));
        assert_eq!(lru.evict_lru(), None);
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn slot_reuse_after_remove() {
        let mut lru = LruList::new(4);
        for i in 0..4 {
            lru.insert(i);
        }
        lru.remove(2);
        assert_eq!(lru.insert(9), None, "the removed key's place is free again");
        let mut all: Vec<u32> = lru.iter_mru().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 3, 9]);
    }

    /// Reference-model check against a vector-based LRU over a pseudo-random workload.
    #[test]
    fn matches_reference_model() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        for cap in [1usize, 2, 3, 7, 16] {
            let mut lru = LruList::new(cap);
            let mut reference: Vec<u32> = Vec::new(); // front = MRU
            for _ in 0..2000 {
                let key = rng.gen_range(0..32u32);
                let op = rng.gen_range(0..10);
                if op < 6 {
                    let evicted = lru.insert(key);
                    if let Some(pos) = reference.iter().position(|&k| k == key) {
                        reference.remove(pos);
                        reference.insert(0, key);
                        assert_eq!(evicted, None);
                    } else {
                        let expect_evict =
                            if reference.len() == cap { reference.pop() } else { None };
                        reference.insert(0, key);
                        assert_eq!(evicted, expect_evict);
                    }
                } else if op < 8 {
                    let hit = lru.touch(key);
                    if let Some(pos) = reference.iter().position(|&k| k == key) {
                        assert!(hit);
                        reference.remove(pos);
                        reference.insert(0, key);
                    } else {
                        assert!(!hit);
                    }
                } else {
                    let removed = lru.remove(key);
                    if let Some(pos) = reference.iter().position(|&k| k == key) {
                        assert!(removed);
                        reference.remove(pos);
                    } else {
                        assert!(!removed);
                    }
                }
                assert_eq!(lru.len(), reference.len());
                let order: Vec<u32> = lru.iter_mru().collect();
                assert_eq!(order, reference);
            }
        }
    }
}
