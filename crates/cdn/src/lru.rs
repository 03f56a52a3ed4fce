//! A small LRU set for cache-content tracking.
//!
//! Real edge caches have finite disks: an update image that displaces other
//! content is exactly how a flash crowd degrades a CDN's hit rate for
//! everything else. [`LruSet`] gives each simulated cache node a bounded
//! object set with least-recently-used eviction.

use std::collections::HashMap;

/// A bounded set with LRU eviction and O(1) amortized operations.
#[derive(Debug, Clone)]
pub struct LruSet {
    capacity: usize,
    // Object -> last-touch sequence number.
    stamps: HashMap<String, u64>,
    clock: u64,
    evictions: u64,
}

impl LruSet {
    /// A set holding at most `capacity` objects.
    ///
    /// # Panics
    /// Panics on zero capacity (a cache that can hold nothing is a
    /// configuration bug).
    pub fn new(capacity: usize) -> LruSet {
        assert!(capacity > 0, "cache capacity must be positive");
        LruSet {
            capacity,
            stamps: HashMap::new(),
            clock: 0,
            evictions: 0,
        }
    }

    /// Whether `object` is cached; refreshes its recency when it is.
    pub fn touch(&mut self, object: &str) -> bool {
        self.clock += 1;
        match self.stamps.get_mut(object) {
            Some(stamp) => {
                *stamp = self.clock;
                true
            }
            None => false,
        }
    }

    /// Inserts `object`, evicting the least recently used entry if full.
    /// Returns the evicted object, if any.
    pub fn insert(&mut self, object: &str) -> Option<String> {
        self.clock += 1;
        if let Some(stamp) = self.stamps.get_mut(object) {
            *stamp = self.clock;
            return None;
        }
        let mut evicted = None;
        if self.stamps.len() >= self.capacity {
            // O(n) victim scan; cache node capacities are small and the
            // operation is rare relative to lookups.
            let victim = self
                .stamps
                .iter()
                .min_by_key(|(_, stamp)| **stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty at capacity");
            self.stamps.remove(&victim);
            self.evictions += 1;
            evicted = Some(victim);
        }
        self.stamps.insert(object.to_string(), self.clock);
        evicted
    }

    /// Objects currently held.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruSet::new(2);
        assert_eq!(c.insert("a"), None);
        assert_eq!(c.insert("b"), None);
        assert_eq!(c.insert("c"), Some("a".into()), "a is the oldest");
        assert!(!c.touch("a"));
        assert!(c.touch("b") && c.touch("c"));
    }

    #[test]
    fn touch_refreshes_recency() {
        let mut c = LruSet::new(2);
        c.insert("a");
        c.insert("b");
        assert!(c.touch("a")); // a is now fresher than b
        assert_eq!(c.insert("c"), Some("b".into()));
        assert!(c.touch("a"));
    }

    #[test]
    fn reinsert_is_a_touch() {
        let mut c = LruSet::new(2);
        c.insert("a");
        c.insert("b");
        assert_eq!(c.insert("a"), None, "no eviction on re-insert");
        assert_eq!(c.insert("c"), Some("b".into()));
    }

    #[test]
    fn eviction_counter() {
        let mut c = LruSet::new(1);
        c.insert("a");
        c.insert("b");
        c.insert("c");
        assert_eq!(c.evictions(), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = LruSet::new(0);
    }
}
