//! Per-shard epoch arenas: typed recycling buffer pools.
//!
//! The hot loop of a shard allocates the same shapes every round — a
//! report batch per sense, a declaration list per decide, a handoff list
//! per re-election. A [`BufferPool`] keeps those vectors alive between
//! epochs instead of returning them to the allocator: `lease` hands out a
//! cleared buffer (reusing a retired one when available), `release` takes
//! it back once the epoch is done with it. After the first few rounds
//! warm the pool, the loop allocates nothing — the arena behaviour the
//! sharded engine wants — while each buffer still grows to its natural
//! high-water capacity like any `Vec`.
//!
//! The pool is deliberately *not* a bump allocator over raw bytes: every
//! lease is an ordinary `Vec<T>`, so borrow checking, drop order, and
//! capacity growth all behave exactly as without the pool, and swapping a
//! pool in or out cannot change a simulation trace.
//!
//! ```rust
//! use tibfit_sim::arena::BufferPool;
//!
//! let mut pool: BufferPool<u64> = BufferPool::new();
//! let mut buf = pool.lease();
//! buf.extend([1, 2, 3]);
//! pool.release(buf);
//! let again = pool.lease(); // same backing storage, cleared
//! assert!(again.is_empty() && again.capacity() >= 3);
//! assert_eq!(pool.reused(), 1);
//! ```

/// A typed pool of recycled `Vec<T>` scratch buffers.
#[derive(Debug)]
pub struct BufferPool<T> {
    free: Vec<Vec<T>>,
    allocated: u64,
    reused: u64,
}

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BufferPool<T> {
    /// An empty pool. Nothing is preallocated; capacity accrues from
    /// released buffers.
    #[must_use]
    pub fn new() -> Self {
        BufferPool {
            free: Vec::new(),
            allocated: 0,
            reused: 0,
        }
    }

    /// Takes an empty buffer from the pool, or a fresh one if none is
    /// retired. The returned buffer is always empty; its capacity is
    /// whatever its previous lease grew it to.
    #[must_use]
    pub fn lease(&mut self) -> Vec<T> {
        match self.free.pop() {
            Some(buf) => {
                debug_assert!(buf.is_empty(), "released buffers are cleared");
                self.reused += 1;
                buf
            }
            None => {
                self.allocated += 1;
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the pool for a later [`BufferPool::lease`].
    /// Contents are cleared (elements drop now); capacity is kept, but
    /// rounded up so the retired block spans whole cache lines — the
    /// next lease's writes then never straddle a line shared with a
    /// neighboring allocation. The rounding reallocates at most once per
    /// capacity high-water mark, so the steady state is untouched.
    pub fn release(&mut self, mut buf: Vec<T>) {
        buf.clear();
        let rounded = crate::cache::round_capacity_to_line::<T>(buf.capacity());
        if rounded > buf.capacity() {
            buf.reserve_exact(rounded);
        }
        self.free.push(buf);
    }

    /// Buffers created fresh because the pool was empty — the pool's
    /// steady-state value is this number staying flat while
    /// [`BufferPool::reused`] climbs.
    #[must_use]
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Leases served from a retired buffer instead of the allocator.
    #[must_use]
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Buffers currently retired and ready to lease.
    #[must_use]
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

/// Moves the elements at the ascending indices `at` to the tail of
/// `col`, in index order, and closes the gaps: the other elements keep
/// their relative order at the front. The inverse of [`settle_tail`].
///
/// Parallel columns (struct-of-arrays state) stay aligned when every
/// column is gathered with the same `at`; truncating them to
/// `len - at.len()` then removes those rows. Runs in place, so it never
/// allocates, for any element type.
///
/// # Panics
///
/// Panics if an index is out of range.
///
/// ```rust
/// use tibfit_sim::arena::{gather_tail, settle_tail};
///
/// let mut col = vec!['a', 'b', 'c', 'd', 'e'];
/// gather_tail(&mut col, &[1, 3]);
/// assert_eq!(col, ['a', 'c', 'e', 'b', 'd']);
/// settle_tail(&mut col, &[1, 3]);
/// assert_eq!(col, ['a', 'b', 'c', 'd', 'e']);
/// ```
pub fn gather_tail<T>(col: &mut [T], at: &[usize]) {
    debug_assert!(at.windows(2).all(|w| w[0] < w[1]), "indices ascending");
    let base = col.len() - at.len();
    for (k, &i) in at.iter().enumerate().rev() {
        col[i..=base + k].rotate_left(1);
    }
}

/// Moves the `at.len()` elements at the tail of `col` to the ascending
/// final indices `at` (tail element `k` lands at `at[k]`), shifting the
/// elements between up: a sorted merge of the tail into the front,
/// done in place. The inverse of [`gather_tail`].
///
/// # Panics
///
/// Panics if an index is out of range.
pub fn settle_tail<T>(col: &mut [T], at: &[usize]) {
    debug_assert!(at.windows(2).all(|w| w[0] < w[1]), "indices ascending");
    let base = col.len() - at.len();
    for (k, &i) in at.iter().enumerate() {
        col[i..=base + k].rotate_right(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_and_settle_are_inverse_for_every_subset() {
        for n in 0..7usize {
            for mask in 0u32..(1 << n) {
                let at: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
                let orig: Vec<usize> = (0..n).collect();
                let mut col = orig.clone();
                gather_tail(&mut col, &at);
                let kept: Vec<usize> = (0..n).filter(|i| !at.contains(i)).collect();
                assert_eq!(&col[..kept.len()], &kept[..], "kept rows in order");
                assert_eq!(&col[kept.len()..], &at[..], "gathered rows in order");
                settle_tail(&mut col, &at);
                assert_eq!(col, orig);
            }
        }
    }

    #[test]
    fn lease_prefers_recycled_buffers() {
        let mut pool: BufferPool<u32> = BufferPool::new();
        let mut a = pool.lease();
        let b = pool.lease();
        assert_eq!(pool.allocated(), 2);
        assert_eq!(pool.reused(), 0);
        a.extend([1, 2, 3, 4]);
        let cap = a.capacity();
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.idle(), 2);
        let c = pool.lease();
        assert!(c.is_empty());
        assert_eq!(pool.reused(), 1);
        assert_eq!(pool.allocated(), 2, "no fresh allocation once warmed");
        // LIFO reuse: the most recently released buffer (b, empty) comes
        // back first; the grown one is still idle. Release rounds
        // capacity up to whole cache lines, never down.
        let d = pool.lease();
        assert!(c.capacity() >= cap || d.capacity() >= cap, "grown capacity survives recycling");
    }

    #[test]
    fn released_capacity_is_line_granular() {
        let mut pool: BufferPool<u64> = BufferPool::new();
        let mut buf = pool.lease();
        buf.extend(0..5); // ragged capacity
        pool.release(buf);
        let buf = pool.lease();
        assert_eq!(buf.capacity() % (crate::cache::CACHE_LINE / 8), 0);
        assert!(buf.capacity() >= 8);
    }

    #[test]
    fn release_drops_contents_but_keeps_capacity() {
        let mut pool: BufferPool<String> = BufferPool::new();
        let mut buf = pool.lease();
        buf.push("scratch".to_string());
        buf.push("epoch".to_string());
        let cap = buf.capacity();
        pool.release(buf);
        let buf = pool.lease();
        assert!(buf.is_empty());
        assert!(buf.capacity() >= cap);
    }

    #[test]
    fn steady_state_allocates_nothing() {
        let mut pool: BufferPool<u64> = BufferPool::new();
        // Warm-up: one buffer in flight at a time.
        for round in 0..100u64 {
            let mut buf = pool.lease();
            buf.extend(0..round);
            pool.release(buf);
        }
        assert_eq!(pool.allocated(), 1);
        assert_eq!(pool.reused(), 99);
        assert_eq!(pool.idle(), 1);
    }
}
