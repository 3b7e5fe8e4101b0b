//! Slab arena for in-flight memory requests.
//!
//! The seed moved `MemReq` structs *by value* through five queues (NoC
//! lane → slice ingress → request queue → tag pipe → MSHR pipe): every
//! hop memmoved 40 bytes, and the NoC's sorted inserts shifted whole
//! payloads. The arena inverts that: a request is written into a pool
//! slot **once**, when the core issues it, and every queue downstream
//! carries only the 4-byte [`ReqHandle`]. The slot is recycled the
//! moment the request resolves (cache hit, MSHR merge/allocate — the
//! points where the seed dropped its by-value copy).
//!
//! Slot reuse is LIFO through a free-list, which keeps hot slots in
//! cache. Handles have no generation bits: the simulator's ownership
//! discipline is strictly linear (exactly one queue holds a handle at
//! any time), and debug builds verify it with a liveness mask.

use crate::types::MemReq;

/// Index of a pooled in-flight request (4 bytes — what the queues and
/// NoC wheels actually move).
pub type ReqHandle = u32;

/// The request arena. One per [`crate::system::System`]; sized by the
/// natural in-flight bound (cores × L1 miss entries, plus posted
/// stores) and grown on demand if a workload exceeds it.
#[derive(Debug, Clone, Default)]
pub struct ReqPool {
    slots: Vec<MemReq>,
    free: Vec<ReqHandle>,
    #[cfg(debug_assertions)]
    live_mask: Vec<bool>,
}

impl ReqPool {
    /// A pool with `capacity` preallocated slots.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut pool = ReqPool::default();
        pool.reserve(capacity);
        pool
    }

    /// Preallocates up to `capacity` total slots.
    pub fn reserve(&mut self, capacity: usize) {
        while self.slots.len() < capacity {
            let h = self.slots.len() as ReqHandle;
            self.slots.push(MemReq {
                id: 0,
                core: 0,
                request: 0,
                line_addr: 0,
                is_write: false,
                issued_at: 0,
            });
            self.free.push(h);
            #[cfg(debug_assertions)]
            self.live_mask.push(false);
        }
    }

    /// Stores `req` in a slot and returns its handle.
    #[inline]
    pub fn alloc(&mut self, req: MemReq) -> ReqHandle {
        let h = match self.free.pop() {
            Some(h) => h,
            None => {
                let h = self.slots.len() as ReqHandle;
                self.slots.push(req);
                #[cfg(debug_assertions)]
                self.live_mask.push(false);
                h
            }
        };
        self.slots[h as usize] = req;
        #[cfg(debug_assertions)]
        {
            debug_assert!(!self.live_mask[h as usize], "double alloc of slot {h}");
            self.live_mask[h as usize] = true;
        }
        h
    }

    /// The request behind `h`.
    #[inline]
    pub fn get(&self, h: ReqHandle) -> &MemReq {
        #[cfg(debug_assertions)]
        debug_assert!(self.live_mask[h as usize], "read of freed handle {h}");
        &self.slots[h as usize]
    }

    /// Recycles `h`'s slot.
    #[inline]
    pub fn release(&mut self, h: ReqHandle) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.live_mask[h as usize], "double free of handle {h}");
            self.live_mask[h as usize] = false;
        }
        self.free.push(h);
    }

    /// Handles currently live (allocated and not yet released).
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slots (live + free).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64) -> MemReq {
        MemReq {
            id,
            core: 0,
            request: 0,
            line_addr: id * 64,
            is_write: false,
            issued_at: 0,
        }
    }

    #[test]
    fn alloc_get_release_roundtrip() {
        let mut p = ReqPool::with_capacity(2);
        let a = p.alloc(req(1));
        let b = p.alloc(req(2));
        assert_eq!(p.get(a).id, 1);
        assert_eq!(p.get(b).id, 2);
        assert_eq!(p.live(), 2);
        p.release(a);
        assert_eq!(p.live(), 1);
        let c = p.alloc(req(3));
        assert_eq!(c, a, "LIFO slot reuse");
        assert_eq!(p.get(c).id, 3);
    }

    #[test]
    fn grows_past_preallocation_on_demand() {
        let mut p = ReqPool::with_capacity(1);
        let handles: Vec<_> = (0..10).map(|i| p.alloc(req(i))).collect();
        for (i, &h) in handles.iter().enumerate() {
            assert_eq!(p.get(h).id, i as u64);
        }
        assert_eq!(p.live(), 10);
        assert!(p.capacity() >= 10);
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)]
    fn double_free_is_caught_in_debug() {
        let mut p = ReqPool::with_capacity(1);
        let h = p.alloc(req(1));
        p.release(h);
        p.release(h);
    }
}
