//! The scheduler's two time-indexed structures as one type: the ready set
//! (which ROB ids may issue) and the completion-event calendar (which
//! producers wake their waiters on which cycle).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Calendar ring horizon: events within `RING` cycles of now live in
/// per-cycle buckets (O(1) push/drain, occupancy bitmap for the flush
/// purge); the rare longer-latency events overflow into a heap.
const RING: u64 = 512;
const RING_WORDS: usize = (RING as usize) / 64;

/// The ready bitmap and the completion-event calendar.
///
/// * The ready set is a circular bitmap over entry ids (capacity ≥ ROB
///   size, power of two), extracted lowest id (oldest) first. Insertion
///   order is irrelevant to a bitmap, so wakeups may fire in any
///   within-cycle order.
/// * The calendar keeps one bucket per cycle for the next [`RING`] cycles,
///   an occupancy bit per bucket, and an overflow heap for later events.
///
/// A default `Calendar` is empty storage; [`Calendar::reset`] sizes it for
/// a ROB before use, reusing its allocations.
#[derive(Debug, Default)]
pub(super) struct Calendar {
    ready_bits: Vec<u64>,
    ready_mask: u64,
    ready_count: u32,
    ring: Vec<Vec<u64>>,
    ring_occ: [u64; RING_WORDS],
    far_events: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Calendar {
    /// Empties both structures and sizes the ready bitmap for a ROB of
    /// `rob_size` entries.
    pub(super) fn reset(&mut self, rob_size: usize) {
        let cap = rob_size.next_power_of_two().max(64);
        self.ready_bits.clear();
        self.ready_bits.resize(cap / 64, 0);
        self.ready_mask = cap as u64 - 1;
        self.ready_count = 0;
        self.ring.resize_with(RING as usize, Vec::new);
        for bucket in &mut self.ring {
            bucket.clear();
        }
        self.ring_occ = [0; RING_WORDS];
        self.far_events.clear();
    }

    /// Whether any id is ready to issue.
    #[inline]
    pub(super) fn has_ready(&self) -> bool {
        self.ready_count != 0
    }

    /// Marks `id` ready.
    #[inline]
    pub(super) fn set(&mut self, id: u64) {
        let pos = (id & self.ready_mask) as usize;
        self.ready_bits[pos >> 6] |= 1 << (pos & 63);
        self.ready_count += 1;
    }

    /// Extracts the lowest ready id ≥ `front_id`, scanning the circular
    /// bitmap from the window's start. All set bits are live entry ids in
    /// `[front_id, front_id + rob.len())`, a window no wider than the
    /// bitmap, so one wrap-around pass finds the minimum.
    #[inline]
    pub(super) fn pop_oldest(&mut self, front_id: u64) -> Option<u64> {
        if self.ready_count == 0 {
            return None;
        }
        let start = (front_id & self.ready_mask) as usize;
        let pos =
            first_set_from(&self.ready_bits, start).expect("ready_count > 0 implies a set bit");
        self.ready_bits[pos >> 6] &= !(1u64 << (pos & 63));
        self.ready_count -= 1;
        Some(front_id + ((pos as u64).wrapping_sub(front_id) & self.ready_mask))
    }

    /// Clears ready bits for the squashed id range `(boundary, boundary +
    /// count]` (flush purge), word-at-a-time.
    pub(super) fn clear_above(&mut self, boundary: u64, count: u64) {
        let mut id = boundary + 1;
        let end = id + count.min(self.ready_mask + 1);
        while id < end {
            let pos = (id & self.ready_mask) as usize;
            let (w, off) = (pos >> 6, (pos & 63) as u64);
            let span = (64 - off).min(end - id);
            let mask = if span == 64 {
                !0u64
            } else {
                ((1u64 << span) - 1) << off
            };
            let cleared = self.ready_bits[w] & mask;
            self.ready_count -= cleared.count_ones();
            self.ready_bits[w] &= !mask;
            id += span;
        }
    }

    /// Schedules a completion event for `id` at cycle `at > now`: calendar
    /// bucket within the ring horizon, overflow heap otherwise.
    #[inline]
    pub(super) fn push(&mut self, now: u64, at: u64, id: u64) {
        if at - now >= RING {
            self.far_events.push(Reverse((at, id)));
        } else {
            let b = (at & (RING - 1)) as usize;
            self.ring[b].push(id);
            self.ring_occ[b >> 6] |= 1 << (b & 63);
        }
    }

    /// Moves the ids of every event due at `now` into `out`, which must be
    /// empty: its allocation is swapped into the drained bucket.
    #[inline]
    pub(super) fn drain_due(&mut self, now: u64, out: &mut Vec<u64>) {
        debug_assert!(out.is_empty(), "drain_due appends to an empty list");
        let b = (now & (RING - 1)) as usize;
        if self.ring_occ[b >> 6] & (1 << (b & 63)) != 0 {
            self.ring_occ[b >> 6] &= !(1u64 << (b & 63));
            std::mem::swap(&mut self.ring[b], out);
        }
        while let Some(&Reverse((c, id))) = self.far_events.peek() {
            if c > now {
                break;
            }
            self.far_events.pop();
            out.push(id);
        }
    }

    /// Drops every scheduled event of an id above `boundary` (flush purge).
    pub(super) fn purge_above(&mut self, boundary: u64) {
        for w in 0..RING_WORDS {
            let mut bits = self.ring_occ[w];
            while bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = &mut self.ring[b];
                v.retain(|&id| id <= boundary);
                if v.is_empty() {
                    self.ring_occ[w] &= !(1u64 << (b & 63));
                }
            }
        }
        if !self.far_events.is_empty() {
            let mut far = std::mem::take(&mut self.far_events).into_vec();
            far.retain(|&Reverse((_, id))| id <= boundary);
            self.far_events = far.into();
        }
    }

    /// The earliest cycle ≥ `now` with a scheduled event, scanning the
    /// occupancy bitmap circularly from `now` and taking the heap's
    /// minimum. Every ring event lies in `[now, now + RING)`: events are
    /// drained on their cycle and pushed less than `RING` cycles ahead.
    #[inline]
    pub(super) fn next_event(&self, now: u64) -> Option<u64> {
        let near = first_set_from(&self.ring_occ, (now & (RING - 1)) as usize)
            .map(|b| now + ((b as u64).wrapping_sub(now) & (RING - 1)));
        let far = self.far_events.peek().map(|&Reverse((c, _))| c);
        near.into_iter().chain(far).min()
    }
}

/// The first set bit of the circular bitmap `words` (a power-of-two
/// number of words) at or after bit `start`, wrapping around once.
#[inline]
fn first_set_from(words: &[u64], start: usize) -> Option<usize> {
    let nw = words.len();
    let (w0, off) = (start >> 6, start & 63);
    for i in 0..=nw {
        let w = (w0 + i) & (nw - 1);
        let mut bits = words[w];
        if i == 0 {
            bits &= !0u64 << off;
        } else if i == nw {
            bits &= (1u64 << off) - 1;
        }
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calendar(rob_size: usize) -> Calendar {
        let mut c = Calendar::default();
        c.reset(rob_size);
        c
    }

    fn drain(c: &mut Calendar, now: u64) -> Vec<u64> {
        let mut out = Vec::new();
        c.drain_due(now, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn events_beyond_the_ring_overflow_and_fire_on_their_cycle() {
        let mut c = calendar(64);
        let now = 100;
        c.push(now, now + RING, 7);
        c.push(now, now + RING + 1, 8);
        assert_eq!(c.far_events.len(), 2, "both events overflow the ring");
        assert_eq!(c.ring_occ, [0; RING_WORDS]);
        assert_eq!(c.next_event(now + 1), Some(now + RING));
        for t in now + 1..now + RING {
            assert!(drain(&mut c, t).is_empty(), "nothing fires at {t}");
        }
        assert_eq!(drain(&mut c, now + RING), vec![7]);
        assert_eq!(c.next_event(now + RING), Some(now + RING + 1));
        assert_eq!(drain(&mut c, now + RING + 1), vec![8]);
        assert_eq!(c.next_event(now + RING + 2), None);
    }

    #[test]
    fn next_event_finds_the_nearest_event_across_the_ring_wrap() {
        let mut c = calendar(64);
        // `now` sits near the end of the ring; the nearest event wraps to
        // bucket 2 while a later one sits in a lower-numbered word.
        let now = 3 * RING - 5;
        c.push(now, now + 7, 1);
        c.push(now, now + 300, 2);
        assert_eq!(c.next_event(now), Some(now + 7));
        assert_eq!(drain(&mut c, now + 7), vec![1]);
        assert_eq!(c.next_event(now + 8), Some(now + 300));
        // An event on the current cycle is the nearest of all.
        c.push(now + 8, now + 9, 3);
        assert_eq!(c.next_event(now + 9), Some(now + 9));
        // The overflow heap competes with the ring.
        let mut c = calendar(64);
        c.push(now, now + RING, 4);
        c.push(now, now + RING - 1, 5);
        assert_eq!(c.next_event(now + 1), Some(now + RING - 1));
    }

    #[test]
    fn purge_above_drops_ring_and_heap_entries_and_their_occupancy() {
        let mut c = calendar(64);
        let now = 10;
        c.push(now, now + 3, 5);
        c.push(now, now + 3, 9);
        c.push(now, now + 4, 12);
        c.push(now, now + RING + 2, 6);
        c.push(now, now + RING + 3, 11);
        c.purge_above(8);
        assert_eq!(c.next_event(now + 1), Some(now + 3));
        assert_eq!(drain(&mut c, now + 3), vec![5]);
        // The emptied bucket at `now + 4` lost its occupancy bit.
        assert_eq!(c.next_event(now + 4), Some(now + RING + 2));
        assert_eq!(drain(&mut c, now + RING + 2), vec![6]);
        assert_eq!(c.next_event(now + RING + 3), None);
    }

    #[test]
    fn pop_oldest_returns_the_lowest_id_when_the_window_wraps_the_bitmap() {
        let mut c = calendar(64);
        // Window [front, front + 64) starts 4 ids before the bitmap wraps.
        let front = 3 * 64 - 4;
        for id in [front + 60, front + 1, front + 10] {
            c.set(id);
        }
        assert_eq!(c.pop_oldest(front), Some(front + 1));
        assert_eq!(c.pop_oldest(front), Some(front + 10));
        assert_eq!(c.pop_oldest(front), Some(front + 60));
        assert_eq!(c.pop_oldest(front), None);
        // Squashing clears the bits above a boundary, across the wrap.
        for id in front..front + 8 {
            c.set(id);
        }
        c.clear_above(front + 1, 6);
        assert_eq!(c.pop_oldest(front), Some(front));
        assert_eq!(c.pop_oldest(front), Some(front + 1));
        assert_eq!(c.pop_oldest(front), None);
        assert!(!c.has_ready());
    }
}
