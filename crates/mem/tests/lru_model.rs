//! Property test: the set-associative cache must behave exactly like an
//! executable reference model (per-set LRU list over line addresses).

use proptest::prelude::*;
use std::collections::VecDeque;
use wishbranch_mem::{Cache, CacheConfig};

/// Straight-line reference: one LRU list per set, most recent at the back.
struct RefCache {
    sets: Vec<VecDeque<u64>>,
    ways: usize,
    line_bytes: u64,
}

impl RefCache {
    fn new(sets: usize, ways: usize, line_bytes: u64) -> RefCache {
        RefCache {
            sets: (0..sets).map(|_| VecDeque::new()).collect(),
            ways,
            line_bytes,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let set = (line as usize) % self.sets.len();
        let tag = line / self.sets.len() as u64;
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&t| t == tag) {
            s.remove(pos);
            s.push_back(tag);
            true
        } else {
            if s.len() == self.ways {
                s.pop_front();
            }
            s.push_back(tag);
            false
        }
    }

    fn contains(&self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let set = (line as usize) % self.sets.len();
        let tag = line / self.sets.len() as u64;
        self.sets[set].iter().any(|&t| t == tag)
    }
}

proptest! {
    #[test]
    fn cache_matches_reference_model(
        ops in proptest::collection::vec((any::<bool>(), 0u64..(1 << 14)), 1..400),
        ways in 1usize..=4,
    ) {
        // 4 sets × ways × 64B lines.
        let cfg = CacheConfig {
            size_bytes: 4 * ways * 64,
            ways,
            line_bytes: 64,
            latency: 1,
        };
        let mut dut = Cache::new(cfg);
        let mut model = RefCache::new(4, ways, 64);
        for (is_lookup, addr) in ops {
            if is_lookup {
                prop_assert_eq!(dut.contains(addr), model.contains(addr), "contains {:#x}", addr);
            } else {
                prop_assert_eq!(dut.access(addr), model.access(addr), "access {:#x}", addr);
            }
        }
    }
}
