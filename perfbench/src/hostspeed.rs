//! Host speed, measured with a fixed reference kernel.
//!
//! On a shared virtual machine the CPU time one operation takes moves with
//! what other guests do to the shared caches and memory: here the same
//! statement corpus ran 45% faster in one run than in the next. The
//! reference kernel — hash inserts, a sort and hash lookups over tables
//! allocated once, so nothing the program under test does to the heap
//! reaches it — is timed between measured stretches. Its CPU time against
//! [`NOMINAL_S`] is the host's speed at that moment, and operation times are
//! scaled by it to what they would be on the host where [`NOMINAL_S`] was
//! taken.

use crate::clock::thread_cpu;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// CPU seconds the reference kernel takes on the host the benchmark's
/// bounds were set on (2-vCPU virtual machine, "Intel(R) Xeon(R)
/// Processor"): the median of five runs' medians, which ranged 1.97–2.27 ms.
pub const NOMINAL_S: f64 = 0.00215;

/// Keys inserted, sorted and looked up per call.
const KEYS: usize = 20_000;
/// Key range, so about a third of the inserts overwrite.
const KEY_SPACE: u64 = 50_000;

/// The reference kernel's tables, allocated once and reused, so the kernel
/// allocates nothing after set-up.
pub struct HostSpeed {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    keys: Vec<u64>,
}

impl HostSpeed {
    /// Allocate the kernel's tables.
    pub fn new() -> Self {
        Self {
            map: HashMap::with_capacity_and_hasher(2 * KEYS, Default::default()),
            keys: Vec::with_capacity(KEYS),
        }
    }

    /// Run the kernel once — hash inserts, a sort, hash lookups, the same
    /// inputs every time — and return the calling thread's CPU seconds.
    pub fn sample(&mut self) -> f64 {
        let c0 = thread_cpu();
        self.map.clear();
        self.keys.clear();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..KEYS as u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.map.insert(x % KEY_SPACE, i);
            self.keys.push(x);
        }
        self.keys.sort_unstable();
        let hits = self
            .keys
            .iter()
            .filter(|&&k| self.map.contains_key(&(k % KEY_SPACE)))
            .count();
        std::hint::black_box(hits);
        (thread_cpu() - c0).as_secs_f64()
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}
