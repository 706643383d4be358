// Fixture: HashMap/HashSet/RandomState in kernel or model code. Iteration
// order is nondeterministic, which would break bit-identical replay, and
// the default hasher is SipHash on whatever path probes the map. Must trip
// the `no-hash-collections` rule once per name.

use std::collections::{HashMap, HashSet};

pub fn build() -> (HashMap<u32, u32>, HashSet<u32>) {
    (HashMap::new(), HashSet::new())
}

pub fn hasher() -> std::collections::hash_map::RandomState {
    Default::default()
}
