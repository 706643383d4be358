//! Snapshot-encoding helpers for model state (DESIGN.md §4.7), and the one
//! hash table the model uses.
//!
//! The [`Snapshot`] encoding must be canonical — equal states, equal bytes
//! — but hash-map iteration order is arbitrary and [`Summary`] keeps its
//! accumulator private. These helpers bridge both: maps are written in
//! sorted key order, summaries through their raw-parts accessors.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use unison_core::{Snapshot, SnapshotWriter};
use unison_stats::Summary;

use crate::packet::FlowId;

/// The socket tables' hasher: one rotate, xor and multiply per key field.
///
/// A [`FlowId`] is 12 bytes the simulation itself generates, probed on
/// every data packet, ACK and RTO, so `RandomState`'s flood protection
/// bought nothing and its SipHash was a tenth of a WAN run. Fixed, so a
/// table's layout repeats from run to run; the encoding never depended on
/// it ([`save_map`] sorts).
#[derive(Default)]
pub struct FlowHasher(u64);

impl Hasher for FlowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    // The multiply leaves its best bits at the top; the table indexes with
    // the bottom ones.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A table keyed by flow: the only keyed collection in the model.
pub type FlowMap<V> = HashMap<FlowId, V, BuildHasherDefault<FlowHasher>>;

/// Writes a map as `len` followed by `(key, value)` pairs in ascending key
/// order (the canonical form; plain iteration order is arbitrary).
pub(crate) fn save_map<V: Snapshot>(m: &FlowMap<V>, w: &mut SnapshotWriter) {
    (m.len() as u64).save(w);
    let mut keys: Vec<&FlowId> = m.keys().collect();
    keys.sort_unstable();
    for k in keys {
        k.save(w);
        m[k].save(w);
    }
}

/// Writes a summary's raw accumulator (bit-exact, including the Welford
/// `m2` term and the `±inf` min/max of an empty summary).
pub(crate) fn save_summary(s: &Summary, w: &mut SnapshotWriter) {
    let (count, mean, m2, min, max, sum) = s.to_raw_parts();
    count.save(w);
    mean.save(w);
    m2.save(w);
    min.save(w);
    max.save(w);
    sum.save(w);
}

/// The digest of `v`'s encoding.
#[cfg(test)]
pub(crate) fn digest(v: &impl Snapshot) -> u64 {
    let mut w = SnapshotWriter::new();
    v.save(&mut w);
    w.finish()
}

/// The digest of an expected encoding given in hex: a test that pins a
/// value's bytes compares it with [`digest`], and a wrong byte fails it.
#[cfg(test)]
pub(crate) fn digest_of_hex(hex: &str) -> u64 {
    let mut w = SnapshotWriter::new();
    for i in (0..hex.len()).step_by(2) {
        w.u8(u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"));
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_encoding_is_sorted() {
        let flow = |sport| FlowId {
            src: 1,
            dst: 2,
            sport,
            dport: 80,
        };
        let mut m = FlowMap::default();
        m.insert(flow(9), 90u64);
        m.insert(flow(1), 10u64);
        m.insert(flow(5), 50u64);
        let mut w = SnapshotWriter::new();
        save_map(&m, &mut w);
        // len, then (12-byte key, 8-byte value) for sports 1, 5, 9 in order.
        let want = concat!(
            "0300000000000000",
            "010000000200000001005000",
            "0a00000000000000",
            "010000000200000005005000",
            "3200000000000000",
            "010000000200000009005000",
            "5a00000000000000",
        );
        assert_eq!(w.finish(), digest_of_hex(want));
    }

    #[test]
    fn flow_hasher_spreads_a_hosts_flows() {
        // What a busy host holds: one source, few destinations, sports
        // counting up. The table indexes with the low bits; 4 096 such keys
        // must not pile into a few of 4 096 buckets.
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<FlowHasher>::default();
        let mut buckets = vec![0u32; 4_096];
        for i in 0..4_096u32 {
            let flow = FlowId {
                src: 17,
                dst: 100 + i % 4,
                sport: 1_000 + (i / 4) as u16,
                dport: 80,
            };
            buckets[build.hash_one(flow) as usize % 4_096] += 1;
        }
        let used = buckets.iter().filter(|&&n| n > 0).count();
        let worst = buckets.iter().max().copied().unwrap_or(0);
        assert!(used > 2_000 && worst <= 8, "used {used}, worst {worst}");
    }
}
