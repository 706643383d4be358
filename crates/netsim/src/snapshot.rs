//! Checkpoint-encoding helpers for model state (DESIGN.md §4.2), and the
//! one hash table the model uses.
//!
//! The [`Snapshot`] encoding must be canonical — equal states, equal bytes
//! — but hash-map iteration order is arbitrary and [`Summary`] keeps its
//! accumulator private. These helpers bridge both: maps are written in
//! sorted key order, summaries through their raw-parts accessors.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use unison_core::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
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

/// Inverse of [`save_map`].
pub(crate) fn load_map<V: Snapshot>(
    r: &mut SnapshotReader<'_>,
) -> Result<FlowMap<V>, SnapshotError> {
    let n = usize::load(r)?;
    let mut out = FlowMap::with_capacity_and_hasher(n.min(1 << 20), Default::default());
    for _ in 0..n {
        let k = FlowId::load(r)?;
        let v = V::load(r)?;
        out.insert(k, v);
    }
    Ok(out)
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

/// Inverse of [`save_summary`].
pub(crate) fn load_summary(r: &mut SnapshotReader<'_>) -> Result<Summary, SnapshotError> {
    Ok(Summary::from_raw_parts(
        u64::load(r)?,
        f64::load(r)?,
        f64::load(r)?,
        f64::load(r)?,
        f64::load(r)?,
        f64::load(r)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_encoding_is_sorted_and_roundtrips() {
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
        let bytes = w.into_bytes();
        // len, then (12-byte key, 8-byte value) for sports 1, 5, 9 in order.
        assert_eq!(&bytes[16..18], &1u16.to_le_bytes());
        assert_eq!(&bytes[36..38], &5u16.to_le_bytes());
        let mut r = SnapshotReader::new(&bytes);
        let out: FlowMap<u64> = load_map(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(out, m);
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

    #[test]
    fn summary_roundtrips_bit_exact() {
        let mut s = Summary::new();
        for x in [3.5, -1.0, 0.25, 1e9] {
            s.add(x);
        }
        let mut w = SnapshotWriter::new();
        save_summary(&s, &mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let out = load_summary(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(out.to_raw_parts(), s.to_raw_parts());
        // Empty summaries keep their infinities.
        let mut w = SnapshotWriter::new();
        save_summary(&Summary::new(), &mut w);
        let bytes = w.into_bytes();
        let out = load_summary(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(out.min(), f64::INFINITY);
        assert_eq!(out.max(), f64::NEG_INFINITY);
    }
}
