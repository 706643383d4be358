//! The canonical state encoding behind every golden digest (DESIGN.md §4.7).
//!
//! A model implements [`Snapshot`] for its node type, usually via the
//! [`snapshot_struct!`](crate::snapshot_struct) macro; a digest over every
//! node's encoding (`unison_netsim::world_digest`) then pins a run's final
//! state bit for bit. The format is hand-rolled little-endian binary with no
//! external dependencies. It is write-only: nothing decodes it, so it needs
//! no version, framing or validation, and the writer hashes each byte as it
//! is written instead of keeping it.

use std::collections::{BTreeMap, VecDeque};

use crate::event::{EventKey, LpId, NodeId};
use crate::rng::Rng;
use crate::time::{DataRate, Time};

/// FNV-1a-64 offset basis: the state before any byte.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a-64 prime.
const FNV_PRIME: u64 = 0x100_0000_01B3;

/// The sink of [`Snapshot::save`]: an FNV-1a-64 hash of the little-endian
/// bytes written to it. Nothing decodes an encoding, so nothing keeps one;
/// [`finish`](Self::finish) is the digest of every byte written so far.
pub struct SnapshotWriter {
    state: u64,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotWriter {
    /// Creates a writer that has seen no bytes.
    pub fn new() -> Self {
        SnapshotWriter { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the hash.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        for &v in b {
            self.u8(v);
        }
    }

    /// Folds one byte into the hash.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.state = (self.state ^ v as u64).wrapping_mul(FNV_PRIME);
    }

    /// The FNV-1a-64 hash of every byte written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Binary encoding of simulation state.
///
/// Implementations must be *canonical* (equal states produce equal bytes)
/// and *complete* (every field that is simulation state is written), because
/// a golden digest is a pure function of these bytes: a field left out is a
/// divergence no digest can see. Struct impls destructure `self` first —
/// `let Self { .. } = self;`, as [`snapshot_struct!`](crate::snapshot_struct)
/// does — so a field added later fails the build until it is encoded.
pub trait Snapshot {
    /// Appends this value's canonical encoding to `w`.
    fn save(&self, w: &mut SnapshotWriter);
}

macro_rules! snapshot_le_int {
    ($($t:ty),+) => {$(
        impl Snapshot for $t {
            fn save(&self, w: &mut SnapshotWriter) {
                w.bytes(&self.to_le_bytes());
            }
        }
    )+};
}

snapshot_le_int!(u8, u16, u32, u64, i64);

impl Snapshot for usize {
    fn save(&self, w: &mut SnapshotWriter) {
        (*self as u64).save(w);
    }
}

impl Snapshot for bool {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u8(*self as u8);
    }
}

impl Snapshot for f64 {
    fn save(&self, w: &mut SnapshotWriter) {
        // Bit-exact: NaN payloads and signed zeros are distinct states.
        self.to_bits().save(w);
    }
}

impl Snapshot for String {
    fn save(&self, w: &mut SnapshotWriter) {
        (self.len() as u64).save(w);
        w.bytes(self.as_bytes());
    }
}

impl Snapshot for () {
    fn save(&self, _w: &mut SnapshotWriter) {}
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        (self.len() as u64).save(w);
        for v in self {
            v.save(w);
        }
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        (self.len() as u64).save(w);
        for v in self {
            v.save(w);
        }
    }
}

impl<K: Snapshot + Ord, V: Snapshot> Snapshot for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapshotWriter) {
        (self.len() as u64).save(w);
        // Iteration order is the key order: canonical by construction.
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
        self.1.save(w);
    }
}

impl Snapshot for Time {
    fn save(&self, w: &mut SnapshotWriter) {
        let Time(v) = self;
        v.save(w);
    }
}

impl Snapshot for DataRate {
    fn save(&self, w: &mut SnapshotWriter) {
        let DataRate(v) = self;
        v.save(w);
    }
}

impl Snapshot for NodeId {
    fn save(&self, w: &mut SnapshotWriter) {
        let NodeId(v) = self;
        v.save(w);
    }
}

impl Snapshot for LpId {
    fn save(&self, w: &mut SnapshotWriter) {
        let LpId(v) = self;
        v.save(w);
    }
}

impl Snapshot for EventKey {
    fn save(&self, w: &mut SnapshotWriter) {
        // The parts, not the packed word: 28 bytes whatever the in-memory
        // layout, since golden digests rest on them (DESIGN.md §4.7).
        self.ts.save(w);
        self.sender_ts.save(w);
        self.sender_lp().save(w);
        self.seq().save(w);
    }
}

impl Snapshot for Rng {
    fn save(&self, w: &mut SnapshotWriter) {
        for s in self.state() {
            s.save(w);
        }
    }
}

/// Implements [`Snapshot`] for a struct, field by field, in the listed
/// order. Works with private fields when invoked from the defining module.
/// The list must name every field: the impl destructures `self` with it, so
/// a field missing from the list is a compile error, not a digest blind
/// spot.
///
/// ```
/// use unison_core::snapshot_struct;
///
/// struct Stats {
///     count: u64,
///     mean: f64,
/// }
/// snapshot_struct!(Stats { count, mean });
///
/// let mut w = unison_core::SnapshotWriter::new();
/// unison_core::Snapshot::save(&Stats { count: 3, mean: 0.5 }, &mut w);
/// // The same 16 bytes, `count` then `mean`, written by hand:
/// let mut want = unison_core::SnapshotWriter::new();
/// want.bytes(&3u64.to_le_bytes());
/// want.bytes(&0.5f64.to_bits().to_le_bytes());
/// assert_eq!(w.finish(), want.finish());
/// ```
///
/// ```compile_fail
/// use unison_core::snapshot_struct;
///
/// struct Stats {
///     count: u64,
///     mean: f64,
/// }
/// snapshot_struct!(Stats { count }); // `mean` is not encoded: rejected
/// ```
#[macro_export]
macro_rules! snapshot_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::Snapshot for $ty {
            fn save(&self, w: &mut $crate::SnapshotWriter) {
                let Self { $($field),+ } = self;
                $( $crate::Snapshot::save($field, w); )+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest<T: Snapshot>(v: &T) -> u64 {
        let mut w = SnapshotWriter::new();
        v.save(&mut w);
        w.finish()
    }

    /// The digest of an expected encoding, written byte for byte.
    fn fnv(bytes: &[u8]) -> u64 {
        let mut w = SnapshotWriter::new();
        w.bytes(bytes);
        w.finish()
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
            .collect()
    }

    /// The writer is FNV-1a-64: the published test vectors of the
    /// algorithm, so a changed constant fails here and not only in a golden.
    #[test]
    fn the_writer_is_fnv1a_64() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
        let mut w = SnapshotWriter::new();
        for &b in b"foobar" {
            w.u8(b);
        }
        assert_eq!(w.finish(), fnv(b"foobar"));
    }

    /// An event key encodes as `(ts, sender_ts, sender_lp: u32, seq: u64)`,
    /// 28 bytes, whatever its in-memory packing: the bytes of an LP key and
    /// an external key as the unpacked struct wrote them at commit
    /// `af9c50a`.
    #[test]
    fn event_keys_encode_as_the_parent_struct() {
        let lp = EventKey::new(
            Time(1_000_000_007),
            Time(999_999_000),
            LpId(0xAB_CDEF),
            0xFF_1234_5678,
        );
        assert_eq!(
            digest(&lp),
            fnv(&unhex(
                "07ca9a3b0000000018c69a3b00000000efcdab0078563412ff000000"
            ))
        );
        let external = EventKey::external(Time(42), 7);
        assert_eq!(
            digest(&external),
            fnv(&unhex(
                "2a000000000000000000000000000000ffffffff0700000000000000"
            ))
        );
    }

    #[test]
    fn primitives_are_little_endian_and_length_prefixed() {
        assert_eq!(digest(&0xDEAD_BEEFu32), fnv(&[0xEF, 0xBE, 0xAD, 0xDE]));
        assert_eq!(digest(&-1i64), fnv(&[0xFF; 8]));
        assert_eq!(digest(&true), fnv(&[1]));
        assert_eq!(digest(&Time(42)), digest(&42u64));
        assert_eq!(digest(&None::<u32>), fnv(&[0]));
        assert_eq!(digest(&Some(7u8)), fnv(&[1, 7]));
        let s = [&3u64.to_le_bytes()[..], "hé".as_bytes()].concat();
        assert_eq!(digest(&String::from("hé")), fnv(&s));
        assert_eq!(
            digest(&vec![1u16, 2]),
            fnv(&[2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0])
        );
    }

    #[test]
    fn f64_is_bit_exact() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        assert_eq!(digest(&nan), digest(&0x7FF8_0000_0000_1234u64));
        assert_ne!(digest(&0.0f64), digest(&-0.0f64));
    }

    #[test]
    fn maps_encode_in_key_order_and_deques_front_to_back() {
        let mut a = BTreeMap::new();
        a.insert(3u32, Time(30));
        a.insert(1u32, Time(10));
        let mut b = BTreeMap::new();
        b.insert(1u32, Time(10));
        b.insert(3u32, Time(30));
        assert_eq!(digest(&a), digest(&b));
        let d: VecDeque<u64> = [5u64, 6, 7].into_iter().collect();
        assert_eq!(digest(&d), digest(&vec![5u64, 6, 7]));
    }

    #[test]
    fn rng_encoding_tracks_its_stream_position() {
        let mut rng = Rng::new(99);
        let before = digest(&rng);
        assert_eq!(before, digest(&Rng::new(99)));
        rng.next_u64();
        assert_ne!(digest(&rng), before);
    }

    #[test]
    fn snapshot_struct_encodes_fields_in_listed_order() {
        struct Inner {
            a: u64,
            b: Option<Time>,
        }
        snapshot_struct!(Inner { a, b });
        let got = digest(&Inner {
            a: 9,
            b: Some(Time(3)),
        });
        let mut want = SnapshotWriter::new();
        9u64.save(&mut want);
        Some(Time(3)).save(&mut want);
        assert_eq!(got, want.finish());
    }
}
