//! The canonical state encoding behind every golden digest (DESIGN.md §4.7).
//!
//! A model implements [`Snapshot`] for its node type, usually via the
//! [`snapshot_struct!`](crate::snapshot_struct) macro; a digest over every
//! node's encoding (`unison_netsim::world_digest`) then pins a run's final
//! state bit for bit. The format is hand-rolled little-endian binary with no
//! external dependencies. It is write-only: nothing decodes it, so it needs
//! no version, framing or validation.

use std::collections::{BTreeMap, VecDeque};

use crate::event::{EventKey, LpId, NodeId};
use crate::rng::Rng;
use crate::time::{DataRate, Time};

/// Append-only little-endian byte sink for [`Snapshot::save`].
#[derive(Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapshotWriter { buf: Vec::new() }
    }

    /// Appends raw bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Removes and yields the bytes written so far, keeping the buffer's
    /// capacity for the next encoding: a digest that hashes one value's
    /// encoding at a time holds the largest of them, not their sum.
    pub fn drain(&mut self) -> std::vec::Drain<'_, u8> {
        self.buf.drain(..)
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
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
/// assert_eq!(w.len(), 16);
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

    fn encode<T: Snapshot>(v: &T) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        v.save(&mut w);
        w.into_bytes()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
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
            hex(&encode(&lp)),
            "07ca9a3b0000000018c69a3b00000000efcdab0078563412ff000000"
        );
        let external = EventKey::external(Time(42), 7);
        assert_eq!(
            hex(&encode(&external)),
            "2a000000000000000000000000000000ffffffff0700000000000000"
        );
    }

    #[test]
    fn primitives_are_little_endian_and_length_prefixed() {
        assert_eq!(encode(&0xDEAD_BEEFu32), [0xEF, 0xBE, 0xAD, 0xDE]);
        assert_eq!(encode(&-1i64), [0xFF; 8]);
        assert_eq!(encode(&true), [1]);
        assert_eq!(encode(&Time(42)), encode(&42u64));
        assert_eq!(encode(&None::<u32>), [0]);
        assert_eq!(encode(&Some(7u8)), [1, 7]);
        let s = encode(&String::from("hé"));
        assert_eq!(&s[..8], &3u64.to_le_bytes());
        assert_eq!(&s[8..], "hé".as_bytes());
        let v = encode(&vec![1u16, 2]);
        assert_eq!(v, [2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0]);
    }

    #[test]
    fn f64_is_bit_exact() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        assert_eq!(encode(&nan), encode(&0x7FF8_0000_0000_1234u64));
        assert_ne!(encode(&0.0f64), encode(&-0.0f64));
    }

    #[test]
    fn maps_encode_in_key_order_and_deques_front_to_back() {
        let mut a = BTreeMap::new();
        a.insert(3u32, Time(30));
        a.insert(1u32, Time(10));
        let mut b = BTreeMap::new();
        b.insert(1u32, Time(10));
        b.insert(3u32, Time(30));
        assert_eq!(encode(&a), encode(&b));
        let d: VecDeque<u64> = [5u64, 6, 7].into_iter().collect();
        assert_eq!(encode(&d), encode(&vec![5u64, 6, 7]));
    }

    #[test]
    fn rng_encoding_tracks_its_stream_position() {
        let mut rng = Rng::new(99);
        let before = encode(&rng);
        assert_eq!(before, encode(&Rng::new(99)));
        rng.next_u64();
        assert_ne!(encode(&rng), before);
    }

    #[test]
    fn snapshot_struct_encodes_fields_in_listed_order() {
        struct Inner {
            a: u64,
            b: Option<Time>,
        }
        snapshot_struct!(Inner { a, b });
        let bytes = encode(&Inner {
            a: 9,
            b: Some(Time(3)),
        });
        let mut want = encode(&9u64);
        want.extend(encode(&Some(Time(3))));
        assert_eq!(bytes, want);
    }
}
