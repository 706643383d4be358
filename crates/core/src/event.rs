//! Events and the deterministic tie-breaking key.
//!
//! A discrete event carries *when* (timestamp), *where* (node) and *what*
//! (model-defined payload). Ordering uses the paper's §5.2 tie-breaking rule
//! so that simultaneous events have a total, reproducible order regardless
//! of how many threads executed the run:
//!
//! 1. smaller timestamp first;
//! 2. then smaller *sender timestamp* (the virtual time at which the event
//!    was scheduled);
//! 3. then smaller sender LP id;
//! 4. then smaller per-LP sequence number.
//!
//! Because sequence numbers are unique per sender LP, the order is total.

use std::fmt;

use crate::time::Time;

/// Identifier of a simulated node (host or switch). Dense, assigned by the
/// [`WorldBuilder`](crate::world::WorldBuilder) in insertion order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a logical process produced by the partitioner.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LpId(pub u32);

impl LpId {
    /// Sentinel LP id used for events scheduled before the simulation starts
    /// (from the world builder) and for the public LP. In an [`EventKey`]
    /// it is the all-ones LP field, above every LP a run can have.
    pub const EXTERNAL: LpId = LpId(u32::MAX);

    /// Returns the id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bits of [`EventKey`]'s packed word that hold the sender LP; the other
/// `64 - LP_BITS` hold the sequence number (DESIGN.md §4.4).
const LP_BITS: u32 = 24;
/// The LP field of [`LpId::EXTERNAL`]: all ones, so external events sort
/// after every LP's at the same `(ts, sender_ts)`.
const EXTERNAL_FIELD: u64 = (1 << LP_BITS) - 1;
/// Most LPs a run may have: ids `0..MAX_LPS` leave the all-ones field to
/// [`LpId::EXTERNAL`]. The kernel's preamble refuses a larger partition.
pub(crate) const MAX_LPS: usize = EXTERNAL_FIELD as usize;
/// Largest sequence number a key carries. A sender that would need the
/// next one panics in [`EventKey::new`] instead of wrapping, which the
/// kernels contain like any handler panic.
pub(crate) const MAX_SEQ: u64 = (1 << (64 - LP_BITS)) - 1;

/// The deterministic total-order key of an event (§5.2 tie-breaking rule).
///
/// 24 bytes: the two timestamps and one word packing `(sender_lp, seq)`,
/// the LP in the high 24 bits and the sequence number in the low 40
/// (DESIGN.md §4.4). Ordering the word as an integer is
/// ordering by LP, then by sequence number, so the derived `Ord` over
/// `(ts, sender_ts, word)` is exactly the rule above.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Execution timestamp.
    pub ts: Time,
    /// Virtual time at which the sender scheduled this event.
    pub sender_ts: Time,
    /// `sender_lp << (64 - LP_BITS) | seq`; read through
    /// [`EventKey::sender_lp`] and [`EventKey::seq`].
    word: u64,
}

impl EventKey {
    /// The key that sorts after every other: a sentinel for "no key".
    pub(crate) const MAX: EventKey = EventKey {
        ts: Time::MAX,
        sender_ts: Time::MAX,
        word: u64::MAX,
    };

    /// The key of an event scheduled at `sender_ts` by `sender_lp`, its
    /// `seq`-th. Sequence numbers are unique and increasing per sender LP.
    ///
    /// # Panics
    ///
    /// If `sender_lp` is neither [`LpId::EXTERNAL`] nor below the LP bound
    /// (2²⁴ − 1 LPs; the kernel refuses a larger partition before the run),
    /// or `seq` is above 2⁴⁰ − 1: the sender has exhausted its sequence
    /// numbers, and a key that wrapped would break the order.
    #[inline]
    pub fn new(ts: Time, sender_ts: Time, sender_lp: LpId, seq: u64) -> Self {
        let lp = if sender_lp == LpId::EXTERNAL {
            EXTERNAL_FIELD
        } else {
            assert!(
                sender_lp.index() < MAX_LPS,
                "LP {} is beyond the {MAX_LPS} LPs an event key can name",
                sender_lp.0
            );
            sender_lp.0 as u64
        };
        assert!(
            seq <= MAX_SEQ,
            "LP {} has scheduled {MAX_SEQ} events, every sequence number an \
             event key can carry",
            sender_lp.0
        );
        EventKey {
            ts,
            sender_ts,
            word: lp << (64 - LP_BITS) | seq,
        }
    }

    /// Key for an event injected before the simulation starts. `seq` must be
    /// unique among all externally injected events.
    pub fn external(ts: Time, seq: u64) -> Self {
        EventKey::new(ts, Time::ZERO, LpId::EXTERNAL, seq)
    }

    /// LP that scheduled this event.
    #[inline]
    pub fn sender_lp(&self) -> LpId {
        match self.word >> (64 - LP_BITS) {
            EXTERNAL_FIELD => LpId::EXTERNAL,
            lp => LpId(lp as u32),
        }
    }

    /// Sequence number, unique and monotonically increasing per sender LP.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.word & MAX_SEQ
    }
}

impl fmt::Debug for EventKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventKey")
            .field("ts", &self.ts)
            .field("sender_ts", &self.sender_ts)
            .field("sender_lp", &self.sender_lp())
            .field("seq", &self.seq())
            .finish()
    }
}

/// A discrete event bound for `node`, carrying a model-defined payload.
#[derive(Debug)]
pub struct Event<P> {
    /// Total-order key (timestamp + tie-break fields).
    pub key: EventKey,
    /// Destination node whose handler will consume the payload.
    pub node: NodeId,
    /// Model-defined message.
    pub payload: P,
}

impl<P> Event<P> {
    /// Execution timestamp shorthand.
    #[inline]
    pub fn ts(&self) -> Time {
        self.key.ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(ts: u64, sender_ts: u64, lp: u32, seq: u64) -> EventKey {
        EventKey::new(Time(ts), Time(sender_ts), LpId(lp), seq)
    }

    /// The tuple the packed key must order like, field for field.
    fn unpacked(k: &EventKey) -> (Time, Time, LpId, u64) {
        (k.ts, k.sender_ts, k.sender_lp(), k.seq())
    }

    #[test]
    fn key_orders_by_ts_first() {
        assert!(key(1, 99, 9, 99) < key(2, 0, 0, 0));
    }

    #[test]
    fn tie_break_sender_ts_then_lp_then_seq() {
        let base = key(5, 3, 2, 7);
        assert!(base < key(5, 4, 2, 7));
        assert!(base < key(5, 3, 3, 7));
        assert!(base < key(5, 3, 2, 8));
        // The LP outranks the sequence number.
        assert!(key(5, 3, 2, MAX_SEQ) < key(5, 3, 3, 0));
    }

    #[test]
    fn external_key_sorts_after_lp_keys_at_same_instant() {
        // EXTERNAL is the all-ones LP field, so among identical
        // (ts, sender_ts) the externally injected event sorts last — stable
        // and documented.
        let lp = key(5, 0, MAX_LPS as u32 - 1, MAX_SEQ);
        let ext = EventKey::external(Time(5), 0);
        assert!(lp < ext);
        assert_eq!(ext.sender_lp(), LpId::EXTERNAL);
        assert_eq!(ext.seq(), 0);
    }

    #[test]
    fn the_parts_read_back_at_both_bounds() {
        for (lp, seq) in [
            (LpId(0), 0),
            (LpId(MAX_LPS as u32 - 1), MAX_SEQ),
            (LpId::EXTERNAL, MAX_SEQ),
            (LpId(7), 1 << 39),
        ] {
            let k = EventKey::new(Time(1), Time(0), lp, seq);
            assert_eq!((k.sender_lp(), k.seq()), (lp, seq));
        }
        assert!(EventKey::MAX > key(u64::MAX, u64::MAX, 0, 0));
        assert!(EventKey::MAX > EventKey::new(Time::MAX, Time::MAX, LpId::EXTERNAL, MAX_SEQ - 1));
    }

    #[test]
    fn the_largest_lp_is_accepted() {
        let k = key(0, 0, MAX_LPS as u32 - 1, 0);
        assert_eq!(k.sender_lp().index(), MAX_LPS - 1);
    }

    #[test]
    #[should_panic(expected = "beyond the 16777215 LPs an event key can name")]
    fn one_lp_past_the_bound_is_refused() {
        key(0, 0, MAX_LPS as u32, 0);
    }

    #[test]
    #[should_panic(expected = "beyond the 16777215 LPs an event key can name")]
    fn an_lp_id_that_would_wrap_the_field_is_refused() {
        // 2^24 + 3 would read back as LP 3 if the field were masked.
        key(0, 0, (1 << 24) + 3, 0);
    }

    #[test]
    fn the_largest_seq_is_accepted() {
        assert_eq!(key(0, 0, 4, MAX_SEQ).seq(), MAX_SEQ);
        assert_eq!(EventKey::external(Time(0), MAX_SEQ).seq(), MAX_SEQ);
    }

    #[test]
    #[should_panic(expected = "LP 4 has scheduled 1099511627775 events")]
    fn one_seq_past_the_bound_is_refused() {
        key(0, 0, 4, MAX_SEQ + 1);
    }

    #[test]
    #[should_panic(expected = "has scheduled 1099511627775 events")]
    fn an_external_seq_past_the_bound_is_refused() {
        EventKey::external(Time(0), MAX_SEQ + 1);
    }

    /// Draws the LP and sequence number from pools that hold both bounds,
    /// `EXTERNAL` and the values next to them, plus a random one.
    fn arb_key() -> impl Strategy<Value = EventKey> {
        (
            0u64..3,
            0u64..3,
            0usize..7,
            0u32..1 << 24,
            0usize..6,
            any::<u64>(),
        )
            .prop_map(|(ts, sts, lp, any_lp, seq, any_seq)| {
                let lp = [
                    LpId(0),
                    LpId(1),
                    LpId(MAX_LPS as u32 - 2),
                    LpId(MAX_LPS as u32 - 1),
                    LpId::EXTERNAL,
                    LpId(any_lp % MAX_LPS as u32),
                    LpId(2),
                ][lp];
                let seq = [0, 1, MAX_SEQ - 1, MAX_SEQ, any_seq & MAX_SEQ, 2][seq];
                EventKey::new(Time(ts), Time(sts), lp, seq)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The packed key sorts exactly like `(ts, sender_ts, sender_lp,
        /// seq)`: pairwise, and as a whole list.
        #[test]
        fn the_packed_key_orders_like_the_tuple(
            keys in proptest::collection::vec(arb_key(), 2..40),
        ) {
            for a in &keys {
                for b in &keys {
                    prop_assert_eq!(a.cmp(b), unpacked(a).cmp(&unpacked(b)), "{:?} vs {:?}", a, b);
                    prop_assert_eq!(a == b, unpacked(a) == unpacked(b));
                }
            }
            let mut by_key = keys.clone();
            by_key.sort();
            let mut by_tuple = keys;
            by_tuple.sort_by_key(unpacked);
            prop_assert_eq!(by_key, by_tuple);
        }
    }
}
