//! TCP senders and receivers: NewReno congestion control and DCTCP.
//!
//! Sockets are pure state machines: they consume protocol events (ACK
//! arrivals, data arrivals, retransmission timeouts) and emit packets into
//! a caller-provided buffer. The surrounding node schedules the actual
//! events and timers, keeping the transport logic independently testable.
//!
//! NewReno implements slow start, congestion avoidance, fast
//! retransmit/recovery with partial-ACK handling, and RFC 6298 RTO
//! estimation. DCTCP layers the ECN-fraction estimator (`alpha`) and the
//! proportional window reduction `cwnd *= 1 - alpha/2` on top.

use unison_core::{snapshot_struct, Snapshot, SnapshotWriter, Time};

use crate::packet::{FlowId, Packet, MSS};

/// Transport flavor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransportKind {
    /// TCP NewReno (loss-based).
    NewReno,
    /// DCTCP (ECN-fraction-based).
    Dctcp,
}

/// Transport configuration shared by all sockets of a simulation.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Flavor.
    pub kind: TransportKind,
    /// Initial congestion window in segments.
    pub init_cwnd: u32,
    /// Lower bound on the retransmission timeout.
    pub min_rto: Time,
    /// RTO before the first valid RTT sample. Karn's rule never samples
    /// retransmitted segments, so a flow that loses its whole first
    /// window recovers at this timeout — a DCN profile wants it far below
    /// the RFC 6298 conservative default.
    pub initial_rto: Time,
    /// DCTCP's EWMA gain g.
    pub dctcp_g: f64,
    /// RFC 3042 limited transmit: send one new segment on each of the
    /// first two duplicate ACKs (helps recovery at small windows).
    pub limited_transmit: bool,
}

impl TcpConfig {
    /// NewReno with ns-3-like defaults (200 ms minimum RTO).
    pub fn newreno() -> Self {
        TcpConfig {
            kind: TransportKind::NewReno,
            init_cwnd: 10,
            min_rto: Time::from_millis(200),
            initial_rto: Time::from_millis(200),
            dctcp_g: 1.0 / 16.0,
            limited_transmit: true,
        }
    }

    /// A datacenter-tuned variant (1 ms minimum RTO), for scenarios that
    /// model modern DCN stacks rather than ns-3 defaults.
    pub fn newreno_dcn() -> Self {
        TcpConfig {
            min_rto: Time::from_millis(1),
            initial_rto: Time::from_millis(10),
            ..Self::newreno()
        }
    }

    /// DCTCP defaults.
    pub fn dctcp() -> Self {
        TcpConfig {
            kind: TransportKind::Dctcp,
            ..Self::newreno()
        }
    }
}

/// Congestion-control state.
#[derive(Clone, Copy, PartialEq, Debug)]
enum CcState {
    /// Slow start / congestion avoidance.
    Open,
    /// NewReno fast recovery until `recover` is cumulatively ACKed.
    FastRecovery {
        /// snd_nxt at loss detection.
        recover: u64,
    },
}

/// What the caller must do after feeding an event to a sender.
#[derive(Clone, Copy, Debug, Default)]
pub struct SenderUpdate {
    /// A valid RTT sample (non-retransmitted segment), if any.
    pub rtt_sample: Option<Time>,
    /// (Re-)arm the RTO timer for `rto()` from now (a new generation).
    pub rearm_rto: bool,
    /// All data has been cumulatively acknowledged.
    pub completed: bool,
}

/// A TCP sender for one finite flow.
#[derive(Debug)]
pub struct TcpSender {
    /// Flow identity (forward direction).
    pub flow: FlowId,
    /// Total bytes to deliver.
    pub size: u64,
    cfg: TcpConfig,
    cwnd: f64,
    ssthresh: f64,
    snd_nxt: u64,
    snd_una: u64,
    dup_acks: u32,
    state: CcState,
    srtt_ns: f64,
    rttvar_ns: f64,
    rto: Time,
    /// Timer generation: stale RTO events are ignored.
    pub rto_gen: u64,
    // DCTCP estimator.
    alpha: f64,
    ce_bytes: u64,
    acked_bytes: u64,
    window_end: u64,
    /// Statistics: segments retransmitted.
    pub retransmits: u64,
    /// RTO deadline managed by the owning node (lazy timer scheme: a
    /// timer event that fires before the deadline is re-scheduled instead
    /// of acting).
    pub rto_deadline: Time,
    /// Whether a timer event is currently outstanding.
    pub timer_pending: bool,
    /// Virtual fire time of the tracked outstanding timer event. RTO
    /// estimates can *shrink* (the first RTT sample replaces the
    /// conservative initial RTO), moving the deadline earlier than an
    /// already-scheduled event; the owning node then schedules a new,
    /// earlier event and this field tracks it. Events arriving before
    /// `timer_at` are superseded and ignored.
    pub timer_at: Time,
    /// Set when the flow completed (all bytes ACKed).
    pub completed_at: Option<Time>,
    /// Time the first segment was sent.
    pub first_sent: Option<Time>,
}

impl TcpSender {
    /// Creates a sender for `size` bytes on `flow`.
    pub fn new(flow: FlowId, size: u64, cfg: TcpConfig) -> Self {
        TcpSender {
            flow,
            size,
            cfg,
            cwnd: (cfg.init_cwnd * MSS) as f64,
            ssthresh: f64::INFINITY,
            snd_nxt: 0,
            snd_una: 0,
            dup_acks: 0,
            state: CcState::Open,
            srtt_ns: 0.0,
            rttvar_ns: 0.0,
            rto: cfg.initial_rto.max(cfg.min_rto),
            rto_gen: 0,
            alpha: 0.0,
            ce_bytes: 0,
            acked_bytes: 0,
            window_end: 0,
            retransmits: 0,
            rto_deadline: Time::MAX,
            timer_pending: false,
            timer_at: Time::MAX,
            completed_at: None,
            first_sent: None,
        }
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current DCTCP alpha (0 for NewReno).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> Time {
        self.rto
    }

    /// Whether all data is ACKed.
    pub fn is_complete(&self) -> bool {
        self.snd_una >= self.size
    }

    /// Bytes in flight.
    fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// The sequence-space invariant `snd_una ≤ snd_nxt ≤ size`, checked in
    /// debug builds after every transition that moves either pointer
    /// (`transmit`, `on_ack`, `on_rto`).
    #[inline]
    fn debug_check_seq(&self) {
        debug_assert!(
            self.snd_una <= self.snd_nxt && self.snd_nxt <= self.size,
            "flow {:?}: snd_una {} snd_nxt {} size {}",
            self.flow,
            self.snd_una,
            self.snd_nxt,
            self.size
        );
    }

    fn ecn_capable(&self) -> bool {
        self.cfg.kind == TransportKind::Dctcp
    }

    /// Opens the flow: transmit the initial window. Returns true if the RTO
    /// timer must be armed.
    pub fn start(&mut self, now: Time, out: &mut Vec<Packet>) -> bool {
        self.first_sent = Some(now);
        self.transmit(now, out);
        !out.is_empty()
    }

    /// Fills the congestion window with new segments.
    fn transmit(&mut self, now: Time, out: &mut Vec<Packet>) {
        while self.snd_nxt < self.size && self.flight() + MSS as u64 / 2 < self.cwnd as u64 {
            let len = MSS.min((self.size - self.snd_nxt) as u32);
            out.push(Packet::data(
                self.flow,
                self.snd_nxt,
                len,
                self.size,
                false,
                self.ecn_capable(),
                now,
            ));
            self.snd_nxt += len as u64;
            if len < MSS {
                break;
            }
        }
        self.debug_check_seq();
    }

    /// Retransmits the first unacknowledged segment.
    fn retransmit_head(&mut self, now: Time, out: &mut Vec<Packet>) {
        let len = MSS.min((self.size - self.snd_una) as u32);
        out.push(Packet::data(
            self.flow,
            self.snd_una,
            len,
            self.size,
            true,
            self.ecn_capable(),
            now,
        ));
        self.retransmits += 1;
    }

    /// Updates the RFC 6298 estimator with one sample.
    fn update_rtt(&mut self, sample: Time) {
        let r = sample.as_nanos() as f64;
        if self.srtt_ns == 0.0 {
            self.srtt_ns = r;
            self.rttvar_ns = r / 2.0;
        } else {
            self.rttvar_ns = 0.75 * self.rttvar_ns + 0.25 * (self.srtt_ns - r).abs();
            self.srtt_ns = 0.875 * self.srtt_ns + 0.125 * r;
        }
        let rto_ns = self.srtt_ns + (4.0 * self.rttvar_ns).max(1.0);
        self.rto = Time::from_nanos(rto_ns as u64).max(self.cfg.min_rto);
    }

    /// DCTCP per-window bookkeeping; returns the window-boundary reduction
    /// factor when a window just ended.
    fn dctcp_on_ack(&mut self, acked: u64, ece: bool) {
        if self.cfg.kind != TransportKind::Dctcp {
            return;
        }
        self.acked_bytes += acked;
        if ece {
            self.ce_bytes += acked;
        }
        if self.snd_una >= self.window_end {
            if self.acked_bytes > 0 {
                let f = self.ce_bytes as f64 / self.acked_bytes as f64;
                self.alpha = (1.0 - self.cfg.dctcp_g) * self.alpha + self.cfg.dctcp_g * f;
                if self.ce_bytes > 0 {
                    self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max((2 * MSS) as f64);
                    self.ssthresh = self.cwnd;
                }
            }
            self.ce_bytes = 0;
            self.acked_bytes = 0;
            self.window_end = self.snd_nxt;
        }
    }

    /// Handles a cumulative ACK.
    pub fn on_ack(
        &mut self,
        ack: u64,
        ece: bool,
        echo_ts: Time,
        echo_retx: bool,
        now: Time,
        out: &mut Vec<Packet>,
    ) -> SenderUpdate {
        let mut up = SenderUpdate::default();
        if self.completed_at.is_some() {
            return up;
        }
        if ack > self.snd_una {
            let acked = ack - self.snd_una;
            self.snd_una = ack;
            // After an RTO rewound snd_nxt (go-back-N), a late ACK for
            // pre-timeout data can acknowledge past it; keep the invariant
            // snd_nxt >= snd_una so flight() never underflows.
            self.snd_nxt = self.snd_nxt.max(ack);
            self.dup_acks = 0;
            if !echo_retx {
                let sample = now.saturating_sub(echo_ts);
                self.update_rtt(sample);
                up.rtt_sample = Some(sample);
            }
            match self.state {
                CcState::Open => {
                    if self.cwnd < self.ssthresh {
                        // Slow start: one MSS per MSS acked.
                        self.cwnd += acked.min(MSS as u64) as f64;
                    } else {
                        // Congestion avoidance.
                        self.cwnd += (MSS as f64 * MSS as f64) / self.cwnd;
                    }
                }
                CcState::FastRecovery { recover } => {
                    if ack >= recover {
                        // Full ACK: leave recovery.
                        self.cwnd = self.ssthresh.max((2 * MSS) as f64);
                        self.state = CcState::Open;
                    } else {
                        // Partial ACK: retransmit next hole, deflate.
                        self.retransmit_head(now, out);
                        self.cwnd = (self.cwnd - acked as f64 + MSS as f64).max((2 * MSS) as f64);
                    }
                }
            }
            self.dctcp_on_ack(acked, ece);
            up.rearm_rto = true;
            self.rto_gen += 1;
            if self.is_complete() {
                self.completed_at = Some(now);
                up.completed = true;
                up.rearm_rto = false;
                self.debug_check_seq();
                return up;
            }
        } else if self.flight() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.cfg.limited_transmit
                && self.dup_acks <= 2
                && matches!(self.state, CcState::Open)
                && self.snd_nxt < self.size
            {
                // RFC 3042: one new segment per early duplicate ACK,
                // without inflating cwnd.
                let len = MSS.min((self.size - self.snd_nxt) as u32);
                out.push(Packet::data(
                    self.flow,
                    self.snd_nxt,
                    len,
                    self.size,
                    false,
                    self.ecn_capable(),
                    now,
                ));
                self.snd_nxt += len as u64;
            }
            match self.state {
                CcState::Open if self.dup_acks == 3 => {
                    self.ssthresh = (self.flight() as f64 / 2.0).max((2 * MSS) as f64);
                    self.cwnd = self.ssthresh + (3 * MSS) as f64;
                    self.state = CcState::FastRecovery {
                        recover: self.snd_nxt,
                    };
                    self.retransmit_head(now, out);
                }
                CcState::FastRecovery { .. } => {
                    // Window inflation.
                    self.cwnd += MSS as f64;
                }
                CcState::Open => {}
            }
        }
        self.transmit(now, out);
        up
    }

    /// Handles a retransmission timeout of generation `gen`.
    pub fn on_rto(&mut self, gen: u64, now: Time, out: &mut Vec<Packet>) -> bool {
        if gen != self.rto_gen || self.completed_at.is_some() || self.flight() == 0 {
            return false;
        }
        self.ssthresh = (self.flight() as f64 / 2.0).max((2 * MSS) as f64);
        self.cwnd = MSS as f64;
        self.state = CcState::Open;
        self.dup_acks = 0;
        // Go-back-N: rewind and retransmit the head.
        self.snd_nxt = self.snd_una;
        self.retransmit_head(now, out);
        self.snd_nxt = self.snd_una
            + out.last().map_or(0, |p| match p.kind {
                crate::packet::PacketKind::Data { len, .. } => len as u64,
                _ => 0,
            });
        // Exponential backoff.
        self.rto =
            Time::from_nanos((self.rto.as_nanos()).saturating_mul(2)).min(Time::from_secs(60));
        self.rto_gen += 1;
        self.debug_check_seq();
        true
    }
}

impl Snapshot for TransportKind {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u8(match self {
            TransportKind::NewReno => 0,
            TransportKind::Dctcp => 1,
        });
    }
}

snapshot_struct!(TcpConfig {
    kind,
    init_cwnd,
    min_rto,
    initial_rto,
    dctcp_g,
    limited_transmit
});

impl Snapshot for CcState {
    fn save(&self, w: &mut SnapshotWriter) {
        match *self {
            CcState::Open => w.u8(0),
            CcState::FastRecovery { recover } => {
                w.u8(1);
                recover.save(w);
            }
        }
    }
}

snapshot_struct!(TcpSender {
    flow,
    size,
    cfg,
    cwnd,
    ssthresh,
    snd_nxt,
    snd_una,
    dup_acks,
    state,
    srtt_ns,
    rttvar_ns,
    rto,
    rto_gen,
    alpha,
    ce_bytes,
    acked_bytes,
    window_end,
    retransmits,
    rto_deadline,
    timer_pending,
    timer_at,
    completed_at,
    first_sent
});

snapshot_struct!(TcpReceiver {
    flow,
    size,
    rcv_nxt,
    ooo,
    bytes_rx,
    first_rx,
    completed_at
});

/// What the receiver wants sent back after a data arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckInfo {
    /// Cumulative next expected byte.
    pub ack: u64,
    /// Echo of the data packet's CE mark.
    pub ece: bool,
    /// Echo of the data packet's send timestamp.
    pub echo_ts: Time,
    /// Echo of the retransmission flag.
    pub echo_retx: bool,
}

/// A TCP receiver for one finite flow.
#[derive(Debug)]
pub struct TcpReceiver {
    /// Flow identity (forward direction).
    pub flow: FlowId,
    /// Expected flow size.
    pub size: u64,
    rcv_nxt: u64,
    ooo: SegmentRuns,
    /// Payload bytes received (including duplicates).
    pub bytes_rx: u64,
    /// First data arrival.
    pub first_rx: Option<Time>,
    /// Completion time (all bytes in order).
    pub completed_at: Option<Time>,
}

impl TcpReceiver {
    /// Creates a receiver expecting `size` bytes.
    pub fn new(flow: FlowId, size: u64) -> Self {
        TcpReceiver {
            flow,
            size,
            rcv_nxt: 0,
            ooo: SegmentRuns::default(),
            bytes_rx: 0,
            first_rx: None,
            completed_at: None,
        }
    }

    /// Next expected byte.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Handles one data segment; returns the ACK to send.
    pub fn on_data(
        &mut self,
        seq: u64,
        len: u32,
        ce: bool,
        sent_at: Time,
        retx: bool,
        now: Time,
    ) -> AckInfo {
        self.first_rx.get_or_insert(now);
        self.bytes_rx += len as u64;
        let end = seq + len as u64;
        if end > self.rcv_nxt {
            if seq <= self.rcv_nxt {
                self.rcv_nxt = self.ooo.drain_to(end);
            } else {
                self.ooo.insert(seq, len);
            }
        }
        if self.completed_at.is_none() && self.rcv_nxt >= self.size {
            self.completed_at = Some(now);
        }
        AckInfo {
            ack: self.rcv_nxt,
            ece: ce,
            echo_ts: sent_at,
            echo_retx: retx,
        }
    }
}

/// A receiver's out-of-order data: the entries of a map from segment start
/// to the longest length that arrived there, kept as runs of back-to-back
/// segments of one length.
///
/// A sender cuts a flow into segments `[k·MSS, min((k+1)·MSS, size))` and
/// retransmits along the same cuts, so the segments buffered behind one
/// hole are consecutive: one run `(start, len, count)` stands for the
/// entries `start + i·len ↦ len`, `i < count`, and a receiver holds one
/// 16-byte run per hole where a `BTreeMap<u64, u32>` held a B-tree node per
/// eleven segments. Any other `(seq, len)` keeps the map's semantics: a new
/// key is inserted, a present one keeps the larger length, and a run is
/// split where a key lands on or between its entries. The encoding is the
/// map's, entry by entry.
#[derive(Debug, Default)]
struct SegmentRuns {
    /// Ordered by key: every entry of a run lies below the next run's.
    runs: Vec<Run>,
}

/// `count ≥ 1` entries `start + i·len ↦ len`; a zero `len` has `count == 1`.
#[derive(Clone, Copy, Debug)]
struct Run {
    start: u64,
    len: u32,
    count: u32,
}

impl Run {
    /// The key of entry `i`; `key(count)` is where the last entry ends.
    fn key(&self, i: u32) -> u64 {
        self.start + u64::from(i) * u64::from(self.len)
    }

    /// `self` followed by `next` as one run, when `next` starts where
    /// `self` ends with entries of the same length. (Two zero-length runs
    /// never qualify: they would share their key, and a key already in a
    /// run never reaches a join.)
    fn joined(&self, next: &Run) -> Option<Run> {
        let count = self.count.checked_add(next.count)?;
        (self.len == next.len && self.key(self.count) == next.start)
            .then_some(Run { count, ..*self })
    }
}

impl SegmentRuns {
    /// Inserts the entry `seq ↦ len`, or raises the entry at `seq` to `len`.
    fn insert(&mut self, seq: u64, len: u32) {
        let at = self.runs.partition_point(|r| r.key(r.count - 1) < seq);
        let new = Run {
            start: seq,
            len,
            count: 1,
        };
        match self.runs.get(at).copied() {
            Some(r) if r.start <= seq => {
                // `seq` is one of r's keys, or lies between two of them.
                let off = seq - r.start;
                let (i, on_entry) = match u64::from(r.len) {
                    0 => (0, true),
                    l => ((off / l) as u32, off.is_multiple_of(l)),
                };
                if on_entry && len <= r.len {
                    return;
                }
                let before = Run {
                    count: if on_entry { i } else { i + 1 },
                    ..r
                };
                let after = Run {
                    start: r.key(i + 1),
                    count: r.count - i - 1,
                    ..r
                };
                let pieces = [before, new, after];
                self.runs
                    .splice(at..=at, pieces.into_iter().filter(|p| p.count > 0));
            }
            next => {
                // A new key between runs `at - 1` and `at`: it extends the
                // one, the other or bridges both when it fits back to back.
                let with_prev = at.checked_sub(1).and_then(|p| self.runs[p].joined(&new));
                let with_next = next.and_then(|n| with_prev.unwrap_or(new).joined(&n));
                match (with_prev, with_next) {
                    (Some(_), Some(bridge)) => {
                        self.runs[at - 1] = bridge;
                        self.runs.remove(at);
                    }
                    (Some(p), None) => self.runs[at - 1] = p,
                    (None, Some(n)) => self.runs[at] = n,
                    (None, None) => self.runs.insert(at, new),
                }
            }
        }
    }

    /// Delivers every entry that `rcv_nxt` reaches, in key order, and
    /// returns the next expected byte after them. A run's entries are back
    /// to back, so a run whose first entry is reached is delivered whole.
    fn drain_to(&mut self, mut rcv_nxt: u64) -> u64 {
        let mut reached = 0;
        for r in &self.runs {
            if r.start > rcv_nxt {
                break;
            }
            rcv_nxt = rcv_nxt.max(r.key(r.count));
            reached += 1;
        }
        self.runs.drain(..reached);
        rcv_nxt
    }
}

impl Snapshot for SegmentRuns {
    /// The encoding of the `BTreeMap<u64, u32>` the runs stand for: the
    /// entry count, then every `(seq, len)` in key order.
    fn save(&self, w: &mut SnapshotWriter) {
        let entries: u64 = self.runs.iter().map(|r| u64::from(r.count)).sum();
        entries.save(w);
        for r in &self.runs {
            for i in 0..r.count {
                r.key(i).save(w);
                r.len.save(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    fn flow() -> FlowId {
        FlowId {
            src: 0,
            dst: 1,
            sport: 1,
            dport: 80,
        }
    }

    fn seg_bounds(p: &Packet) -> (u64, u32, bool) {
        match p.kind {
            PacketKind::Data { seq, len, retx, .. } => (seq, len, retx),
            _ => panic!("expected data"),
        }
    }

    #[test]
    fn initial_window_is_init_cwnd() {
        let mut s = TcpSender::new(flow(), 1_000_000, TcpConfig::newreno());
        let mut out = Vec::new();
        assert!(s.start(Time::ZERO, &mut out));
        assert_eq!(out.len(), 10);
        let (seq0, len0, retx0) = seg_bounds(&out[0]);
        assert_eq!((seq0, len0, retx0), (0, MSS, false));
    }

    #[test]
    fn small_flow_sends_partial_segment() {
        let mut s = TcpSender::new(flow(), 500, TcpConfig::newreno());
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(seg_bounds(&out[0]).1, 500);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = TcpSender::new(flow(), 10_000_000, TcpConfig::newreno());
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        let initial = s.cwnd();
        // ACK the whole initial window segment by segment.
        let mut acked = 0;
        let n = out.len();
        out.clear();
        for _ in 0..n {
            acked += MSS as u64;
            s.on_ack(acked, false, Time::ZERO, false, Time(100_000), &mut out);
        }
        assert!(
            s.cwnd() >= initial * 2 - MSS as u64,
            "cwnd {} after window, initial {initial}",
            s.cwnd()
        );
    }

    #[test]
    fn limited_transmit_sends_new_data_on_early_dupacks() {
        let mut s = TcpSender::new(flow(), 10_000_000, TcpConfig::newreno());
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        let highest = out.iter().map(|p| seg_bounds(p).0).max().unwrap();
        out.clear();
        s.on_ack(0, false, Time::ZERO, false, Time(1000), &mut out);
        assert_eq!(out.len(), 1, "one new segment per early dupack");
        let (seq, _, retx) = seg_bounds(&out[0]);
        assert!(!retx);
        assert!(seq > highest, "limited transmit sends NEW data");
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut s = TcpSender::new(flow(), 10_000_000, TcpConfig::newreno());
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        out.clear();
        for _ in 0..2 {
            s.on_ack(0, false, Time::ZERO, false, Time(1000), &mut out);
            assert!(out.iter().all(|p| !seg_bounds(p).2), "no retx yet");
        }
        out.clear();
        s.on_ack(0, false, Time::ZERO, false, Time(1000), &mut out);
        let retx: Vec<_> = out.iter().filter(|p| seg_bounds(p).2).collect();
        assert_eq!(retx.len(), 1);
        assert_eq!(seg_bounds(retx[0]).0, 0);
        assert_eq!(s.retransmits, 1);
    }

    #[test]
    fn rto_rewinds_and_backs_off() {
        let mut s = TcpSender::new(flow(), 1_000_000, TcpConfig::newreno());
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        out.clear();
        let gen = s.rto_gen;
        let rto_before = s.rto();
        assert!(s.on_rto(gen, Time(1_000_000), &mut out));
        assert_eq!(out.len(), 1);
        assert!(seg_bounds(&out[0]).2);
        assert_eq!(s.cwnd(), MSS as u64);
        assert!(s.rto() >= rto_before);
        // Stale generation is ignored.
        assert!(!s.on_rto(gen, Time(2_000_000), &mut out));
    }

    #[test]
    fn completion_reported_once() {
        let mut s = TcpSender::new(flow(), 1_000, TcpConfig::newreno());
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        let up = s.on_ack(1_000, false, Time::ZERO, false, Time(500), &mut out);
        assert!(up.completed);
        assert!(s.is_complete());
        assert_eq!(s.completed_at, Some(Time(500)));
        let up2 = s.on_ack(1_000, false, Time::ZERO, false, Time(900), &mut out);
        assert!(!up2.completed);
    }

    #[test]
    fn rtt_estimator_tracks_sample() {
        let mut s = TcpSender::new(flow(), 10_000_000, TcpConfig::newreno_dcn());
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        out.clear();
        let up = s.on_ack(MSS as u64, false, Time(0), false, Time(2_000_000), &mut out);
        assert_eq!(up.rtt_sample, Some(Time(2_000_000)));
        // RTO = srtt + 4*rttvar = 2ms + 4ms = 6ms.
        assert_eq!(s.rto(), Time::from_millis(6));
    }

    #[test]
    fn karn_rule_skips_retransmitted_samples() {
        let mut s = TcpSender::new(flow(), 10_000_000, TcpConfig::newreno());
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        out.clear();
        let up = s.on_ack(MSS as u64, false, Time(0), true, Time(2_000_000), &mut out);
        assert_eq!(up.rtt_sample, None);
    }

    #[test]
    fn dctcp_alpha_rises_under_marking_and_shrinks_cwnd() {
        let mut s = TcpSender::new(flow(), 100_000_000, TcpConfig::dctcp());
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        out.clear();
        let mut acked = 0u64;
        let mut now = 0u64;
        // Several fully-marked windows: alpha -> 1, cwnd shrinks.
        let before = s.cwnd();
        for _ in 0..200 {
            acked += MSS as u64;
            now += 10_000;
            s.on_ack(acked, true, Time(now - 5_000), false, Time(now), &mut out);
            out.clear();
        }
        assert!(s.alpha() > 0.5, "alpha {}", s.alpha());
        assert!(s.cwnd() < before, "cwnd should shrink under marks");
        // Unmarked windows: alpha decays.
        let alpha_high = s.alpha();
        for _ in 0..200 {
            acked += MSS as u64;
            now += 10_000;
            s.on_ack(acked, false, Time(now - 5_000), false, Time(now), &mut out);
            out.clear();
        }
        assert!(s.alpha() < alpha_high / 4.0, "alpha should decay");
    }

    #[test]
    fn newreno_ignores_ece() {
        let mut s = TcpSender::new(flow(), 10_000_000, TcpConfig::newreno());
        let mut out = Vec::new();
        s.start(Time::ZERO, &mut out);
        out.clear();
        s.on_ack(MSS as u64, true, Time(0), false, Time(1000), &mut out);
        assert_eq!(s.alpha(), 0.0);
    }

    #[test]
    fn receiver_in_order_delivery() {
        let mut r = TcpReceiver::new(flow(), 3 * MSS as u64);
        let a1 = r.on_data(0, MSS, false, Time(0), false, Time(10));
        assert_eq!(a1.ack, MSS as u64);
        let a2 = r.on_data(MSS as u64, MSS, false, Time(1), false, Time(20));
        assert_eq!(a2.ack, 2 * MSS as u64);
        assert!(r.completed_at.is_none());
        let a3 = r.on_data(2 * MSS as u64, MSS, false, Time(2), false, Time(30));
        assert_eq!(a3.ack, 3 * MSS as u64);
        assert_eq!(r.completed_at, Some(Time(30)));
    }

    #[test]
    fn receiver_reorders_and_dupacks() {
        let mut r = TcpReceiver::new(flow(), 3 * MSS as u64);
        // Segment 1 missing: segment 2 arrives first.
        let a = r.on_data(MSS as u64, MSS, false, Time(0), false, Time(10));
        assert_eq!(a.ack, 0, "dup ack for the hole");
        let a = r.on_data(2 * MSS as u64, MSS, false, Time(0), false, Time(11));
        assert_eq!(a.ack, 0);
        // The hole fills: cumulative ACK jumps over the buffered segments.
        let a = r.on_data(0, MSS, false, Time(0), false, Time(12));
        assert_eq!(a.ack, 3 * MSS as u64);
        assert_eq!(r.completed_at, Some(Time(12)));
    }

    #[test]
    fn receiver_echoes_ce_and_timestamps() {
        let mut r = TcpReceiver::new(flow(), 10_000);
        let a = r.on_data(0, 1000, true, Time(77), true, Time(100));
        assert!(a.ece);
        assert_eq!(a.echo_ts, Time(77));
        assert!(a.echo_retx);
    }

    #[test]
    fn duplicate_data_does_not_regress() {
        let mut r = TcpReceiver::new(flow(), 10_000);
        r.on_data(0, 1000, false, Time(0), false, Time(1));
        let a = r.on_data(0, 1000, false, Time(0), true, Time(2));
        assert_eq!(a.ack, 1000);
        assert_eq!(r.rcv_nxt(), 1000);
    }
}
