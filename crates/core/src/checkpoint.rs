//! Deterministic checkpoint/restore (DESIGN.md §4.2).
//!
//! A checkpoint captures the complete simulation state at a virtual-time
//! boundary: every node's model state, every pending event *with its
//! original tie-break key*, the per-LP sequence counters, the external
//! sequence counter, the link graph (including tombstoned links) and the
//! node → LP assignment. Restoring that image and re-running yields an
//! event trace bit-identical to the uninterrupted run — at any worker
//! thread count — because event keys (§5.2) totally order execution and
//! every key source is part of the image.
//!
//! Checkpoints are taken by a self-rescheduling global event installed with
//! [`schedule_checkpoints`]; they execute on the public LP of the Unison
//! kernel, where the main thread holds exclusive world access between
//! round phases. The sequential kernel cannot take checkpoints (it keeps
//! its events in a kernel-private list), but a saved image *resumes* under
//! its compat-keys mode as well.
//!
//! Serialization is a hand-rolled little-endian binary format (no external
//! dependencies): models implement [`Snapshot`] for their node and payload
//! types, usually via the [`snapshot_struct!`](crate::snapshot_struct)
//! macro.
//!
//! # Known deviations from a truly seamless resume
//!
//! - The closures of *user* global events cannot be serialized. Resuming is
//!   exact for worlds whose only globals are the stop event and the
//!   checkpoint chain itself; other pending globals are dropped with the
//!   checkpoint and must be re-installed by the caller.
//! - The stop event and the re-installed checkpoint chain receive fresh
//!   external sequence numbers on resume, so an external event scheduled at
//!   *exactly* the same timestamp by a post-resume global could tie-break
//!   differently than in the uninterrupted run. Node-scheduled events are
//!   unaffected.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};

use crate::event::{Event, EventKey, LpId, NodeId};
use crate::global::GlobalFn;
use crate::graph::{LinkGraph, LinkSpec};
use crate::rng::Rng;
use crate::time::{DataRate, Time};
use crate::world::{SimNode, World};

/// Magic bytes + format version at the head of every checkpoint file.
const MAGIC: &[u8; 8] = b"UNISCKPT";
const VERSION: u32 = 1;

/// Errors produced while writing, reading or decoding a checkpoint.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error while writing or reading a checkpoint file.
    Io(std::io::Error),
    /// The byte stream is truncated or structurally invalid.
    Corrupt(String),
    /// Checkpointing was requested in a context that cannot provide it
    /// (e.g. from a kernel without exclusive world access).
    Unsupported(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o: {e}"),
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            SnapshotError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

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

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor over an encoded snapshot for [`Snapshot::load`].
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Wraps an encoded byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader { buf, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(SnapshotError::Corrupt(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ))),
        }
    }

    /// Takes one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Verifies that the stream was fully consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )))
        }
    }
}

/// Binary serialization of simulation state.
///
/// Implementations must be *total* (every reachable value round-trips) and
/// *canonical* (equal states produce equal bytes), because checkpoint
/// determinism rests on the encoded image being a pure function of
/// simulation state. Derive field-by-field implementations for structs with
/// the [`snapshot_struct!`](crate::snapshot_struct) macro.
pub trait Snapshot: Sized {
    /// Appends this value's canonical encoding to `w`.
    fn save(&self, w: &mut SnapshotWriter);
    /// Decodes one value from `r` (the inverse of [`Snapshot::save`]).
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

macro_rules! snapshot_le_int {
    ($($t:ty),+) => {$(
        impl Snapshot for $t {
            fn save(&self, w: &mut SnapshotWriter) {
                w.bytes(&self.to_le_bytes());
            }
            fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                let n = std::mem::size_of::<$t>();
                let b = r.bytes(n)?;
                // INVARIANT: `bytes(n)` returned exactly `n` bytes.
                Ok(<$t>::from_le_bytes(b.try_into().expect("sized slice")))
            }
        }
    )+};
}

snapshot_le_int!(u8, u16, u32, u64, i64);

impl Snapshot for usize {
    fn save(&self, w: &mut SnapshotWriter) {
        (*self as u64).save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let v = u64::load(r)?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("usize overflow: {v}")))
    }
}

impl Snapshot for bool {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u8(*self as u8);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("invalid bool byte {b}"))),
        }
    }
}

impl Snapshot for f64 {
    fn save(&self, w: &mut SnapshotWriter) {
        // Bit-exact: the checkpoint must reproduce NaN payloads and signed
        // zeros identically.
        self.to_bits().save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(f64::from_bits(u64::load(r)?))
    }
}

impl Snapshot for String {
    fn save(&self, w: &mut SnapshotWriter) {
        (self.len() as u64).save(w);
        w.bytes(self.as_bytes());
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = usize::load(r)?;
        let b = r.bytes(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| SnapshotError::Corrupt("invalid utf-8 string".into()))
    }
}

impl Snapshot for () {
    fn save(&self, _w: &mut SnapshotWriter) {}
    fn load(_r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(())
    }
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
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            b => Err(SnapshotError::Corrupt(format!("invalid option tag {b}"))),
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
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = usize::load(r)?;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        (self.len() as u64).save(w);
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = usize::load(r)?;
        let mut out = VecDeque::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
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
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = usize::load(r)?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl Snapshot for Time {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Time(u64::load(r)?))
    }
}

impl Snapshot for DataRate {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(DataRate(u64::load(r)?))
    }
}

impl Snapshot for NodeId {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(NodeId(u32::load(r)?))
    }
}

impl Snapshot for LpId {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(LpId(u32::load(r)?))
    }
}

impl Snapshot for EventKey {
    fn save(&self, w: &mut SnapshotWriter) {
        self.ts.save(w);
        self.sender_ts.save(w);
        self.sender_lp.save(w);
        self.seq.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(EventKey {
            ts: Time::load(r)?,
            sender_ts: Time::load(r)?,
            sender_lp: LpId::load(r)?,
            seq: u64::load(r)?,
        })
    }
}

impl Snapshot for Rng {
    fn save(&self, w: &mut SnapshotWriter) {
        for s in self.state() {
            s.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let s = [u64::load(r)?, u64::load(r)?, u64::load(r)?, u64::load(r)?];
        Ok(Rng::from_state(s))
    }
}

/// Implements [`Snapshot`] for a struct, field by field, in declaration
/// order. Works with private fields when invoked from the defining module.
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
/// let bytes = w.into_bytes();
/// let mut r = unison_core::SnapshotReader::new(&bytes);
/// let s: Stats = unison_core::Snapshot::load(&mut r).unwrap();
/// assert_eq!(s.count, 3);
/// ```
#[macro_export]
macro_rules! snapshot_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::checkpoint::Snapshot for $ty {
            fn save(&self, w: &mut $crate::checkpoint::SnapshotWriter) {
                $( $crate::checkpoint::Snapshot::save(&self.$field, w); )+
            }
            fn load(
                r: &mut $crate::checkpoint::SnapshotReader<'_>,
            ) -> ::std::result::Result<Self, $crate::checkpoint::SnapshotError> {
                ::std::result::Result::Ok(Self {
                    $( $field: $crate::checkpoint::Snapshot::load(r)?, )+
                })
            }
        }
    };
}

/// Periodic checkpointing configuration.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Virtual-time interval between checkpoints. The first checkpoint is
    /// taken at this time, the next at twice it, and so on.
    pub every: Time,
    /// Directory receiving `ckpt-<virtual time>.bin` files. Must exist.
    pub dir: PathBuf,
}

impl CheckpointConfig {
    /// Checkpoints every `every` of virtual time into `dir`.
    pub fn new(every: Time, dir: impl Into<PathBuf>) -> Self {
        assert!(every > Time::ZERO, "checkpoint interval must be positive");
        CheckpointConfig {
            every,
            dir: dir.into(),
        }
    }

    /// The file path of the checkpoint taken at virtual time `t`.
    pub fn file_at(&self, t: Time) -> PathBuf {
        self.dir.join(format!("ckpt-{:020}.bin", t.0))
    }
}

/// Installs the self-rescheduling checkpoint chain on a built world: a
/// global event at `cfg.every` writes a checkpoint file and schedules the
/// next one. Requires a kernel that executes global events with full world
/// access (Unison).
pub fn schedule_checkpoints<N>(world: &mut World<N>, cfg: &CheckpointConfig)
where
    N: SimNode + Snapshot,
    N::Payload: Snapshot,
{
    world.add_global_event(cfg.every, chained::<N>(cfg.clone()));
}

/// One link of the checkpoint chain; reschedules itself `every` later.
fn chained<N>(cfg: CheckpointConfig) -> GlobalFn<N>
where
    N: SimNode + Snapshot,
    N::Payload: Snapshot,
{
    Box::new(move |wa| {
        let path = cfg.file_at(wa.now());
        // A failed checkpoint is a contained panic (RunPhase::Global), so
        // the run aborts with a structured SimError instead of silently
        // continuing without its safety net.
        if let Err(e) = wa.write_checkpoint(&path) {
            panic!("checkpoint at t={} failed: {e}", wa.now());
        }
        let next = wa.now().saturating_add(cfg.every);
        wa.schedule_global(next, chained::<N>(cfg.clone()));
    })
}

/// Writes a t = 0 checkpoint of an un-run world and returns a world
/// rebuilt from that same image — the caller's first attempt and any later
/// rollback to t = 0 therefore start from byte-identical state. Used by
/// [`fault::run_resilient`](crate::fault::run_resilient) so a failure
/// before the first periodic checkpoint can still roll back.
///
/// `partition` must be the partition the run will execute under (it fixes
/// the node → LP assignment recorded in the image). Fails with
/// [`SnapshotError::Unsupported`] when the world carries user global
/// events (closures do not serialize); install the checkpoint chain *after*
/// this call.
pub fn write_initial<N>(
    world: World<N>,
    partition: &crate::partition::Partition,
    fel_impl: crate::fel::FelImpl,
    path: &Path,
) -> Result<World<N>, SnapshotError>
where
    N: SimNode + Snapshot,
    N::Payload: Snapshot,
{
    if !world.init_globals.is_empty() {
        return Err(SnapshotError::Unsupported(
            "worlds with user global events cannot be checkpointed \
             (global closures do not serialize; keep model state in nodes)"
                .into(),
        ));
    }
    let (lps, _dir, graph, globals, stop_at, ext_seq) =
        crate::kernel::build_lps(world, partition, fel_impl);
    debug_assert!(globals.is_empty(), "checked init_globals above");

    let assignment: Vec<u32> = partition.node_lp.iter().map(|lp| lp.0).collect();
    let node_count = assignment.len();
    let mut lp_seqs = Vec::with_capacity(lps.len());
    let mut events: Vec<&Event<N::Payload>> = Vec::new();
    let mut node_refs: Vec<Option<&N>> = (0..node_count).map(|_| None).collect();
    for (i, lp) in lps.iter().enumerate() {
        lp_seqs.push(lp.seq);
        events.extend(lp.fel.iter());
        for (local, node) in lp.nodes.iter().enumerate() {
            let id = partition.lp_nodes[i][local];
            node_refs[id.index()] = Some(node);
        }
    }
    events.sort_unstable_by_key(|e| e.key);
    let nodes: Vec<&N> = node_refs
        .into_iter()
        // INVARIANT: the partition covers every node id exactly once
        // (checked when it was built), so the loop above filled each slot.
        .map(|n| n.expect("every node captured"))
        .collect();

    let img = StateImage::<N> {
        time: Time::ZERO,
        stop_at,
        ext_seq,
        assignment,
        graph: &graph,
        lp_seqs,
        events,
        nodes,
    };
    let bytes = encode_state(&img);
    std::fs::write(path, &bytes)?;
    drop(img);
    drop(lps);
    // Rebuild from the bytes just written rather than reassembling the
    // input world: the returned world is exactly what a rollback to this
    // checkpoint produces, so first attempt and replay cannot diverge.
    Ok(decode_state::<N>(&bytes)?.world)
}

/// Every checkpoint file in `dir`, ascending by virtual time (zero-padded
/// fixed-width names make lexicographic order numeric order). Files not
/// matching the `ckpt-*.bin` pattern are ignored.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<PathBuf>, SnapshotError> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("ckpt-") && name.ends_with(".bin") {
            found.push(path);
        }
    }
    found.sort();
    Ok(found)
}

/// Returns the most recent checkpoint file in `dir`, by virtual time.
pub fn latest_checkpoint(dir: &Path) -> Result<Option<PathBuf>, SnapshotError> {
    let mut best: Option<PathBuf> = None;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("ckpt-") && name.ends_with(".bin") {
            // Zero-padded fixed-width names: lexicographic = numeric order.
            if best.as_ref().is_none_or(|b| path > *b) {
                best = Some(path);
            }
        }
    }
    Ok(best)
}

/// A restored run: the rebuilt world plus the constraints under which it
/// must be executed to stay bit-identical.
pub struct Resumed<N: SimNode> {
    /// The world, ready for [`crate::kernel::try_run`].
    pub world: World<N>,
    /// The node → LP assignment of the checkpointed run. Resume with
    /// [`crate::kernel::PartitionMode::Manual`] of this assignment — LP
    /// identity is part of the tie-break keys, so the partition must not
    /// change across a restore (the worker thread count may).
    pub assignment: Vec<u32>,
    /// Virtual time at which the checkpoint was taken.
    pub time: Time,
}

/// Loads a checkpoint file and rebuilds the world.
///
/// Pass `chain` to re-install the periodic checkpoint chain (the next
/// checkpoint fires one interval after [`Resumed::time`]); pass `None` to
/// resume without further checkpoints.
pub fn resume<N>(path: &Path, chain: Option<&CheckpointConfig>) -> Result<Resumed<N>, SnapshotError>
where
    N: SimNode + Snapshot,
    N::Payload: Snapshot,
{
    let bytes = std::fs::read(path)?;
    let mut resumed = decode_state::<N>(&bytes)?;
    if let Some(cfg) = chain {
        let next = resumed.time.saturating_add(cfg.every);
        resumed
            .world
            .add_global_event(next, chained::<N>(cfg.clone()));
    }
    Ok(resumed)
}

/// Fields captured from a live kernel for [`encode_state`]. Assembled by
/// `WorldAccess::write_checkpoint`, which holds exclusive world access.
pub(crate) struct StateImage<'a, N: SimNode> {
    pub time: Time,
    pub stop_at: Option<Time>,
    pub ext_seq: u64,
    /// Node → LP assignment (dense, by node id).
    pub assignment: Vec<u32>,
    pub graph: &'a LinkGraph,
    /// Per-LP sequence counters, by LP id.
    pub lp_seqs: Vec<u64>,
    /// All pending events, sorted by key (canonical order).
    pub events: Vec<&'a Event<N::Payload>>,
    /// All nodes in ascending node-id order.
    pub nodes: Vec<&'a N>,
}

/// Encodes a full state image into checkpoint bytes.
pub(crate) fn encode_state<N>(img: &StateImage<'_, N>) -> Vec<u8>
where
    N: SimNode + Snapshot,
    N::Payload: Snapshot,
{
    let mut w = SnapshotWriter::new();
    w.bytes(MAGIC);
    VERSION.save(&mut w);
    img.time.save(&mut w);
    img.stop_at.save(&mut w);
    img.ext_seq.save(&mut w);
    img.assignment.save(&mut w);
    // Graph: node span plus every link slot (tombstones included, so the
    // model's stable link ids keep meaning after a restore).
    (img.graph.node_count() as u64).save(&mut w);
    (img.graph.slot_count() as u64).save(&mut w);
    for i in 0..img.graph.slot_count() {
        let LinkSpec { a, b, delay } = img.graph.link(i);
        a.save(&mut w);
        b.save(&mut w);
        delay.save(&mut w);
        img.graph.is_alive(i).save(&mut w);
    }
    img.lp_seqs.save(&mut w);
    debug_assert!(
        img.events.windows(2).all(|p| p[0].key < p[1].key),
        "events must be sorted by key"
    );
    (img.events.len() as u64).save(&mut w);
    for ev in &img.events {
        ev.key.save(&mut w);
        ev.node.save(&mut w);
        ev.payload.save(&mut w);
    }
    (img.nodes.len() as u64).save(&mut w);
    for n in &img.nodes {
        n.save(&mut w);
    }
    w.into_bytes()
}

/// Decodes checkpoint bytes into a resumable world.
pub(crate) fn decode_state<N>(bytes: &[u8]) -> Result<Resumed<N>, SnapshotError>
where
    N: SimNode + Snapshot,
    N::Payload: Snapshot,
{
    let mut r = SnapshotReader::new(bytes);
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::Corrupt("bad magic".into()));
    }
    let version = u32::load(&mut r)?;
    if version != VERSION {
        return Err(SnapshotError::Corrupt(format!(
            "unsupported version {version} (expected {VERSION})"
        )));
    }
    let time = Time::load(&mut r)?;
    let stop_at = Option::<Time>::load(&mut r)?;
    let ext_seq = u64::load(&mut r)?;
    let assignment = Vec::<u32>::load(&mut r)?;

    let node_count = usize::load(&mut r)?;
    if assignment.len() != node_count {
        return Err(SnapshotError::Corrupt(format!(
            "assignment covers {} nodes, graph has {node_count}",
            assignment.len()
        )));
    }
    let mut graph = LinkGraph::new(node_count);
    let slot_count = usize::load(&mut r)?;
    for _ in 0..slot_count {
        let a = NodeId::load(&mut r)?;
        let b = NodeId::load(&mut r)?;
        let delay = Time::load(&mut r)?;
        let alive = bool::load(&mut r)?;
        if a.index() >= node_count || b.index() >= node_count {
            return Err(SnapshotError::Corrupt("link endpoint out of range".into()));
        }
        let idx = graph.add_link(a, b, delay);
        if !alive {
            graph.remove_link(idx);
        }
    }

    let lp_seqs = Vec::<u64>::load(&mut r)?;
    let lp_count = lp_seqs.len();
    if assignment.iter().any(|&lp| lp as usize >= lp_count) {
        return Err(SnapshotError::Corrupt(
            "assignment references missing LP".into(),
        ));
    }

    let event_count = usize::load(&mut r)?;
    let mut init_events = Vec::with_capacity(event_count.min(1 << 20));
    for _ in 0..event_count {
        let key = EventKey::load(&mut r)?;
        let node = NodeId::load(&mut r)?;
        let payload = N::Payload::load(&mut r)?;
        if node.index() >= node_count {
            return Err(SnapshotError::Corrupt("event target out of range".into()));
        }
        init_events.push(Event { key, node, payload });
    }

    let saved_nodes = usize::load(&mut r)?;
    if saved_nodes != node_count {
        return Err(SnapshotError::Corrupt(format!(
            "node list holds {saved_nodes} entries, graph has {node_count}"
        )));
    }
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        nodes.push(N::load(&mut r)?);
    }
    r.finish()?;

    let world = World::restored(nodes, graph, init_events, stop_at, lp_seqs, ext_seq);
    Ok(Resumed {
        world,
        assignment,
        time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snapshot>(v: &T) -> T {
        let mut w = SnapshotWriter::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let out = T::load(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        out
    }

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(roundtrip(&0xDEAD_BEEFu64), 0xDEAD_BEEF);
        assert_eq!(roundtrip(&u64::MAX), u64::MAX);
        assert_eq!(roundtrip(&-5i64), -5);
        assert!(roundtrip(&true));
        assert_eq!(roundtrip(&String::from("héllo")), "héllo");
        assert_eq!(roundtrip(&Time(42)), Time(42));
        assert_eq!(roundtrip(&Some(7u32)), Some(7));
        assert_eq!(roundtrip(&None::<u32>), None);
        assert_eq!(roundtrip(&vec![1u64, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn f64_is_bit_exact() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        assert_eq!(roundtrip(&nan).to_bits(), nan.to_bits());
        assert_eq!(roundtrip(&(-0.0f64)).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn rng_state_roundtrips_mid_stream() {
        let mut rng = Rng::new(99);
        for _ in 0..17 {
            rng.next_u64();
        }
        let mut restored = roundtrip(&rng);
        for _ in 0..100 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn map_and_deque_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert(3u32, Time(30));
        m.insert(1u32, Time(10));
        assert_eq!(roundtrip(&m), m);
        let d: VecDeque<u64> = [5u64, 6, 7].into_iter().collect();
        assert_eq!(roundtrip(&d), d);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut w = SnapshotWriter::new();
        0xAABBu64.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes[..4]);
        assert!(matches!(u64::load(&mut r), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn invalid_tags_are_errors() {
        let bytes = [7u8];
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(
            Option::<u8>::load(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut r = SnapshotReader::new(&[9u8]);
        assert!(matches!(bool::load(&mut r), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn snapshot_struct_macro_roundtrips_private_fields() {
        struct Inner {
            a: u64,
            b: Option<Time>,
        }
        snapshot_struct!(Inner { a, b });
        let v = Inner {
            a: 9,
            b: Some(Time(3)),
        };
        let out = roundtrip(&v);
        assert_eq!(out.a, 9);
        assert_eq!(out.b, Some(Time(3)));
    }

    #[test]
    fn decode_rejects_bad_magic() {
        struct Nop;
        impl SimNode for Nop {
            type Payload = ();
            fn handle(&mut self, _p: (), _ctx: &mut dyn crate::world::SimCtx<Self>) {}
        }
        impl Snapshot for Nop {
            fn save(&self, _w: &mut SnapshotWriter) {}
            fn load(_r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                Ok(Nop)
            }
        }
        let err = decode_state::<Nop>(b"NOTMAGIC....")
            .err()
            .expect("must fail");
        assert!(matches!(err, SnapshotError::Corrupt(_)));
    }
}
