//! The virtual-core model's outputs, pinned bit for bit on a fixed
//! synthetic profile whose LPs receive cross-LP events (DESIGN.md §3.2).
//!
//! Every record is folded into an FNV-1a digest of the bit patterns of its
//! numbers, so a change to any replayed value — a total, one executor's
//! P/S/M, one round's S/T — shows as a changed digest.

use unison_core::sched::home_range;
use unison_core::{
    CostParams, ModelResult, PerfModel, RoundRecord, SchedConfig, SchedMetric, Time,
};

const ROUNDS: usize = 60;
const LPS: usize = 9;

/// 60 rounds × 9 LPs: integer-valued costs with a drifting hot LP, and
/// every LP receiving 0–24 cross-LP events a round.
fn profile() -> Vec<RoundRecord> {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    (0..ROUNDS)
        .map(|r| {
            let hot = (r / 7) % LPS;
            let lp_cost_ns = (0..LPS)
                .map(|i| (next(2_000) + if i == hot { 9_000 } else { 500 }) as f32)
                .collect();
            RoundRecord {
                window_start: Time(r as u64 * 1_000),
                window_end: Time((r as u64 + 1) * 1_000),
                fused: false,
                lp_cost_ns,
                lp_events: (0..LPS).map(|_| 1 + next(50) as u32).collect(),
                lp_recv: (0..LPS).map(|_| next(25) as u32).collect(),
            }
        })
        .collect()
}

/// A ring of the nine LPs with one chord (0–4).
fn neighbors() -> Vec<Vec<u32>> {
    (0..LPS as u32)
        .map(|i| {
            let mut n = vec![(i + 1) % LPS as u32, (i + LPS as u32 - 1) % LPS as u32];
            match i {
                0 => n.push(4),
                4 => n.push(0),
                _ => {}
            }
            n
        })
        .collect()
}

/// FNV-1a over 64-bit words.
#[derive(Default)]
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) -> &mut Self {
        if self.0 == 0 {
            self.0 = 0xcbf2_9ce4_8422_2325;
        }
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    fn f64(&mut self, v: f64) -> &mut Self {
        self.word(v.to_bits())
    }

    fn series(&mut self, s: &[f32]) -> &mut Self {
        for v in s {
            self.word(v.to_bits() as u64);
        }
        self
    }

    fn rows(&mut self, rows: &[Vec<f64>]) -> &mut Self {
        for row in rows {
            self.word(row.len() as u64);
            for &v in row {
                self.f64(v);
            }
        }
        self
    }
}

/// Every number of a record.
fn whole(r: &ModelResult) -> u64 {
    let mut d = Digest::default();
    d.f64(r.total_ns).word(r.cores as u64);
    for x in &r.psm {
        d.word(x.p_ns).word(x.s_ns).word(x.m_ns);
    }
    d.series(&r.s_ratio_per_round).0
}

/// Collects every mismatch, so one run prints every digest to re-pin.
#[derive(Default)]
struct Pins(Vec<String>);

impl Pins {
    fn check(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.0
                .push(format!("{what}: got {got:#018x}, pinned {want:#018x}"));
        }
    }

    fn done(self) {
        assert!(self.0.is_empty(), "\n{}", self.0.join("\n"));
    }
}

const METRICS: [SchedMetric; 3] = [
    SchedMetric::ByLastRoundTime,
    SchedMetric::ByPendingEvents,
    SchedMetric::None,
];

const CORES: [usize; 3] = [1, 2, 4];

fn sched(metric: SchedMetric) -> SchedConfig {
    SchedConfig {
        metric,
        ..SchedConfig::default()
    }
}

/// The records that do not depend on how Unison splits P from M.
#[test]
fn baseline_records_and_bucket_maps_are_pinned() {
    let p = profile();
    let m = PerfModel::new(&p);
    let mut pins = Pins::default();
    pins.check("sequential", whole(&m.sequential()), 0x45e7_81c5_23d1_8043);
    pins.check("barrier", whole(&m.barrier()), 0x05c4_17b4_de6e_e5b2);
    pins.check(
        "nullmsg",
        whole(&m.nullmsg(&neighbors())),
        0x33c4_71f6_1ef2_b4e0,
    );
    let costs = Digest::default().rows(&m.bucketed_costs(7)).0;
    pins.check("bucketed_costs", costs, 0x2c39_586f_99f9_b021);
    let pinned = [
        0x5769_ccd4_dbd7_3bcf,
        0xb522_dce6_0c82_b1b2,
        0xeb9a_c528_90eb_b737,
    ];
    for (metric, want) in METRICS.into_iter().zip(pinned) {
        let loads = m.bucketed_worker_loads(3, sched(metric), 7);
        let got = Digest::default().rows(&loads).0;
        pins.check(&format!("bucketed_worker_loads {metric:?}"), got, want);
    }
    pins.done();
}

/// Per metric, per core count of [`CORES`]: the digest of T, α, the
/// scheduler cost, each worker's S and the per-round S/T; and the digest
/// of each worker's busy time P+M.
const UNISON: [[(u64, u64); 3]; 3] = [
    [
        (0xe5c1_b807_ac87_e75e, 0xac0a_4280_b3ce_f1d6),
        (0x3f94_586b_6de0_fe56, 0xf526_4f68_38da_76b4),
        (0xb59c_3f9a_969f_e90d, 0x391b_1cb2_c3ff_2691),
    ],
    [
        (0xe5c1_b807_ac87_e75e, 0xac0a_4280_b3ce_f1d6),
        (0xcf09_7f5a_1bf7_477a, 0xc833_606b_9ac3_35dd),
        (0xe606_7480_0b9d_1cfe, 0x0552_09a4_5f28_dd59),
    ],
    [
        (0xea6a_b5ac_81b4_d8da, 0xac0a_4280_b3ce_f1d6),
        (0xa25d_560f_0696_79a4, 0x3416_7d3a_9e85_53bb),
        (0x8033_6207_63e3_157a, 0x7513_ebdf_fd41_5504),
    ],
];

/// Unison's schedule, time and synchronization are pinned; its busy time
/// is split into the LPs' P and the M of their receives.
#[test]
fn unison_is_pinned_and_charges_each_worker_the_p_and_m_of_its_lps() {
    let p = profile();
    let m = PerfModel::new(&p);
    let received: u64 = p.iter().flat_map(|r| &r.lp_recv).map(|&n| n as u64).sum();
    let per_msg_ns = CostParams::default().per_msg_ns as u64;
    let mut pins = Pins::default();
    for (metric, row) in METRICS.into_iter().zip(UNISON) {
        for (cores, (timing, busy)) in CORES.into_iter().zip(row) {
            let r = m.unison(cores, sched(metric));
            let what = format!("unison({cores}) {metric:?}");
            let mut d = Digest::default();
            d.f64(r.total_ns);
            d.f64(r.alpha.expect("unison has α"));
            d.f64(r.sched_cost_ns.expect("unison has a scheduler cost"));
            for x in &r.psm {
                d.word(x.s_ns);
            }
            pins.check(
                &format!("{what} T/S"),
                d.series(&r.s_ratio_per_round).0,
                timing,
            );
            let mut b = Digest::default();
            for x in &r.psm {
                b.word(x.p_ns + x.m_ns);
            }
            pins.check(&format!("{what} P+M"), b.0, busy);
            assert_eq!(r.m_total() as u64, received * per_msg_ns, "{what}");
        }
    }
    pins.done();
}

/// Every barriered algorithm charges the same work: Σ(P+M) over the
/// executors is the profile's P plus its receives' M, whichever executor
/// runs an LP — up to the truncation of one nanosecond per executor and
/// round.
#[test]
fn barriered_algorithms_charge_the_same_p_plus_m() {
    let p = profile();
    let m = PerfModel::new(&p);
    let busy = |r: &ModelResult| {
        let sum = r.psm_sum();
        (sum.p_ns + sum.m_ns) as f64
    };
    let want = busy(&m.barrier());
    let mut records: Vec<ModelResult> = METRICS
        .into_iter()
        .flat_map(|metric| CORES.map(|cores| m.unison(cores, sched(metric))))
        .collect();
    for (hosts, per_host) in [(2, 2), (3, 1)] {
        let groups: Vec<Vec<u32>> = (0..hosts)
            .map(|h| home_range(LPS, hosts, h).map(|lp| lp as u32).collect())
            .collect();
        records.push(m.hybrid(&groups, per_host));
    }
    for r in &records {
        let slack = (r.cores * ROUNDS) as f64;
        assert!(
            (busy(r) - want).abs() <= slack,
            "{}: Σ(P+M) = {} against barrier's {want}",
            r.algorithm,
            busy(r)
        );
    }
}
