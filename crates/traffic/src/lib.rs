//! # unison-traffic
//!
//! Workload generation for the unison-rs workspace.
//!
//! Flows are generated *before* the simulation starts, deterministically
//! from a seed: per-host Poisson arrivals, flow sizes drawn from an
//! empirical CDF (web-search, gRPC, or fixed), destinations uniform over
//! other hosts with an optional *incast ratio* — the probability that a
//! flow is redirected at a single victim host, sweeping the traffic from
//! perfectly balanced (`0.0`) to fully incast (`1.0`) exactly as the
//! paper's §3.2/§6.1 experiments do.

pub mod cdfs;

pub use cdfs::{grpc_cdf, web_search_cdf};

use unison_core::{DataRate, Rng, Time};
use unison_stats::CdfTable;
use unison_topology::Topology;

/// Flow-size distribution selector.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SizeDist {
    /// The DCTCP web-search distribution (heavy-tailed, mean ≈ 1.7 MB).
    WebSearch,
    /// The TIMELY-style gRPC distribution (small RPCs, mean ≈ 4 KB).
    Grpc,
    /// Every flow has exactly this many bytes.
    Fixed(u64),
}

impl SizeDist {
    /// The CDF for table-based distributions.
    pub fn cdf(&self) -> Option<CdfTable> {
        match self {
            SizeDist::WebSearch => Some(web_search_cdf()),
            SizeDist::Grpc => Some(grpc_cdf()),
            SizeDist::Fixed(_) => None,
        }
    }

    /// Mean flow size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        match self {
            SizeDist::Fixed(b) => *b as f64,
            other => other.cdf().expect("table dist").mean(),
        }
    }
}

/// One application flow to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source node id (a host).
    pub src: usize,
    /// Destination node id (a host).
    pub dst: usize,
    /// Flow size in bytes.
    pub bytes: u64,
    /// Arrival time.
    pub start: Time,
}

/// Declarative traffic description.
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// Flow-size distribution.
    pub size_dist: SizeDist,
    /// Offered load as a fraction of each host's access-link bandwidth.
    pub load: f64,
    /// Probability that a flow is redirected to the victim host
    /// (0 = balanced, 1 = pure incast).
    pub incast_ratio: f64,
    /// Cluster holding the victim host (defaults to the last cluster, the
    /// paper's "very right cluster").
    pub incast_cluster: Option<u32>,
    /// RNG seed; equal seeds give bit-identical workloads.
    pub seed: u64,
    /// Flows arrive in `[start, start + duration)`.
    pub start: Time,
    /// Arrival window length.
    pub duration: Time,
}

impl TrafficConfig {
    /// Balanced random-uniform traffic at the given load with web-search
    /// sizes.
    pub fn random_uniform(load: f64) -> Self {
        TrafficConfig {
            size_dist: SizeDist::WebSearch,
            load,
            incast_ratio: 0.0,
            incast_cluster: None,
            seed: 1,
            start: Time::ZERO,
            duration: Time::from_millis(10),
        }
    }

    /// Incast-heavy traffic: `ratio` of flows converge on one victim host.
    pub fn incast(load: f64, ratio: f64) -> Self {
        TrafficConfig {
            incast_ratio: ratio,
            ..Self::random_uniform(load)
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the size distribution.
    pub fn with_sizes(mut self, dist: SizeDist) -> Self {
        self.size_dist = dist;
        self
    }

    /// Overrides the arrival window.
    pub fn with_window(mut self, start: Time, duration: Time) -> Self {
        self.start = start;
        self.duration = duration;
        self
    }

    /// Per-host flow arrival rate (flows per second) that offers `load` of
    /// `host_rate` with this size distribution.
    fn arrivals_per_sec(&self, host_rate: DataRate) -> f64 {
        self.load * host_rate.as_bps() as f64 / (8.0 * self.size_dist.mean_bytes().max(1.0))
    }

    /// How many flows [`TrafficConfig::generate`] draws for `topo` at
    /// `host_rate`, in expectation: hosts × per-host arrival rate × window
    /// (hosts × load × host rate × duration / (8 × mean flow bytes)).
    /// Computed without generating anything, so a caller can bound the
    /// allocation a configuration asks for before it is made.
    pub fn expected_flows(&self, topo: &Topology, host_rate: DataRate) -> f64 {
        let hosts = topo.host_count();
        if hosts < 2 || self.load == 0.0 {
            return 0.0;
        }
        hosts as f64 * self.arrivals_per_sec(host_rate) * self.duration.as_secs_f64()
    }

    /// Generates the flow list for `topo`, assuming every host's access
    /// link runs at `host_rate`. Flows are sorted by arrival time; the
    /// result is a deterministic function of (topology, config).
    pub fn generate(&self, topo: &Topology, host_rate: DataRate) -> Vec<FlowSpec> {
        assert!(
            (0.0..=1.0).contains(&self.incast_ratio),
            "incast_ratio must be in [0,1]"
        );
        assert!(self.load >= 0.0, "load must be non-negative");
        let hosts = topo.hosts();
        if hosts.len() < 2 || self.load == 0.0 {
            return Vec::new();
        }
        let mean_gap_ns = 1e9 / self.arrivals_per_sec(host_rate).max(1e-12);
        let victim_cluster = self
            .incast_cluster
            .unwrap_or_else(|| topo.clusters.saturating_sub(1));
        let victim = *topo
            .cluster_hosts(victim_cluster)
            .first()
            .unwrap_or(&hosts[hosts.len() - 1]);
        let cdf = self.size_dist.cdf();
        let mut root = Rng::new(self.seed);
        let mut flows = Vec::new();
        for (i, &src) in hosts.iter().enumerate() {
            let mut rng = root.fork(i as u64);
            let mut t = self.start.as_nanos() as f64;
            let end = (self.start + self.duration).as_nanos() as f64;
            loop {
                t += rng.next_exp(mean_gap_ns);
                if t >= end {
                    break;
                }
                let bytes = match (&cdf, self.size_dist) {
                    (Some(c), _) => c.sample(rng.next_f64()).max(1.0) as u64,
                    (None, SizeDist::Fixed(b)) => b,
                    (None, _) => unreachable!("table dists always carry a CDF"),
                };
                let dst = if rng.next_bool(self.incast_ratio) && src != victim {
                    victim
                } else {
                    // Uniform over other hosts.
                    let mut d = *rng.choose(&hosts);
                    while d == src {
                        d = *rng.choose(&hosts);
                    }
                    d
                };
                flows.push(FlowSpec {
                    src,
                    dst,
                    bytes,
                    start: Time::from_nanos(t as u64),
                });
            }
        }
        flows.sort_by_key(|f| (f.start, f.src, f.dst, f.bytes));
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_topology::fat_tree;

    fn topo() -> Topology {
        fat_tree(4)
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TrafficConfig::random_uniform(0.3).with_seed(7);
        let a = cfg.generate(&topo(), DataRate::gbps(10));
        let b = cfg.generate(&topo(), DataRate::gbps(10));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let t = topo();
        let a = TrafficConfig::random_uniform(0.3)
            .with_seed(1)
            .generate(&t, DataRate::gbps(10));
        let b = TrafficConfig::random_uniform(0.3)
            .with_seed(2)
            .generate(&t, DataRate::gbps(10));
        assert_ne!(a, b);
    }

    #[test]
    fn offered_load_close_to_target() {
        let t = topo();
        let rate = DataRate::gbps(10);
        let cfg = TrafficConfig::random_uniform(0.5)
            .with_seed(3)
            .with_window(Time::ZERO, Time::from_millis(200));
        let flows = cfg.generate(&t, rate);
        let total_bytes: f64 = flows.iter().map(|f| f.bytes as f64).sum();
        let duration_s = 0.2;
        let offered_bps = total_bytes * 8.0 / duration_s;
        let target_bps = 0.5 * rate.as_bps() as f64 * t.host_count() as f64;
        let ratio = offered_bps / target_bps;
        assert!((0.75..1.25).contains(&ratio), "offered/target = {ratio}");
    }

    #[test]
    fn flows_within_window_and_sorted() {
        let cfg = TrafficConfig::random_uniform(0.3)
            .with_window(Time::from_millis(1), Time::from_millis(2));
        let flows = cfg.generate(&topo(), DataRate::gbps(10));
        for w in flows.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        for f in &flows {
            assert!(f.start >= Time::from_millis(1) && f.start < Time::from_millis(3));
        }
    }

    #[test]
    fn pure_incast_targets_single_victim() {
        let t = topo();
        let cfg = TrafficConfig::incast(0.3, 1.0);
        let flows = cfg.generate(&t, DataRate::gbps(10));
        let victim = *t.cluster_hosts(3).first().unwrap();
        for f in &flows {
            if f.src != victim {
                assert_eq!(f.dst, victim);
            }
        }
    }

    #[test]
    fn partial_incast_ratio_observed() {
        let t = topo();
        let cfg = TrafficConfig::incast(1.0, 0.5)
            .with_window(Time::ZERO, Time::from_millis(100))
            .with_sizes(SizeDist::Grpc);
        let flows = cfg.generate(&t, DataRate::gbps(10));
        assert!(flows.len() > 2_000);
        let victim = *t.cluster_hosts(3).first().unwrap();
        let frac = flows.iter().filter(|f| f.dst == victim).count() as f64 / flows.len() as f64;
        assert!((0.45..0.60).contains(&frac), "victim fraction {frac}");
    }

    #[test]
    fn no_self_flows() {
        let flows = TrafficConfig::random_uniform(0.5).generate(&topo(), DataRate::gbps(10));
        assert!(flows.iter().all(|f| f.src != f.dst));
    }

    #[test]
    fn fixed_sizes() {
        let cfg = TrafficConfig::random_uniform(0.2).with_sizes(SizeDist::Fixed(1500));
        let flows = cfg.generate(&topo(), DataRate::gbps(10));
        assert!(flows.iter().all(|f| f.bytes == 1500));
    }

    #[test]
    fn zero_load_empty() {
        let flows = TrafficConfig::random_uniform(0.0).generate(&topo(), DataRate::gbps(10));
        assert!(flows.is_empty());
    }

    #[test]
    fn flow_sizes_match_distribution_mean() {
        let cfg = TrafficConfig::random_uniform(0.6)
            .with_window(Time::ZERO, Time::from_millis(500))
            .with_seed(11);
        let flows = cfg.generate(&topo(), DataRate::gbps(10));
        assert!(
            flows.len() > 500,
            "need enough samples, got {}",
            flows.len()
        );
        let mean = flows.iter().map(|f| f.bytes as f64).sum::<f64>() / flows.len() as f64;
        let expect = SizeDist::WebSearch.mean_bytes();
        assert!(
            (mean / expect - 1.0).abs() < 0.25,
            "mean {mean}, expected {expect}"
        );
    }
}
