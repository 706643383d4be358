//! DCTCP validation (the paper's §6.2 adaptation of the DCTCP evaluation):
//! NewReno with deep DropTail buffers vs DCTCP with shallow ECN marking on
//! a shared bottleneck — per-flow throughput, Jain fairness index and
//! average queue delay.
//!
//! The DCTCP arm is the committed `scenarios/datacenter_dctcp.toml`
//! (digest-pinned by the golden corpus test); the NewReno comparison rows
//! reuse the same spec with the transport/queue sections swapped.
//!
//! Run with: `cargo run --release --example datacenter_dctcp`

use unison::netsim::NetworkBuilder;
use unison::scenario::{parse_scenario, QueueSpec, TcpProfile, TransportKindSpec, TransportSpec};

fn main() {
    let dctcp = parse_scenario(include_str!("../scenarios/datacenter_dctcp.toml"))
        .expect("committed scenario parses");

    // Datacenter-tuned NewReno (1 ms minimum RTO — the default 200 ms is
    // the ns-3/WAN setting and would stall whole windows here), first with
    // a deep DropTail buffer, then with classic RED.
    let reno_dcn = TransportSpec {
        kind: TransportKindSpec::NewReno,
        profile: TcpProfile::Dcn,
    };
    let mut deep_droptail = dctcp.clone();
    deep_droptail.transport = reno_dcn;
    deep_droptail.queue = Some(QueueSpec::DropTail {
        limit_bytes: 400_000,
    });
    let mut red = dctcp.clone();
    red.transport = reno_dcn;
    red.queue = Some(QueueSpec::Red {
        limit_bytes: 400_000,
        min_th: 30_000,
        max_th: 90_000,
        max_p: 0.1,
        w_q: 0.002,
        mark_ecn: false,
    });

    println!(
        "{:<28} {:>10} {:>8} {:>12} {:>8} {:>8}",
        "transport/queue", "tput(Mbps)", "Jain", "qdelay(us)", "drops", "marks"
    );
    println!("{}", "-".repeat(80));
    for (name, spec) in [
        ("NewReno + deep DropTail", &deep_droptail),
        ("NewReno + RED", &red),
        ("DCTCP (K = 8 kB)", &dctcp),
    ] {
        let topo = spec.build_topology();
        let sim = NetworkBuilder::from_scenario(&topo, spec).build();
        let res = sim.run_with(&spec.run_config(&topo)).expect("dctcp run");
        println!(
            "{:<28} {:>10.1} {:>8.3} {:>12.1} {:>8} {:>8}",
            name,
            res.flows.throughput_bps.mean() / 1e6,
            res.flows.jain_index(),
            res.flows.queue_delay_ns.mean() / 1e3,
            res.flows.drops,
            res.flows.marks
        );
    }
    println!(
        "\n(expected, as in the DCTCP paper the evaluation reproduces: DCTCP keeps \
         throughput while cutting queue delay by an order of magnitude, with high \
         fairness and zero drops)"
    );
}
