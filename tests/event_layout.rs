//! Layout pins of the values every pending event is made of. A pending
//! event sits whole in a per-LP list or a worker outbox, and every FEL
//! push, pop and sort and every outbox send moves it whole (DESIGN.md
//! §4.4): a byte added to one of these types is paid by every event in
//! flight, in memory and in copies. The network node is pinned beside
//! them: a byte added to it is paid by every node of a topology.

use std::mem::size_of;

use unison::core::{Event, EventKey};
use unison::netsim::{NetEvent, NetNode, Packet};

#[test]
fn pending_events_keep_their_size() {
    assert_eq!(
        size_of::<EventKey>(),
        24,
        "EventKey grew past (ts, sender_ts, packed LP and seq): every pending event pays for it"
    );
    assert_eq!(
        size_of::<Packet>(),
        48,
        "Packet grew: every packet in flight or queued pays for it"
    );
    assert_eq!(
        size_of::<NetEvent>(),
        56,
        "NetEvent grew: every pending network event pays for it"
    );
    assert_eq!(
        size_of::<Event<NetEvent>>(),
        88,
        "Event<NetEvent> grew: every pending event of the network model pays for it"
    );
    // PHOLD's events: key, node and one word.
    assert_eq!(
        size_of::<Event<u64>>(),
        40,
        "Event<u64> grew: every pending PHOLD event pays for it"
    );
}

/// Per-node state is what a paper-scale topology multiplies: every node of
/// the network model, switch or host, carries one `NetNode`.
#[test]
fn network_nodes_keep_their_size() {
    assert_eq!(
        size_of::<NetNode>(),
        392,
        "NetNode grew: every node of every topology pays for it"
    );
}
