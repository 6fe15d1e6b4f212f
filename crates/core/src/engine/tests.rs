use super::*;
use crate::arrivals::Grouped;
use crate::events::CounterSink;
use noc_faults::{AdversarialScenarioBuilder, ByzantineMode, ErrorModel, OverflowMode};

fn grid4() -> Grid2d {
    Grid2d::new(4, 4)
}

#[test]
fn flooding_delivers_in_manhattan_distance_rounds() {
    let mut sim = SimulationBuilder::new(grid4())
        .config(StochasticConfig::flooding(12))
        .seed(1)
        .build();
    let id = sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
    let report = sim.run();
    assert!(report.delivered(id));
    // Tile 5 -> 11 is 3 hops; flooding is latency-optimal.
    assert_eq!(report.latency(id), Some(3));
}

#[test]
fn flooding_informs_every_tile() {
    let mut sim = SimulationBuilder::new(grid4())
        .config(StochasticConfig::flooding(12))
        .seed(1)
        .build();
    let id = sim.inject(NodeId(0), NodeId(15), b"x".to_vec());
    for _ in 0..7 {
        sim.step();
    }
    assert_eq!(sim.informed_count(id), 16, "broadcast reaches all tiles");
}

#[test]
fn gossip_delivers_with_half_probability() {
    let mut delivered = 0;
    for seed in 0..20 {
        let mut sim = SimulationBuilder::new(grid4())
            .forward_probability(0.5)
            .ttl(16)
            .max_rounds(100)
            .seed(seed)
            .build();
        let id = sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
        let report = sim.run();
        if report.delivered(id) {
            delivered += 1;
        }
    }
    assert!(delivered >= 19, "p=0.5 delivered only {delivered}/20");
}

#[test]
fn zero_probability_never_delivers_to_remote() {
    let mut sim = SimulationBuilder::new(grid4())
        .forward_probability(0.0)
        .max_rounds(50)
        .seed(3)
        .build();
    let id = sim.inject(NodeId(0), NodeId(15), b"x".to_vec());
    let report = sim.run();
    assert!(!report.delivered(id));
    assert_eq!(report.packets_sent, 0);
}

#[test]
fn zero_shards_build_one_shard_on_every_host() {
    let sim = SimulationBuilder::new(grid4()).shards(0).build();
    assert_eq!(sim.shards(), 1);
}

#[test]
fn self_addressed_messages_deliver_instantly() {
    let mut sim = SimulationBuilder::new(grid4()).seed(4).build();
    let id = sim.inject(NodeId(6), NodeId(6), b"me".to_vec());
    assert!(sim.report().delivered(id));
    assert_eq!(sim.report().latency(id), Some(0));
}

#[test]
fn ttl_bounds_total_traffic() {
    let run = |ttl: u8| {
        let mut sim = SimulationBuilder::new(grid4())
            .config(StochasticConfig::flooding(ttl).with_max_rounds(60))
            .seed(5)
            .build();
        sim.inject(NodeId(0), NodeId(15), b"x".to_vec());
        sim.run().packets_sent
    };
    let short = run(4);
    let long = run(16);
    assert!(long > short, "higher ttl must generate more packets");
    // With ttl t the broadcast lives t rounds; traffic is finite.
    assert!(short > 0);
}

#[test]
fn energy_grows_with_forward_probability() {
    let run = |p: f64| {
        let mut sim = SimulationBuilder::new(grid4())
            .forward_probability(p)
            .ttl(10)
            .max_rounds(40)
            .seed(6)
            .build();
        sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
        sim.run().total_energy().joules()
    };
    let e25 = run(0.25);
    let e100 = run(1.0);
    assert!(
        e100 > e25,
        "flooding must dissipate more than p=0.25 ({e100} vs {e25})"
    );
}

#[test]
fn dead_source_loses_the_message() {
    let mut schedule = CrashSchedule::new();
    schedule.kill_tile(5, 0);
    let mut sim = SimulationBuilder::new(grid4())
        .crash_schedule(schedule)
        .seed(7)
        .build();
    let id = sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
    let report = sim.run();
    assert!(!report.delivered(id));
}

#[test]
fn gossip_routes_around_dead_tiles() {
    // Kill two tiles off the direct path; the message still arrives.
    let mut schedule = CrashSchedule::new();
    schedule.kill_tile(3, 0).kill_tile(12, 0);
    let mut sim = SimulationBuilder::new(grid4())
        .config(StochasticConfig::flooding(12))
        .crash_schedule(schedule)
        .seed(8)
        .build();
    let id = sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
    let report = sim.run();
    assert!(report.delivered(id));
}

#[test]
fn partitioned_network_cannot_deliver() {
    // Kill the middle columns entirely: 4x4 grid split between
    // x<=0 and x>=2 when column 1 is dead... need both columns 1 and 2
    // to separate 0 and 15? Column x=1 tiles: 1,5,9,13. Killing them
    // separates x=0 from x>=2.
    let mut schedule = CrashSchedule::new();
    for t in [1usize, 5, 9, 13] {
        schedule.kill_tile(t, 0);
    }
    let mut sim = SimulationBuilder::new(grid4())
        .config(StochasticConfig::flooding(20).with_max_rounds(60))
        .crash_schedule(schedule)
        .seed(9)
        .build();
    let id = sim.inject(NodeId(0), NodeId(15), b"x".to_vec());
    let report = sim.run();
    assert!(!report.delivered(id), "no path exists through a dead wall");
}

#[test]
fn upsets_are_detected_and_survived() {
    let model = FaultModel::builder()
        .p_upset(0.3)
        .error_model(ErrorModel::RandomErrorVector)
        .build()
        .unwrap();
    let mut sim = SimulationBuilder::new(grid4())
        .config(StochasticConfig::flooding(16).with_max_rounds(80))
        .fault_model(model)
        .seed(10)
        .build();
    let id = sim.inject(NodeId(5), NodeId(11), b"payload".to_vec());
    let report = sim.run();
    assert!(report.delivered(id), "redundancy defeats 30% upsets");
    assert!(
        report.upsets_detected > 0,
        "some upsets must have been caught"
    );
}

#[test]
fn overflow_drops_are_counted() {
    let model = FaultModel::builder().p_overflow(0.5).build().unwrap();
    let mut sim = SimulationBuilder::new(grid4())
        .config(StochasticConfig::flooding(12).with_max_rounds(60))
        .fault_model(model)
        .seed(11)
        .build();
    let id = sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
    let report = sim.run();
    assert!(report.overflow_drops > 0);
    assert!(report.delivered(id), "50% overflow is survivable");
}

#[test]
fn structural_overflow_mode_also_works() {
    let model = FaultModel::builder()
        .overflow_mode(OverflowMode::Structural { capacity: 1 })
        .build()
        .unwrap();
    let mut sim = SimulationBuilder::new(grid4())
        .config(StochasticConfig::flooding(12).with_max_rounds(60))
        .fault_model(model)
        .seed(12)
        .build();
    let id = sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
    let report = sim.run();
    // Flooding generates multiple copies per round: a 1-deep buffer
    // must overflow somewhere.
    assert!(report.overflow_drops > 0);
    assert!(report.delivered(id));
}

#[test]
fn synchronization_errors_cause_jitter_not_loss() {
    let model = FaultModel::builder().sigma_synch(0.4).build().unwrap();
    let mut sim = SimulationBuilder::new(grid4())
        .config(StochasticConfig::flooding(16).with_max_rounds(80))
        .fault_model(model)
        .seed(13)
        .build();
    let id = sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
    let report = sim.run();
    assert!(report.delivered(id), "sync errors alone never lose packets");
    assert!(report.clock_slips > 0, "sigma=0.4 must cause slips");
}

#[test]
fn runs_are_deterministic() {
    let run = |seed: u64| {
        let model = FaultModel::builder()
            .p_upset(0.2)
            .p_overflow(0.1)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(grid4())
            .forward_probability(0.5)
            .fault_model(model)
            .seed(seed)
            .max_rounds(60)
            .build();
        sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
        let r = sim.run();
        (
            r.packets_sent,
            r.upsets_detected,
            r.overflow_drops,
            r.rounds_executed,
        )
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}

#[test]
fn step_stats_are_consistent() {
    let mut sim = SimulationBuilder::new(grid4())
        .config(StochasticConfig::flooding(8))
        .seed(14)
        .build();
    sim.inject(NodeId(0), NodeId(15), b"x".to_vec());
    let s0 = sim.step();
    assert_eq!(s0.round, 0);
    assert!(s0.transmissions > 0, "source forwards in round 0");
    let s1 = sim.step();
    assert_eq!(s1.round, 1);
    assert!(s1.transmissions >= s0.transmissions);
}

#[test]
fn report_totals_match_counters() {
    let mut sim = SimulationBuilder::new(grid4())
        .config(StochasticConfig::flooding(6).with_max_rounds(30))
        .seed(15)
        .build();
    sim.inject(NodeId(0), NodeId(15), b"four".to_vec());
    let mut total = 0;
    while sim.round() < 30 && !sim.is_complete() {
        total += sim.step().transmissions;
    }
    let report = sim.into_report();
    assert_eq!(report.packets_sent, total);
    let frame_bits = 8 * (15 + 4 + 2) as u64; // header + payload + crc16
    assert_eq!(report.bits_sent.bits(), total * frame_bits);
}

#[test]
fn ips_communicate_through_the_network() {
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Producer {
        to: NodeId,
        sent: bool,
    }
    impl IpCore for Producer {
        fn on_round(&mut self, ctx: &mut IpContext) {
            if !self.sent {
                ctx.send(self.to, b"ping".to_vec());
                self.sent = true;
            }
        }
        fn is_done(&self) -> bool {
            self.sent
        }
    }
    struct Consumer {
        got: Rc<RefCell<Option<u64>>>,
    }
    impl IpCore for Consumer {
        fn on_message(&mut self, ctx: &mut IpContext, _from: NodeId, payload: &[u8]) {
            if payload == b"ping" {
                *self.got.borrow_mut() = Some(ctx.round());
            }
        }
        fn is_done(&self) -> bool {
            self.got.borrow().is_some()
        }
    }

    let got = Rc::new(RefCell::new(None));
    let mut sim = SimulationBuilder::new(grid4())
        .config(StochasticConfig::flooding(12))
        .with_ip(
            NodeId(5),
            Box::new(Producer {
                to: NodeId(11),
                sent: false,
            }),
        )
        .with_ip(
            NodeId(11),
            Box::new(Consumer {
                got: Rc::clone(&got),
            }),
        )
        .seed(16)
        .build();
    let report = sim.run();
    assert!(report.completed, "both IPs finished");
    assert_eq!(*got.borrow(), Some(3), "ping crossed 3 hops in 3 rounds");
}

#[test]
fn square_grid_convenience() {
    let sim = SimulationBuilder::square_grid(5).build();
    assert_eq!(sim.node_count(), 25);
}

#[test]
#[should_panic(expected = "outside topology")]
fn mapping_ip_out_of_range_panics() {
    let _ = SimulationBuilder::new(grid4()).with_ip(NodeId(99), Box::new(noc_fabric::NullIp));
}

/// The audience would answer `false` for any tile index; the doc
/// promises a panic.
#[test]
#[should_panic(expected = "n16 outside topology")]
fn asking_whether_a_tile_outside_the_topology_is_informed_panics() {
    let mut sim = SimulationBuilder::new(grid4()).build();
    let id = sim.inject(NodeId(0), NodeId(15), vec![1]);
    sim.node_informed(NodeId(16), id);
}

/// An index error, not the documented panic, before they asserted.
#[test]
#[should_panic(expected = "n16 outside topology")]
fn the_buffer_length_of_a_tile_outside_the_topology_panics() {
    let _ = SimulationBuilder::new(grid4())
        .build()
        .buffer_len(NodeId(16));
}

#[test]
#[should_panic(expected = "n16 outside topology")]
fn the_liveness_of_a_tile_outside_the_topology_panics() {
    let _ = SimulationBuilder::new(grid4())
        .build()
        .tile_alive(NodeId(16));
}

#[test]
fn egress_limit_throttles_a_node() {
    // A 3-node line 0-1-2 where node 1 may forward one message per
    // round: two simultaneous messages through it serialize.
    let line = Topology::from_links(
        "line",
        3,
        [
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(0)),
            (NodeId(1), NodeId(2)),
            (NodeId(2), NodeId(1)),
        ],
    );
    let run = |limit: Option<usize>| {
        let mut builder = SimulationBuilder::new(line.clone())
            .config(StochasticConfig::flooding(10).with_max_rounds(30))
            .seed(1);
        if let Some(l) = limit {
            builder = builder.egress_limit(NodeId(1), l);
        }
        let mut sim = builder.build();
        let a = sim.inject(NodeId(0), NodeId(2), vec![1]);
        let b = sim.inject(NodeId(0), NodeId(2), vec![2]);
        let report = sim.run();
        (report.latency(a), report.latency(b))
    };
    let (ua, ub) = run(None);
    assert_eq!((ua, ub), (Some(2), Some(2)), "unlimited: both in 2 hops");
    let (la, lb) = run(Some(1));
    let (la, lb) = (la.unwrap(), lb.unwrap());
    assert_eq!(la.min(lb), 2, "one message still crosses immediately");
    assert!(la.max(lb) > 2, "the other queued behind the limit");
}

#[test]
fn egress_cursor_survives_expiring_head_message() {
    // Line 0-1-2, node 1 limited to one forward per round. A is a
    // round older than B and C, so it expires out of node 1's buffer
    // while B and C still wait for service. The round-robin resume
    // point must follow the *message* it owes service to: an index
    // cursor recomputed against the shrunken buffer double-serves B
    // and starves C entirely.
    let line = Topology::from_links(
        "line",
        3,
        [
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(0)),
            (NodeId(1), NodeId(2)),
            (NodeId(2), NodeId(1)),
        ],
    );
    let mut sim = SimulationBuilder::new(line)
        .config(StochasticConfig::flooding(5).with_max_rounds(30))
        .egress_limit(NodeId(1), 1)
        .seed(1)
        .build();
    let a = sim.inject(NodeId(0), NodeId(2), vec![b'a']);
    sim.step();
    let b = sim.inject(NodeId(0), NodeId(2), vec![b'b']);
    let c = sim.inject(NodeId(0), NodeId(2), vec![b'c']);
    let report = sim.run();
    assert_eq!(report.latency(a), Some(2), "head crosses unimpeded");
    assert_eq!(report.latency(b), Some(3), "b served the round after a");
    assert_eq!(
        report.latency(c),
        Some(4),
        "c is served after a expires instead of being skipped"
    );
}

#[test]
fn forward_probability_override_applies_per_node() {
    // Global p = 0: nothing moves — except the source tile overridden
    // to p = 1, whose neighbours still receive the message.
    let mut sim = SimulationBuilder::new(grid4())
        .forward_probability(0.0)
        .ttl(6)
        .max_rounds(10)
        .forward_probability_at(NodeId(5), 1.0)
        .seed(2)
        .build();
    let id = sim.inject(NodeId(5), NodeId(15), vec![1]);
    sim.step();
    sim.step();
    // Tile 5's 4 neighbours (1, 4, 6, 9) are informed; nobody else
    // forwards (their p is 0).
    assert_eq!(sim.informed_count(id), 5);
    assert!(sim.node_informed(NodeId(6), id));
    assert!(!sim.node_informed(NodeId(15), id));
}

#[test]
#[should_panic(expected = "not in [0, 1]")]
fn forward_override_validates_probability() {
    let _ = SimulationBuilder::new(grid4()).forward_probability_at(NodeId(0), 1.5);
}

#[test]
#[should_panic(expected = "at least 1")]
fn zero_egress_limit_rejected() {
    let _ = SimulationBuilder::new(grid4()).egress_limit(NodeId(0), 0);
}

/// What a tile carries for a feature exists where the feature is set:
/// a knob-free 128² build allocates no knob table, replay slot or IP
/// slot, and the first egress limit allocates one table entry a tile.
#[test]
fn per_tile_extras_exist_only_where_set() {
    let n = 128 * 128;
    let plain = SimulationBuilder::square_grid(128).build();
    assert_eq!(plain.node_count(), n);
    assert!(plain.egress.egress_limits.is_empty());
    assert!(plain.egress.egress_next.is_empty());
    assert!(plain.egress.forward_overrides.is_empty());
    assert!(plain.egress.compromised.is_empty());
    assert!(plain.run.mapped_ips.is_empty());

    let limited = SimulationBuilder::square_grid(128)
        .egress_limit(NodeId(77), 2)
        .build();
    assert_eq!(limited.egress.egress_limits.len(), n);
    assert_eq!(limited.egress.egress_next.len(), n);
    let set: Vec<usize> = (0..n)
        .filter(|&tile| limited.egress.egress_limits[tile].is_some())
        .collect();
    assert_eq!(set, [77]);
    assert!(limited.egress.forward_overrides.is_empty());
}

#[test]
fn termination_purges_buffers_after_delivery() {
    let mut sim = SimulationBuilder::new(grid4())
        .config(
            StochasticConfig::flooding(16)
                .with_max_rounds(40)
                .with_termination(true),
        )
        .seed(3)
        .build();
    let id = sim.inject(NodeId(5), NodeId(11), vec![1]);
    let report = sim.run();
    assert!(report.delivered(id));
    // Flooding without termination would transmit for all 16 ttl
    // rounds; with termination the spread dies right after round 3.
    let links = 48u64; // 2*(4*3+4*3)
    assert!(
        report.packets_sent < 6 * links,
        "termination left {} packets",
        report.packets_sent
    );
}

#[test]
fn run_with_history_matches_plain_run() {
    let build = || {
        let mut sim = SimulationBuilder::new(grid4())
            .config(StochasticConfig::flooding(8).with_max_rounds(30))
            .seed(21)
            .build();
        sim.inject(NodeId(0), NodeId(15), vec![1]);
        sim
    };
    let plain = build().run();
    let (report, history) = build().run_with_history();
    assert_eq!(report.packets_sent, plain.packets_sent);
    assert_eq!(history.len() as u64, report.rounds_executed);
    let total: u64 = history.iter().map(|s| s.transmissions).sum();
    assert_eq!(total, report.packets_sent);
    // Traffic rises as the broadcast spreads, then dies with the ttl.
    let peak = history.iter().map(|s| s.transmissions).max().unwrap();
    assert!(peak > history[0].transmissions);
    assert_eq!(history.last().unwrap().live_messages, 0);
}

#[test]
fn buffer_len_reports_live_messages() {
    let mut sim = SimulationBuilder::new(grid4())
        .config(StochasticConfig::flooding(8))
        .seed(4)
        .build();
    assert_eq!(sim.buffer_len(NodeId(5)), 0);
    sim.inject(NodeId(5), NodeId(11), vec![1]);
    assert_eq!(sim.buffer_len(NodeId(5)), 1);
    sim.step();
    sim.step();
    assert!(sim.buffer_len(NodeId(6)) >= 1, "neighbour holds a copy");
}

/// A 4×4 flood of two messages (one of them a loopback) under
/// `p_upset`, stepped to its round budget with `each_round` looking
/// at the simulation after every step.
fn flood_watching_the_wires(p_upset: f64, mut each_round: impl FnMut(&Simulation)) {
    let mut sim = SimulationBuilder::new(grid4())
        .config(StochasticConfig::flooding(6).with_max_rounds(10))
        .fault_model(FaultModel::builder().p_upset(p_upset).build().unwrap())
        .seed(11)
        .build();
    sim.inject(NodeId(0), NodeId(15), vec![7; 40]);
    sim.inject(NodeId(5), NodeId(5), vec![9; 8]);
    let mut served = 0;
    while sim.round() < 10 {
        sim.step();
        served += sim.flight.wires.clean_entries().count();
        each_round(&sim);
    }
    assert!(served > 10, "the watched rounds served frames: {served}");
}

#[test]
fn a_fault_free_run_materialises_zero_frames() {
    flood_watching_the_wires(0.0, |sim| {
        let built = sim
            .flight
            .wires
            .clean_entries()
            .filter(|(_, bytes)| bytes.is_some());
        assert_eq!(built.count(), 0, "round {}", sim.round());
    });
}

/// Every upset is caught by the CRC-16 tag here (a miss would be a
/// one-in-65 536 draw), so no served entry is ever encoded: each
/// upset copy is an `Upset::Caught` and receive rejects it unread.
#[test]
fn under_certain_upset_a_served_entry_is_built_only_for_a_missed_upset() {
    let mut caught_total = 0;
    flood_watching_the_wires(1.0, |sim| {
        let (caught, missed) = sim.flight.wires.upset_kinds();
        caught_total += caught;
        let built = sim
            .flight
            .wires
            .clean_entries()
            .filter(|(_, bytes)| bytes.is_some());
        assert!(built.count() <= missed, "round {}", sim.round());
        for (held, bytes) in sim.flight.wires.clean_entries() {
            if let Some(bytes) = bytes {
                let message = held.message();
                assert_eq!(bytes[..], sim.plan.codec.encode(&message)[..]);
            }
        }
    });
    assert!(caught_total > 10, "{caught_total} caught copies");
}

/// A checkpoint writes a clean entry as its body and TTL, so capture
/// encodes none: at most once is not at all, round after round.
#[test]
fn a_checkpoint_of_a_fault_free_flood_encodes_each_entry_at_most_once() {
    flood_watching_the_wires(0.0, |sim| {
        let first = sim.checkpoint();
        let built = sim
            .flight
            .wires
            .clean_entries()
            .filter(|(_, bytes)| bytes.is_some());
        assert_eq!(built.count(), 0, "round {}", sim.round());
        assert_eq!(sim.checkpoint().to_bytes(), first.to_bytes());
    });
}

#[test]
fn a_resumed_faulty_flood_holds_one_entry_per_clean_string_and_per_upset_copy() {
    let builder = || {
        SimulationBuilder::new(Topology::grid(8, 8))
            .config(StochasticConfig::flooding(12))
            .fault_model(FaultModel::builder().p_upset(0.2).build().unwrap())
            .seed(5)
    };
    let mut sim = builder().build();
    sim.inject(NodeId(0), NodeId(63), vec![7; 8]);
    sim.inject(NodeId(36), NodeId(9), vec![9; 8]);
    for _ in 0..4 {
        sim.step();
    }
    let resumed = builder().resume(&sim.checkpoint()).unwrap();
    let (mut frames, mut clean, mut scrambled) = (0, BTreeSet::new(), 0);
    let mut arena = Grouped::new(64);
    let arrivals = &resumed.flight.arrivals;
    for pending in [&arrivals.next, &arrivals.later] {
        arena.group(pending);
        for f in arena.tiles(0, 64).flat_map(|(_, frames)| frames) {
            let entry = resumed.flight.wires.entry(f.wire);
            frames += 1;
            if entry.held().is_some() {
                let bytes = entry.bytes(&resumed.plan.codec).unwrap();
                clean.insert(bytes.to_vec());
            } else {
                scrambled += 1;
            }
        }
        arena.clear();
    }
    assert!(
        scrambled > 0 && frames > clean.len() + scrambled,
        "{frames} frames"
    );
    let current = resumed.flight.wires.current();
    let upset_entries = current.iter().filter(|e| e.held().is_none()).count();
    assert_eq!(current.len() - upset_entries, clean.len());
    assert_eq!(upset_entries, scrambled);
}

/// An 8×8 flood of three messages under CRC-8 and random bit errors:
/// upsets the CRC misses put variants into circulation.
fn crc8_flood() -> SimulationBuilder {
    let model = FaultModel::builder()
        .p_upset(0.5)
        .error_model(ErrorModel::RandomBitError)
        .build()
        .unwrap();
    SimulationBuilder::new(Topology::grid(8, 8))
        .config(StochasticConfig::flooding(16).with_max_rounds(30))
        .fault_model(model)
        .wire_codec(WireCodec::new(noc_crc::CrcParams::CRC8_ATM))
        .seed(34)
}

/// A capture resolves every copy's body and a restore shares them
/// again: taken while buffers hold several copies and one holds a
/// corrupted variant of a live message, a checkpoint resumes into a
/// run that captures the same bytes at once and at every round after.
#[test]
fn a_capture_with_spilled_buffers_and_a_buffered_variant_recaptures_byte_identically() {
    let mut sim = crc8_flood().build();
    let mut originals = Vec::new();
    for (from, to) in [(0, 63), (27, 36), (56, 7)] {
        sim.inject(NodeId(from), NodeId(to), b"variant".to_vec());
        originals.push(sim.spread.buffers[from].as_slice()[0].clone());
    }
    // A copy none of the injected ones shares its body with: a
    // variant under a live id, or under one the upset made up.
    let variant_buffered = |sim: &Simulation| {
        let mut held = sim
            .spread
            .buffers
            .iter()
            .flat_map(|buffer| buffer.as_slice());
        held.any(|held| originals.iter().all(|original| !original.same_body(held)))
    };
    while !(variant_buffered(&sim) && sim.spread.buffers.iter().any(|b| b.len() > 1)) {
        assert!(sim.round() < 30, "no variant was buffered");
        sim.step();
    }
    let checkpoint = sim.checkpoint();
    let mut resumed = crc8_flood().resume(&checkpoint).unwrap();
    assert_eq!(resumed.checkpoint().to_bytes(), checkpoint.to_bytes());
    while sim.round() < 30 {
        assert_eq!(sim.step(), resumed.step());
        assert_eq!(
            sim.checkpoint().to_bytes(),
            resumed.checkpoint().to_bytes(),
            "round {}",
            sim.round()
        );
    }
}

/// A 6×6 gossip under `adversary`.
fn grid6_under(adversary: AdversarialScenarioBuilder) -> SimulationBuilder {
    SimulationBuilder::new(Topology::grid(6, 6))
        .forward_probability(0.7)
        .ttl(12)
        .max_rounds(40)
        .adversary(adversary.build().unwrap())
        .seed(13)
}

/// A workload's name, builder and `(source, destination)` injections.
type SinkWorkload = (
    &'static str,
    fn() -> SimulationBuilder,
    &'static [(usize, usize)],
);

/// Workloads with no overflow model: what a sink that records nothing
/// lets the forward walk prove duplicate covers every way a frame can
/// arrive.
const SINK_WORKLOADS: [SinkWorkload; 7] = [
    (
        "clean flood with termination",
        || {
            SimulationBuilder::new(Topology::grid(6, 6))
                .config(
                    StochasticConfig::flooding(10)
                        .with_max_rounds(30)
                        .with_termination(true),
                )
                .seed(1)
        },
        &[(0, 35), (30, 5)],
    ),
    (
        "chaos delay and reorder",
        || {
            grid6_under(
                AdversarialScenario::builder()
                    .delay_probability(0.2)
                    .reorder_probability(0.3),
            )
        },
        &[(0, 35), (30, 5)],
    ),
    (
        "tiles killed mid-run",
        || {
            let mut deaths = CrashSchedule::new();
            deaths.kill_tile(7, 5).kill_tile(21, 6);
            SimulationBuilder::new(Topology::grid(6, 6))
                .config(StochasticConfig::flooding(12).with_max_rounds(30))
                .crash_schedule(deaths)
                .seed(3)
        },
        &[(0, 35), (30, 5)],
    ),
    (
        "Byzantine forge",
        || {
            grid6_under(
                AdversarialScenario::builder()
                    .byzantine_tile(7)
                    .byzantine_tile(28)
                    .byzantine_mode(ByzantineMode::Forge)
                    .byzantine_activation(0.5),
            )
        },
        &[(0, 35), (30, 5)],
    ),
    (
        "Byzantine replay",
        || {
            grid6_under(
                AdversarialScenario::builder()
                    .byzantine_tile(7)
                    .byzantine_tile(28)
                    .byzantine_mode(ByzantineMode::Replay)
                    .byzantine_activation(0.5),
            )
        },
        &[(0, 35), (30, 5)],
    ),
    (
        "self-addressed inject",
        || {
            SimulationBuilder::new(grid4())
                .config(StochasticConfig::flooding(8).with_max_rounds(20))
                .seed(4)
        },
        &[(5, 5), (0, 15), (9, 9)],
    ),
    (
        "CRC-8 under upsets",
        || {
            let model = FaultModel::builder()
                .p_upset(0.5)
                .error_model(ErrorModel::RandomBitError)
                .build()
                .unwrap();
            SimulationBuilder::new(Topology::grid(8, 8))
                .config(StochasticConfig::flooding(16).with_max_rounds(30))
                .fault_model(model)
                .wire_codec(WireCodec::new(noc_crc::CrcParams::CRC8_ATM))
                .seed(34)
        },
        &[(0, 63), (27, 36), (56, 7)],
    ),
];

/// The known-duplicate path is invisible: a run whose sink records
/// nothing, and so files known duplicates, and one whose sink counts
/// every event, and so files none, hold the same state at every
/// round boundary — checkpoint bytes and round stats — and end with
/// the same report.
#[test]
fn a_sink_that_records_nothing_changes_nothing() {
    for (name, builder, injections) in SINK_WORKLOADS {
        let mut null = builder().build();
        let mut counter = builder().build_with_sink(CounterSink::new());
        for &(from, to) in injections {
            null.inject(NodeId(from), NodeId(to), b"sink equivalence".to_vec());
            counter.inject(NodeId(from), NodeId(to), b"sink equivalence".to_vec());
        }
        let (mut known, mut counted_known) = (0, 0);
        while !null.is_complete() && null.round() < null.config().max_rounds {
            assert_eq!(null.step(), counter.step(), "{name}: round stats");
            known += null.flight.arrivals.next.known_len();
            counted_known += counter.flight.arrivals.next.known_len();
            assert!(
                null.checkpoint() == counter.checkpoint(),
                "{name}: checkpoint after round {}",
                null.round()
            );
        }
        assert!(counter.is_complete() == null.is_complete());
        assert!(known > 0, "{name}: no frame was filed as a known duplicate");
        assert_eq!(counted_known, 0, "{name}: a recording sink filed one");
        assert_eq!(
            format!("{:?}", null.into_report()),
            format!("{:?}", counter.into_report()),
            "{name}: final report"
        );
    }
}

/// Workloads the reserve is held to beside the sink ones: the
/// benchmark's fault model on a 16×16 grid (overflow and skew
/// included), upsets the CRC misses often enough to mint many variant
/// bodies and carry bytes, and a replaying tile under upsets.
const RESERVE_WORKLOADS: [SinkWorkload; 3] = [
    (
        "16×16 under the benchmark's faults",
        || {
            let model = FaultModel::builder()
                .p_upset(0.05)
                .p_overflow(0.02)
                .sigma_synch(0.1)
                .build()
                .unwrap();
            SimulationBuilder::new(Topology::grid(16, 16))
                .config(
                    StochasticConfig::new(0.75, 38)
                        .unwrap()
                        .with_max_rounds(64)
                        .with_termination(true),
                )
                .fault_model(model)
                .seed(2003)
        },
        &[(0, 255), (15, 240), (136, 119)],
    ),
    (
        "CRC-8 under heavy upsets",
        || {
            let model = FaultModel::builder()
                .p_upset(0.5)
                .error_model(ErrorModel::RandomBitError)
                .build()
                .unwrap();
            SimulationBuilder::new(Topology::grid(8, 8))
                .config(StochasticConfig::flooding(16).with_max_rounds(30))
                .fault_model(model)
                .wire_codec(WireCodec::new(noc_crc::CrcParams::CRC8_ATM))
                .seed(35)
        },
        &[
            (0, 63),
            (7, 56),
            (56, 7),
            (63, 0),
            (27, 36),
            (36, 27),
            (9, 54),
            (54, 9),
            (18, 45),
            (45, 18),
            (21, 42),
            (42, 21),
        ],
    ),
    (
        "Byzantine replay under upsets",
        || {
            let model = FaultModel::builder()
                .p_upset(0.3)
                .error_model(ErrorModel::RandomBitError)
                .build()
                .unwrap();
            grid6_under(
                AdversarialScenario::builder()
                    .byzantine_tile(7)
                    .byzantine_tile(28)
                    .byzantine_mode(ByzantineMode::Replay)
                    .byzantine_activation(0.8),
            )
            .fault_model(model)
            .wire_codec(WireCodec::new(noc_crc::CrcParams::CRC8_ATM))
        },
        &[(0, 35), (30, 5)],
    ),
];

/// Capture reserves what its `Extent` counts, and little more: at
/// every round of every workload the capture fits in its reserve, so
/// it never reallocates, and the reserve is at most 1.25 × the
/// capture plus 4 KiB. The second side is not asked of the two
/// workloads whose missed upsets mint bodies receive then drops or
/// purges: the body bound counts every upset the CRC missed, live or
/// not.
#[test]
fn every_capture_fits_its_reserve() {
    let tight = SINK_WORKLOADS.iter().chain(&RESERVE_WORKLOADS[..1]);
    let loose = RESERVE_WORKLOADS[1..].iter();
    let workloads = tight.map(|w| (w, true)).chain(loose.map(|w| (w, false)));
    for ((name, builder, injections), tight) in workloads {
        let mut sim = builder().build();
        for &(from, to) in *injections {
            sim.inject(NodeId(from), NodeId(to), b"reserve".to_vec());
        }
        loop {
            let (captured, reserve) = (sim.checkpoint().len(), sim.extent().bytes());
            let round = sim.round();
            assert!(
                captured <= reserve,
                "{name}: round {round}: {captured} > {reserve}"
            );
            let slack = captured + captured / 4 + 4096;
            assert!(
                !tight || reserve <= slack,
                "{name}: round {round}: reserve {reserve} for {captured}"
            );
            if sim.is_complete() || round >= sim.config().max_rounds {
                break;
            }
            sim.step();
        }
    }
}

#[test]
fn the_config_digest_is_computed_by_the_first_capture_or_by_a_resume() {
    let builder = || SimulationBuilder::new(grid4()).seed(3);
    let mut sim = builder().build();
    sim.inject(NodeId(0), NodeId(15), vec![1]);
    sim.step();
    assert_eq!(
        sim.plan.config_digest.get(),
        None,
        "a plain build computes none"
    );
    let ck = sim.checkpoint();
    assert_eq!(sim.plan.config_digest.get(), Some(&ck.config_digest()));
    let resumed = builder().resume(&ck).unwrap();
    assert_eq!(resumed.plan.config_digest.get(), Some(&ck.config_digest()));
}
