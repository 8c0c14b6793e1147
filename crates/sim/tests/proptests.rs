//! Property-based tests for the simulator substrate: FTL mapping invariants
//! under arbitrary operation sequences, event-queue ordering, and the
//! redundancy layer's replica/stripe-set routing.

use proptest::prelude::*;
use rr_sim::array::{PlacementPolicy, Redundancy};
use rr_sim::config::SsdConfig;
use rr_sim::event::EventQueue;
use rr_sim::ftl::Ftl;
use rr_sim::request::{HostRequest, IoOp};
use rr_util::time::SimTime;

fn small_cfg() -> SsdConfig {
    let mut cfg = SsdConfig::scaled_for_tests();
    cfg.chip.blocks_per_plane = 16;
    cfg.chip.pages_per_block = 12;
    cfg
}

/// Drives an [`EventQueue`] and a naive reference — a `Vec` whose minimum by
/// `(time, insertion sequence)` pops first — through `burst` same-tick
/// pushes at time zero and then `ops`, asserting they agree after every
/// step and while draining.
///
/// Each op is `(kind, delta, magnitude)`: kinds 0–5 push at
/// `clock + delta · 1000^magnitude` ns (`clock` = last popped time, so
/// nothing is scheduled into the past), 6–7 pop, 8 peeks, 9 resets.
fn replay_against_reference(burst: usize, ops: &[(u8, u64, u32)]) -> Result<(), String> {
    let mut queue = EventQueue::new();
    // (time, sequence, payload); the sequence restarts at 0 on reset.
    let mut reference: Vec<(SimTime, u64, usize)> = Vec::new();
    let mut seq = 0u64;
    let reference_pop = |reference: &mut Vec<(SimTime, u64, usize)>| {
        let at = (0..reference.len()).min_by_key(|&j| (reference[j].0, reference[j].1))?;
        let (t, _, payload) = reference.remove(at);
        Some((t, payload))
    };
    for i in 0..burst {
        queue.push(SimTime::ZERO, ops.len() + i);
        reference.push((SimTime::ZERO, seq, ops.len() + i));
        seq += 1;
    }
    let mut clock = SimTime::ZERO;
    for (i, &(op, delta, magnitude)) in ops.iter().enumerate() {
        match op {
            // Push-heavy mix; `delta = 0` re-lands on the current tick and
            // the magnitude ladder spans ns to tens of seconds.
            0..=5 => {
                let t = clock + SimTime::from_ns(delta * 1_000u64.pow(magnitude));
                queue.push(t, i);
                reference.push((t, seq, i));
                seq += 1;
            }
            6 | 7 => {
                let (a, b) = (queue.pop(), reference_pop(&mut reference));
                prop_assert_eq!(a, b, "pop diverged at op {}", i);
                if let Some((t, _)) = a {
                    clock = t;
                }
            }
            8 => {
                let min = reference.iter().map(|e| e.0).min();
                prop_assert_eq!(queue.peek_time(), min, "peek diverged at op {}", i);
            }
            _ => {
                queue.reset();
                reference.clear();
                seq = 0;
                clock = SimTime::ZERO;
            }
        }
        prop_assert_eq!(queue.len(), reference.len(), "len diverged at op {}", i);
        prop_assert_eq!(queue.is_empty(), reference.is_empty());
    }
    // Drain whatever is left in lock-step.
    loop {
        let (a, b) = (queue.pop(), reference_pop(&mut reference));
        prop_assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            return Ok(());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After any sequence of overwrites and GC cycles, the LPN → PPN map
    /// stays a bijection onto valid pages and block valid-counts stay
    /// consistent.
    #[test]
    fn ftl_mapping_stays_bijective(ops in prop::collection::vec((0u64..400, any::<bool>()), 1..400)) {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg, 400).expect("footprint fits");
        ftl.precondition();
        for (lpn, run_gc) in ops {
            ftl.allocate_for_write(lpn).expect("space available");
            if run_gc {
                // Opportunistic full GC cycle on the page's plane.
                let plane = ftl.locate(ftl.translate(lpn).expect("mapped")).plane_global;
                if let Some(job) = ftl.start_gc(plane) {
                    for (mlpn, src) in job.moves {
                        if ftl.gc_move_still_needed(mlpn, src) {
                            ftl.allocate_for_gc(mlpn, job.plane).expect("reserve space");
                        }
                    }
                    ftl.finish_gc(job.victim_block);
                }
            }
        }
        // Bijectivity + reverse-map consistency.
        let mut seen = std::collections::HashSet::new();
        for lpn in 0..400u64 {
            let ppn = ftl.translate(lpn).expect("all LPNs stay mapped");
            prop_assert!(seen.insert(ppn), "two LPNs map to {ppn:?}");
            prop_assert_eq!(ftl.reverse(ppn), Some(lpn));
        }
        // Valid counts equal the number of mapped pages per block.
        let total_blocks = cfg.total_blocks() as u32;
        let mut per_block = vec![0u32; total_blocks as usize];
        for lpn in 0..400u64 {
            let loc = ftl.locate(ftl.translate(lpn).expect("mapped"));
            per_block[loc.block_global as usize] += 1;
        }
        for b in 0..total_blocks {
            prop_assert_eq!(
                ftl.block_valid_count(b),
                per_block[b as usize],
                "valid count mismatch in block {}", b
            );
        }
    }

    /// The event queue pops in non-decreasing time order with FIFO ties,
    /// for any insertion pattern.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..10_000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_us(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!(t >= lt, "time order violated");
                if t == lt {
                    prop_assert!(id > lid, "FIFO tie-break violated");
                }
            }
            last = Some((t, id));
        }
    }

    /// The sorted-vector queue is observationally identical to a naive
    /// reference under any interleaving of `push`/`pop`/`peek_time`/`len`/
    /// `reset`: same-tick FIFO bursts, spans from single nanoseconds to tens
    /// of seconds, and post-`reset` reuse (the arena path).
    #[test]
    fn sorted_queue_matches_min_scan_reference_on_any_interleaving(
        ops in prop::collection::vec((0u8..10, 0u64..50, 0u32..4), 1..400)
    ) {
        replay_against_reference(0, &ops)?;
    }

    /// The closed-loop QD-256 start: 256 events land on the same tick
    /// before anything pops, then pops and pushes interleave (no reset, so
    /// the burst drains through the mix).
    #[test]
    fn same_tick_burst_of_256_then_any_interleaving_matches_the_reference(
        ops in prop::collection::vec((0u8..9, 0u64..50, 0u32..4), 1..600)
    ) {
        replay_against_reference(256, &ops)?;
    }

    /// `Redundancy::route_set` is a pure deterministic function with the
    /// documented shape for any (scheme, request, array, failure) input:
    /// stable across calls, never larger than the stripe span, never
    /// repeating a device, in-range, skipping the failed device — and its
    /// degraded set is the unfailed set's surviving prefix order with at
    /// most one fill-in successor appended.
    #[test]
    fn route_set_is_stable_bounded_and_degrades_deterministically(
        scheme_pick in 0u8..3,
        r in 2u32..6,
        k in 1u32..5,
        extra in 1u32..4,
        devices in 1u32..9,
        failed_raw in 0u32..10,
        index in 0usize..10_000,
        lpn in 0u64..100_000,
        is_read in any::<bool>(),
        policy_pick in 0u8..3,
    ) {
        let scheme = match scheme_pick {
            0 => Redundancy::None,
            1 => Redundancy::Replicate { r },
            _ => Redundancy::Ec { k, n: k + extra },
        };
        let policy = match policy_pick {
            0 => PlacementPolicy::RoundRobin,
            1 => PlacementPolicy::LpnHash,
            _ => PlacementPolicy::HotCold,
        };
        // 0 = no failure, 1..=9 = device 0..=8 failed (possibly out of range).
        let failed = failed_raw.checked_sub(1);
        let footprint = 100_000u64;
        let op = if is_read { IoOp::Read } else { IoOp::Write };
        let req = HostRequest::new(SimTime::from_us(index as u64), op, lpn, 1);
        let set = scheme.route_set(index, &req, devices, footprint, policy, failed);
        // Stable across calls.
        prop_assert_eq!(
            &set,
            &scheme.route_set(index, &req, devices, footprint, policy, failed),
            "route_set must be a pure function"
        );
        // Never empty, never over the stripe span, never out of range,
        // never repeating a device.
        let span = match scheme {
            Redundancy::None => 1,
            Redundancy::Replicate { r } => r.min(devices),
            Redundancy::Ec { k, n } => if is_read { k.min(n).min(devices) } else { n.min(devices) },
        };
        prop_assert!(!set.is_empty(), "a request must route somewhere");
        prop_assert!(set.len() <= span as usize, "set exceeds the stripe span");
        prop_assert!(set.iter().all(|&d| d < devices), "out-of-range device");
        let mut dedup = set.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), set.len(), "a device repeated in the set");
        // The failed device is never a member as long as the stripe span
        // holds an alternative; with nothing else in span (e.g. `none` with
        // its primary dead, or a one-device array) the set degenerates to
        // the placement primary rather than losing the request.
        if let Some(f) = failed {
            let primary = policy.route(index, &req, devices, footprint);
            let full_span = match scheme {
                Redundancy::None => 1,
                Redundancy::Replicate { .. } => devices,
                Redundancy::Ec { n, .. } => n.min(devices),
            };
            let has_alternative = (0..full_span).any(|j| (primary + j) % devices != f);
            if has_alternative {
                prop_assert!(
                    !set.contains(&f),
                    "the failed device must be routed around"
                );
            } else {
                prop_assert_eq!(
                    &set,
                    &vec![primary],
                    "with no in-span survivor the set degenerates to the primary"
                );
            }
        }
        // Deterministic degradation: the unfailed set minus the failed
        // device is a prefix of the degraded set (survivors keep their
        // order), and at most one fill-in successor is appended.
        if let Some(f) = failed {
            let unfailed = scheme.route_set(index, &req, devices, footprint, policy, None);
            if devices > 1 || f >= devices {
                let kept: Vec<u32> =
                    unfailed.iter().copied().filter(|&d| d != f).collect();
                prop_assert!(
                    set.len() >= kept.len() && set[..kept.len()] == kept[..],
                    "survivors must keep their unfailed order"
                );
                prop_assert!(
                    set.len() <= kept.len() + 1,
                    "at most one successor fills in for the failed member"
                );
            }
        }
    }

    /// Preconditioning then overwriting a subset leaves exactly that subset
    /// hot (the cold/retention bookkeeping behind Table 2).
    #[test]
    fn cold_tracking_matches_overwrites(hot in prop::collection::btree_set(0u64..300, 0..80)) {
        let cfg = small_cfg();
        let mut ftl = Ftl::new(&cfg, 300).expect("footprint fits");
        ftl.precondition();
        for &lpn in &hot {
            ftl.allocate_for_write(lpn).expect("space available");
        }
        for lpn in 0..300u64 {
            prop_assert_eq!(ftl.is_cold(lpn), !hot.contains(&lpn));
        }
    }
}
