//! Micro-benchmarks of the hot substrate paths: the discrete-event queue,
//! the per-page error model and its decode outcome, BCH decoding, and
//! workload sampling.

use criterion::{criterion_group, criterion_main, Criterion};
use rr_ecc::bch::BchCode;
use rr_flash::calibration::{OperatingCondition, ECC_CAPABILITY_PER_KIB};
use rr_flash::error_model::{ErrorModel, PageId, PageReadProfile};
use rr_flash::timing::SensePhases;
use rr_sim::event::EventQueue;
use rr_util::dist::Zipf;
use rr_util::rng::Rng;
use rr_util::time::SimTime;
use std::hint::black_box;

fn event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_event_queue");
    // Scattered insertion of 1k events, then a full drain.
    let drive = |mut q: EventQueue<u64>| {
        for i in 0..1_000u64 {
            q.push(SimTime::from_ns((i * 7919) % 100_000 + 100_000), i);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        acc
    };
    g.bench_function("push_pop_1k", |b| {
        b.iter(|| black_box(drive(EventQueue::new())))
    });
    // Steady-state shape: a bounded working set sliding forward in time,
    // closer to the simulator's lazy-admission event population. Depth 8 is
    // the mean pending-event count of the Fig. 14 matrix.
    let steady = |mut q: EventQueue<u64>, depth: u64| {
        for i in 0..depth {
            q.push(SimTime::from_ns(i * 997), i);
        }
        let mut acc = 0u64;
        for i in 0..1_000u64 {
            let (now, v) = q.pop().expect("queue stays primed");
            acc = acc.wrapping_add(v);
            q.push(now + SimTime::from_ns((i * 7919) % 60_000 + 1), i);
        }
        acc
    };
    for depth in [8, 64] {
        g.bench_function(format!("steady_state_{depth}"), |b| {
            b.iter(|| black_box(steady(EventQueue::new(), depth)))
        });
    }
    g.finish();
}

fn error_model(c: &mut Criterion) {
    let model = ErrorModel::new(42);
    let cond = OperatingCondition::new(2000.0, 12.0, 30.0);
    let reduced = SensePhases::table1().with_reduction(0.4, 0.0, 0.0);
    let mut g = c.benchmark_group("micro_error_model");
    g.bench_function("required_step_index", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(model.required_step_index(PageId::new(i % 4096, (i % 576) as u32), cond))
        })
    });
    g.bench_function("errors_at_step_reduced_timing", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(model.errors_at_step(
                PageId::new(i % 4096, (i % 576) as u32),
                cond,
                (i % 20) as u32,
                &reduced,
            ))
        })
    });
    g.finish();
}

/// The simulator's per-sense question — does this step decode? — asked
/// through the exact count (`errors_with_profile`) and through the bounded
/// one (`errors_within`), on and off the near-optimal plateau.
fn decode_outcome(c: &mut Criterion) {
    let model = ErrorModel::new(42);
    let cond = OperatingCondition::new(2000.0, 12.0, 30.0);
    let pages: Vec<(PageId, PageReadProfile)> = (0..256u64)
        .map(|i| PageId::new(i / 8, (i % 8) as u32))
        .map(|p| (p, model.page_profile(p, cond)))
        .collect();
    let cap = ECC_CAPABILITY_PER_KIB;
    let mut g = c.benchmark_group("micro_decode_outcome");
    // Off the plateau: the failing step just before the required one, where
    // the simulator spends most senses. On it: the required step.
    let off = |p: &PageReadProfile| p.required_step.saturating_sub(1);
    let on = |p: &PageReadProfile| p.required_step;
    for (plateau, step_of) in [
        ("off_plateau", &off as &dyn Fn(&PageReadProfile) -> u32),
        ("on_plateau", &on),
    ] {
        // Each iteration decodes all 256 pages once.
        g.bench_function(format!("errors_with_profile_{plateau}_x256"), |b| {
            b.iter(|| {
                pages
                    .iter()
                    .filter_map(|(page, profile)| {
                        let errors =
                            model.errors_with_profile(*page, profile, step_of(profile), 0.0);
                        (errors <= cap).then_some(errors)
                    })
                    .sum::<u32>()
            })
        });
        g.bench_function(format!("errors_within_{plateau}_x256"), |b| {
            b.iter(|| {
                pages
                    .iter()
                    .filter_map(|(page, profile)| {
                        model.errors_within(*page, profile, step_of(profile), 0.0, cap)
                    })
                    .sum::<u32>()
            })
        });
    }
    g.finish();
}

fn bch(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_bch");
    g.sample_size(20);
    let small = BchCode::small_test_code().expect("valid parameters");
    let data = vec![0xA7u8; 16];
    let clean = small.encode_bytes(&data).expect("sized payload");
    g.bench_function("encode_t8", |b| {
        b.iter(|| black_box(small.encode_bytes(&data).unwrap()))
    });
    g.bench_function("decode_t8_8errors", |b| {
        b.iter(|| {
            let mut cw = clean.clone();
            for i in 0..8 {
                cw.flip(i * 19 + 3);
            }
            black_box(small.decode(&mut cw).unwrap().corrected)
        })
    });
    let nand = BchCode::nand_72_per_kib().expect("valid parameters");
    let payload = vec![0x3Cu8; 1024];
    let clean_1k = nand.encode_bytes(&payload).expect("1-KiB payload");
    g.bench_function("encode_1kib_t72", |b| {
        b.iter(|| black_box(nand.encode_bytes(&payload).unwrap()))
    });
    g.bench_function("decode_1kib_t72_72errors", |b| {
        b.iter(|| {
            let mut cw = clean_1k.clone();
            for i in 0..72 {
                cw.flip(i * 127 + 13);
            }
            black_box(nand.decode(&mut cw).unwrap().corrected)
        })
    });
    g.finish();
}

fn sampling(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_sampling");
    let zipf = Zipf::new(100_000, 0.99).expect("valid parameters");
    g.bench_function("zipf_sample", |b| {
        let mut rng = Rng::seed_from_u64(5);
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
    g.bench_function("xoshiro_next", |b| {
        let mut rng = Rng::seed_from_u64(5);
        b.iter(|| black_box(rng.next_u64()))
    });
    g.finish();
}

criterion_group!(
    benches,
    event_queue,
    error_model,
    decode_outcome,
    bch,
    sampling
);
criterion_main!(benches);
