//! Throughput of the BSP superstep engine on a ring whose process bodies
//! spin through real local work each superstep.

use bvl_bsp::{BspMachine, BspParams, FnProcess, Status};
use bvl_model::{Payload, ProcId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn ring(p: usize, rounds: u64, work: u64) -> Vec<FnProcess<i64>> {
    (0..p)
        .map(|_| {
            FnProcess::new(0i64, move |acc, ctx| {
                let p = ctx.p();
                if ctx.superstep_index() > 0 {
                    *acc += ctx.recv().map(|m| m.payload.expect_word()).unwrap_or(0);
                }
                if ctx.superstep_index() < rounds {
                    // Real spinning: the local phase does work beside
                    // the one send.
                    let mut x = *acc;
                    for i in 0..work {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(i as i64);
                    }
                    *acc = x & 0xff;
                    ctx.charge(work);
                    let right = ProcId(((ctx.me().0 as usize + 1) % p) as u32);
                    ctx.send(right, Payload::word(0, *acc));
                    Status::Continue
                } else {
                    Status::Halt
                }
            })
        })
        .collect()
}

fn bench_bsp(c: &mut Criterion) {
    let mut group = c.benchmark_group("bsp_engine");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    for p in [64usize, 256] {
        group.bench_with_input(BenchmarkId::new("ring_seq", p), &p, |b, &p| {
            let params = BspParams::new(p, 2, 16).unwrap();
            b.iter(|| {
                let mut m = BspMachine::new(params, ring(p, 8, 2000));
                m.run(16).unwrap().cost
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bsp);
criterion_main!(benches);
