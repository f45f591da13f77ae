//! Criterion: APH record throughput — the per-call profiling overhead
//! (§1.1 argues this is affordable under vectorized execution).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ma_core::{Aph, PrimitiveProfile};

fn bench_aph(c: &mut Criterion) {
    let mut group = c.benchmark_group("profiling_per_call");
    group.throughput(Throughput::Elements(1));
    let mut aph = Aph::default();
    group.bench_function("aph_record", |b| {
        b.iter(|| {
            aph.record(1024, 4096);
            std::hint::black_box(aph.total_calls())
        })
    });
    let mut profile = PrimitiveProfile::default();
    group.bench_function("profile_record", |b| {
        b.iter(|| {
            profile.record(1024, 4096);
            std::hint::black_box(profile.calls)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_aph);
criterion_main!(benches);
