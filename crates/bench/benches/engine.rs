//! Benchmarks of the deterministic parallel campaign engine: the same
//! campaigns serial (one worker) and parallel (the machine's worker
//! count), so `cargo bench --bench engine` reports what the shard-and-
//! merge architecture buys on this host. Output is bit-identical across
//! thread counts (the determinism suite asserts it), so the comparison is
//! pure engine overhead/speedup — never a different workload.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mcdn_bench::{dns_campaign, micro_world};
use mcdn_scenario::{run_isp_traffic, CampaignKind};

fn bench_global_campaign(c: &mut Criterion) {
    let (cfg, world) = micro_world();
    let serial = dns_campaign(&world, &cfg, CampaignKind::Global, 1)
        .run
        .into_result();
    let mut g = c.benchmark_group("engine/global_dns");
    g.sample_size(10);
    g.throughput(Throughput::Elements(serial.resolutions));
    g.bench_function("serial", |b| {
        b.iter(|| std::hint::black_box(dns_campaign(&world, &cfg, CampaignKind::Global, 1)))
    });
    g.bench_function("parallel", |b| {
        b.iter(|| {
            let threads = mcdn_exec::thread_count();
            std::hint::black_box(dns_campaign(&world, &cfg, CampaignKind::Global, threads))
        })
    });
    g.finish();
}

fn bench_isp_campaign(c: &mut Criterion) {
    let (cfg, world) = micro_world();
    let serial = dns_campaign(&world, &cfg, CampaignKind::Isp, 1)
        .run
        .into_result();
    let mut g = c.benchmark_group("engine/isp_dns");
    g.sample_size(10);
    g.throughput(Throughput::Elements(serial.resolutions));
    g.bench_function("serial", |b| {
        b.iter(|| std::hint::black_box(dns_campaign(&world, &cfg, CampaignKind::Isp, 1)))
    });
    g.bench_function("parallel", |b| {
        b.iter(|| {
            let threads = mcdn_exec::thread_count();
            std::hint::black_box(dns_campaign(&world, &cfg, CampaignKind::Isp, threads))
        })
    });
    g.finish();
}

fn bench_traffic(c: &mut Criterion) {
    let (cfg, world) = micro_world();
    let (serial, _) = run_isp_traffic(&world, &cfg, 1);
    let mut g = c.benchmark_group("engine/isp_traffic");
    g.sample_size(10);
    g.throughput(Throughput::Elements(serial.flows.len() as u64));
    g.bench_function("serial", |b| {
        b.iter(|| std::hint::black_box(run_isp_traffic(&world, &cfg, 1)))
    });
    g.bench_function("parallel", |b| {
        b.iter(|| std::hint::black_box(run_isp_traffic(&world, &cfg, mcdn_exec::thread_count())))
    });
    g.finish();
}

criterion_group!(
    engine,
    bench_global_campaign,
    bench_isp_campaign,
    bench_traffic
);
criterion_main!(engine);
