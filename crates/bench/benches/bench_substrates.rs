//! Micro-benchmarks of the substrate kernels every experiment leans on:
//! RNG, inequality indices, graph algorithms, policy routing, text
//! vectorization, and reliability statistics.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use humnet_graph::{barabasi_albert, betweenness_centrality, pagerank};
use humnet_ixp::routing::reference::ReferenceTable;
use humnet_ixp::{synthetic_internet, AsKind, AsTopology, RegionTag, RoutingTable};
use humnet_stats::{bootstrap_ci, gini, mean, PrefixSampler, Rng};
use humnet_text::{tokenize, MarkovModel, TfIdf};

fn bench_rng(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_rng");
    group.bench_function("next_u64_x1000", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        })
    });
    group.bench_function("gaussian_x1000", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += rng.gaussian();
            }
            black_box(acc)
        })
    });
    group.bench_function("zipf_n1000", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| black_box(rng.zipf(1000, 1.2)))
    });
    // The agenda ABM's pattern: 110 discovery weights, one draw, then the
    // drawn problem's weight grows. The oracle rescans every weight per
    // draw; the prefix sampler binary-searches and refreshes from the
    // updated index on.
    let mut wrng = Rng::new(6);
    let weights: Vec<f64> = (0..110)
        .map(|_| wrng.next_f64() * wrng.next_f64() + 0.01)
        .collect();
    group.bench_function("choose_weighted_110", |b| {
        let mut rng = Rng::new(1);
        let mut w = weights.clone();
        b.iter(|| {
            let pick = rng.choose_weighted(&w);
            w[pick] += 0.01;
            black_box(pick)
        })
    });
    group.bench_function("prefix_sampler_110", |b| {
        let mut rng = Rng::new(1);
        let mut w = weights.clone();
        let mut sampler = PrefixSampler::new();
        sampler.reset(w.iter().copied());
        b.iter(|| {
            let pick = sampler.sample(&mut rng);
            w[pick] += 0.01;
            sampler.set(pick, w[pick]);
            black_box(pick)
        })
    });
    group.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_stats");
    let mut rng = Rng::new(2);
    let data: Vec<f64> = (0..10_000).map(|_| rng.pareto(1.0, 1.5)).collect();
    group.bench_function("gini_10k", |b| b.iter(|| black_box(gini(&data).unwrap())));
    group.bench_function("bootstrap_mean_1k_x200", |b| {
        let sample: Vec<f64> = data.iter().take(1000).copied().collect();
        b.iter(|| {
            let mut rng = Rng::new(3);
            black_box(
                bootstrap_ci(&sample, |d| mean(d).unwrap(), 200, 0.95, &mut rng)
                    .unwrap()
                    .estimate,
            )
        })
    });
    group.finish();
}

fn bench_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_graph");
    let mut rng = Rng::new(4);
    let g = barabasi_albert(500, 3, &mut rng).unwrap();
    group.bench_function("pagerank_ba500", |b| {
        b.iter(|| black_box(pagerank(&g, 0.85, 1e-9, 100).unwrap()[0]))
    });
    group.bench_function("betweenness_ba500", |b| {
        b.iter(|| black_box(betweenness_centrality(&g).unwrap()[0]))
    });
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_routing");
    // A layered AS hierarchy of ~100 ASes with peering.
    for n in [40usize, 100] {
        group.bench_with_input(BenchmarkId::new("routing_table", n), &n, |b, &n| {
            let mut rng = Rng::new(5);
            let mut t = AsTopology::new();
            let region = RegionTag::new("X", false);
            for i in 0..n {
                t.add_as(&format!("AS{i}"), AsKind::Access, &region, 1.0);
            }
            for j in 1..n {
                let p = rng.range(0, j);
                t.add_provider(j, p).unwrap();
            }
            for a in 0..n {
                for bb in (a + 1)..n {
                    if rng.chance(0.05) {
                        let _ = t.add_peering(a, bb, None);
                    }
                }
            }
            b.iter(|| black_box(RoutingTable::compute(&t).unwrap().as_count()))
        });
    }
    group.finish();
}

/// Large-N routing baselines for the ROADMAP internet-scale item: the SoA
/// engine (serial and 8-thread, all-pairs and sampled) against the
/// retained seed implementation on `synthetic_internet` topologies.
fn bench_routing_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_scale");
    let t1k = synthetic_internet(1_000, 5).unwrap();
    group.bench_function("seed_1k_all_pairs", |b| {
        b.iter(|| black_box(ReferenceTable::compute(&t1k).unwrap().as_count()))
    });
    // The SoA rows black-box the table itself: hashing it with `digest()`
    // would cost about as much as computing it.
    group.bench_function("soa_1k_all_pairs", |b| {
        b.iter(|| black_box(RoutingTable::compute(&t1k).unwrap()))
    });
    group.bench_function("soa_1k_all_pairs_par8", |b| {
        b.iter(|| black_box(RoutingTable::compute_parallel(&t1k, 8).unwrap()))
    });
    let t10k = synthetic_internet(10_000, 5).unwrap();
    let ft10k = t10k.freeze();
    let dests: Vec<usize> = (0..256).map(|i| (i * 39) % 10_000).collect();
    group.bench_function("soa_10k_sample256", |b| {
        b.iter(|| black_box(RoutingTable::compute_frozen(&ft10k, &dests, 1).unwrap()))
    });
    group.bench_function("soa_10k_sample256_par8", |b| {
        b.iter(|| black_box(RoutingTable::compute_frozen(&ft10k, &dests, 8).unwrap()))
    });
    group.finish();
}

fn bench_text(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_text");
    let docs: Vec<Vec<String>> = (0..200)
        .map(|i| {
            tokenize(&format!(
                "community networks are operated by people round {i}; \
                 we measure peering and routing behaviour at exchanges"
            ))
        })
        .collect();
    group.bench_function("tfidf_fit_200_docs", |b| {
        b.iter(|| black_box(TfIdf::fit(&docs).unwrap().vocabulary().len()))
    });
    let model = TfIdf::fit(&docs).unwrap();
    group.bench_function("tfidf_transform", |b| {
        b.iter(|| black_box(model.transform(&docs[7]).len()))
    });
    // One synthetic abstract as the corpus generator writes it: three
    // sentences of at most 14 words from a topic-trained chain.
    let mut markov = MarkovModel::new();
    markov.train_text(
        "Community networks are built and operated by local residents. \
         Volunteers maintain wireless infrastructure in rural areas. \
         We deploy low-cost equipment with community partners. Local operators \
         sustain the network through shared governance.",
    );
    group.bench_function("markov_paragraph", |b| {
        let mut rng = Rng::new(8);
        b.iter(|| black_box(markov.generate_paragraph(3, 14, &mut rng)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rng,
    bench_stats,
    bench_graph,
    bench_routing,
    bench_routing_scale,
    bench_text
);
criterion_main!(benches);
