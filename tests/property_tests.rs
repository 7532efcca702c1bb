//! Property-based tests over the toolkit's core invariants.

use humnet::community::{AllocationPolicy, CongestionConfig, CongestionSim};
use humnet::graph::{erdos_renyi, pagerank};
use humnet::ixp::{AsKind, AsTopology, RegionTag, RouteKind, RoutingTable};
use humnet::qual::{cohen_kappa, krippendorff_alpha, percent_agreement};
use humnet::stats::{
    evenness, gini, jain_fairness, lorenz_curve, mean, quantile, shannon_entropy, PrefixSampler,
    Rng,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn gini_bounded_and_scale_invariant(
        data in prop::collection::vec(0.01f64..1000.0, 2..60),
        scale in 0.1f64..100.0,
    ) {
        let g = gini(&data).unwrap();
        prop_assert!((0.0..1.0).contains(&g));
        let scaled: Vec<f64> = data.iter().map(|x| x * scale).collect();
        let gs = gini(&scaled).unwrap();
        prop_assert!((g - gs).abs() < 1e-9);
    }

    #[test]
    fn lorenz_curve_is_convex_monotone(
        data in prop::collection::vec(0.01f64..1000.0, 2..60),
    ) {
        let curve = lorenz_curve(&data).unwrap();
        prop_assert_eq!(curve[0], (0.0, 0.0));
        for w in curve.windows(2) {
            prop_assert!(w[1].1 >= w[0].1 - 1e-12);
            prop_assert!(w[1].1 <= w[1].0 + 1e-9, "curve must stay under the diagonal");
        }
        // Slopes are nondecreasing (ascending sort => convex curve).
        for w in curve.windows(3) {
            let s1 = (w[1].1 - w[0].1) / (w[1].0 - w[0].0);
            let s2 = (w[2].1 - w[1].1) / (w[2].0 - w[1].0);
            prop_assert!(s2 >= s1 - 1e-9);
        }
    }

    #[test]
    fn jain_bounds(data in prop::collection::vec(0.0f64..100.0, 1..50)) {
        prop_assume!(data.iter().any(|&x| x > 0.0));
        let j = jain_fairness(&data).unwrap();
        let n = data.len() as f64;
        prop_assert!(j >= 1.0 / n - 1e-12);
        prop_assert!(j <= 1.0 + 1e-12);
    }

    #[test]
    fn entropy_bounds_and_evenness(
        counts in prop::collection::vec(0.01f64..100.0, 1..40),
    ) {
        let h = shannon_entropy(&counts).unwrap();
        prop_assert!(h >= -1e-12);
        prop_assert!(h <= (counts.len() as f64).ln() + 1e-9);
        let e = evenness(&counts).unwrap();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&e));
    }

    #[test]
    fn quantile_is_monotone_and_bounded(
        data in prop::collection::vec(-1e6f64..1e6, 1..80),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let v_lo = quantile(&data, lo).unwrap();
        let v_hi = quantile(&data, hi).unwrap();
        prop_assert!(v_lo <= v_hi + 1e-9);
        let min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v_lo >= min - 1e-9 && v_hi <= max + 1e-9);
    }

    #[test]
    fn mean_between_min_and_max(data in prop::collection::vec(-1e6f64..1e6, 1..80)) {
        let m = mean(&data).unwrap();
        let min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= min - 1e-6 && m <= max + 1e-6);
    }

    #[test]
    fn pagerank_is_a_distribution(seed in 0u64..500, n in 2usize..40, p in 0.05f64..0.9) {
        let mut rng = Rng::new(seed);
        let g = erdos_renyi(n, p, &mut rng).unwrap();
        let pr = pagerank(&g, 0.85, 1e-10, 200).unwrap();
        let sum: f64 = pr.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        prop_assert!(pr.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn kappa_and_alpha_agree_on_self(labels in prop::collection::vec(0usize..4, 4..40)) {
        prop_assume!(labels.iter().any(|&l| l != labels[0]));
        let a: Vec<Option<usize>> = labels.iter().map(|&l| Some(l)).collect();
        prop_assert!((cohen_kappa(&a, &a).unwrap() - 1.0).abs() < 1e-9);
        prop_assert!((percent_agreement(&a, &a).unwrap() - 1.0).abs() < 1e-12);
        prop_assert!((krippendorff_alpha(&[a.clone(), a]).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kappa_bounded_above_by_one(
        xs in prop::collection::vec(0usize..3, 6..40),
        ys in prop::collection::vec(0usize..3, 6..40),
    ) {
        let n = xs.len().min(ys.len());
        let a: Vec<Option<usize>> = xs[..n].iter().map(|&l| Some(l)).collect();
        let b: Vec<Option<usize>> = ys[..n].iter().map(|&l| Some(l)).collect();
        if let Ok(k) = cohen_kappa(&a, &b) {
            prop_assert!(k <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn congestion_outcomes_bounded(seed in 0u64..100, sigma in 0.2f64..1.6) {
        let mut cfg = CongestionConfig::default();
        cfg.rounds = 60;
        cfg.seed = seed;
        cfg.demand_sigma = sigma;
        let sim = CongestionSim::new(cfg).unwrap();
        for policy in AllocationPolicy::ALL {
            let out = sim.run(policy);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&out.fairness), "{policy:?}");
            prop_assert!((0.0..=1.0 + 1e-9).contains(&out.utilization));
            prop_assert!((0.0..=1.0).contains(&out.starvation));
        }
    }
}

proptest! {
    #[test]
    fn louvain_partition_is_valid_and_nonnegative_q(seed in 0u64..200, n in 4usize..30, p in 0.1f64..0.8) {
        let mut rng = Rng::new(seed);
        let g = erdos_renyi(n, p, &mut rng).unwrap();
        prop_assume!(g.edge_count() > 0);
        let partition = humnet::graph::louvain(&g).unwrap();
        prop_assert_eq!(partition.membership.len(), n);
        let q = humnet::graph::modularity(&g, &partition).unwrap();
        // Louvain never does worse than the singleton partition baseline
        // it starts from, and modularity is bounded.
        prop_assert!((-0.5 - 1e-9..=1.0 + 1e-9).contains(&q));
        // Every community label is in range.
        let k = partition.community_count();
        prop_assert!(partition.membership.iter().all(|&c| c < k));
    }

    #[test]
    fn core_numbers_bounded_by_degree(seed in 0u64..200, n in 2usize..40, p in 0.05f64..0.7) {
        let mut rng = Rng::new(seed);
        let g = erdos_renyi(n, p, &mut rng).unwrap();
        let core = humnet::graph::core_numbers(&g);
        for v in 0..n {
            prop_assert!(core[v] <= g.degree(v));
        }
        // Max core number is at least min degree of the densest... weak but
        // useful bound: max core <= max degree.
        let max_core = core.iter().copied().max().unwrap_or(0);
        let max_deg = (0..n).map(|v| g.degree(v)).max().unwrap_or(0);
        prop_assert!(max_core <= max_deg);
    }

    #[test]
    fn interval_alpha_at_most_one(
        base in prop::collection::vec(0.0f64..5.0, 5..30),
        noise in prop::collection::vec(-1.0f64..1.0, 5..30),
    ) {
        let n = base.len().min(noise.len());
        let a: Vec<Option<f64>> = base[..n].iter().map(|&x| Some(x)).collect();
        let b: Vec<Option<f64>> = base[..n]
            .iter()
            .zip(&noise[..n])
            .map(|(&x, &e)| Some(x + e))
            .collect();
        if let Ok(alpha) = humnet::qual::krippendorff_alpha_interval(&[a, b]) {
            prop_assert!(alpha <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn growth_conserves_arrivals(seed in 0u64..100, rounds in 1u32..60, arrivals in 1usize..20) {
        let mut cfg = humnet::ixp::GrowthConfig::default();
        cfg.seed = seed;
        cfg.rounds = rounds;
        cfg.arrivals_per_round = arrivals;
        let initial: u32 = cfg.ixps.iter().map(|i| i.members).sum();
        let out = humnet::ixp::simulate_growth(&cfg).unwrap();
        let total: u32 = out.final_members.iter().sum();
        prop_assert_eq!(total, initial + rounds * arrivals as u32);
        prop_assert!((0.0..=1.0).contains(&out.top_share));
        prop_assert!((0.0..=1.0).contains(&out.south_joined_local));
    }

    #[test]
    fn economics_membership_bookkeeping(seed in 0u64..100, sigma in 0.2f64..1.5) {
        use humnet::community::{simulate_economics, DuesPolicy, EconomicsConfig};
        let mut cfg = EconomicsConfig::default();
        cfg.seed = seed;
        cfg.income_sigma = sigma;
        for policy in DuesPolicy::ALL {
            let out = simulate_economics(&cfg, policy).unwrap();
            prop_assert_eq!(
                out.remaining_members + out.dropped_for_affordability,
                cfg.households
            );
            prop_assert_eq!(out.balance_curve.len(), cfg.months as usize);
            if let Some(month) = out.insolvent_at {
                prop_assert!((month as usize) < out.balance_curve.len());
                prop_assert!(out.balance_curve[month as usize] < 0.0);
            }
        }
    }

    #[test]
    fn mesh_service_requires_up_state(seed in 0u64..100, nodes in 2usize..40) {
        use humnet::community::{MeshConfig, MeshNetwork, NodeState};
        let mut cfg = MeshConfig::default();
        cfg.nodes = nodes;
        cfg.gateways = 1;
        let mut rng = Rng::new(seed);
        let mut mesh = MeshNetwork::deploy(&cfg, &mut rng).unwrap();
        // Randomly fail some nodes.
        for v in 0..nodes {
            if rng.chance(0.3) {
                mesh.set_state(v, NodeState::Down).unwrap();
            }
        }
        let served = mesh.service_map();
        for v in 0..nodes {
            if served[v] {
                prop_assert_eq!(mesh.state(v).unwrap(), NodeState::Up);
            }
        }
        let frac = mesh.service_fraction();
        prop_assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn diary_compliance_curve_bounded(seed in 0u64..100, probe in 0.0f64..1.0) {
        let mut cfg = humnet::qual::DiaryConfig::default();
        cfg.probe_rate = probe;
        let out = humnet::qual::simulate_diary(&cfg, seed).unwrap();
        for &c in &out.compliance_curve {
            prop_assert!((0.0..=1.0).contains(&c));
        }
        prop_assert!((0.0..=1.0).contains(&out.prompted_share()));
    }
}

/// Build a random but guaranteed-acyclic AS hierarchy: for i < j, j may buy
/// transit from i; peers sprinkled on top.
fn random_topology(seed: u64, n: usize) -> AsTopology {
    let mut rng = Rng::new(seed);
    let mut t = AsTopology::new();
    let region = RegionTag::new("X", false);
    for i in 0..n {
        t.add_as(&format!("AS{i}"), AsKind::Access, &region, 1.0);
    }
    for j in 1..n {
        // Every AS below the root buys from at least one earlier AS.
        let provider = rng.range(0, j);
        t.add_provider(j, provider).unwrap();
        if rng.chance(0.3) {
            let p2 = rng.range(0, j);
            let _ = t.add_provider(j, p2);
        }
    }
    for a in 0..n {
        for b in (a + 1)..n {
            // Keep relationships unambiguous: no peering between pairs that
            // already have a transit relationship (hybrid relationships
            // exist in reality but would make the hop classifier below
            // ambiguous).
            let related =
                t.providers_of(a).contains(&b) || t.providers_of(b).contains(&a);
            if !related && rng.chance(0.1) {
                let _ = t.add_peering(a, b, None);
            }
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The central routing invariant: every computed path is valley-free —
    /// zero or more customer→provider hops, at most one peer hop, then
    /// zero or more provider→customer hops — and uses only real links.
    #[test]
    fn routes_are_valley_free(seed in 0u64..300, n in 3usize..16) {
        let topology = random_topology(seed, n);
        let routes = RoutingTable::compute(&topology).unwrap();
        for src in 0..n {
            for dst in 0..n {
                let Ok(route) = routes.route(src, dst) else { continue };
                if src == dst {
                    prop_assert_eq!(route.kind, RouteKind::SelfRoute);
                    continue;
                }
                prop_assert_eq!(*route.path.first().unwrap(), src);
                prop_assert_eq!(*route.path.last().unwrap(), dst);
                // Classify each hop; check the up* peer? down* shape.
                #[derive(PartialEq, Clone, Copy, Debug)]
                enum Phase { Up, Peer, Down }
                let mut phase = Phase::Up;
                let mut peer_hops = 0;
                for w in route.path.windows(2) {
                    let (u, v) = (w[0], w[1]);
                    let up = topology.providers_of(u).contains(&v);
                    let down = topology.customers_of(u).contains(&v);
                    let peer = topology.peers_of(u).iter().any(|&(x, _)| x == v);
                    prop_assert!(up || down || peer, "hop {u}->{v} uses no link");
                    let hop = if up { Phase::Up } else if down { Phase::Down } else { Phase::Peer };
                    // Phase may only move forward: Up -> Peer -> Down.
                    match (phase, hop) {
                        (Phase::Up, _) => phase = hop,
                        (Phase::Peer, Phase::Peer) => prop_assert!(false, "two peer hops"),
                        (Phase::Peer, Phase::Down) => phase = Phase::Down,
                        (Phase::Peer, Phase::Up) => prop_assert!(false, "up after peer"),
                        (Phase::Down, Phase::Down) => {}
                        (Phase::Down, _) => prop_assert!(false, "{hop:?} after down"),
                    }
                    if hop == Phase::Peer {
                        peer_hops += 1;
                    }
                }
                prop_assert!(peer_hops <= 1);
                prop_assert_eq!(route.has_peer_hop, peer_hops == 1);
            }
        }
    }

    /// Connectivity sanity: with the construction above, AS 0 is a root
    /// provider, so every AS reaches every other through the hierarchy.
    #[test]
    fn hierarchy_provides_full_reachability(seed in 0u64..200, n in 3usize..14) {
        let topology = random_topology(seed, n);
        let routes = RoutingTable::compute(&topology).unwrap();
        for src in 0..n {
            for dst in 0..n {
                prop_assert!(routes.reachable(src, dst), "no route {src}->{dst}");
            }
        }
    }

    /// Differential oracle: the SoA engine (serial, parallel, sampled, and
    /// on-demand) selects routes identical to the retained seed
    /// implementation on random topologies.
    #[test]
    fn soa_routing_matches_reference(seed in 0u64..300, n in 3usize..16) {
        let topology = random_topology(seed, n);
        let soa = RoutingTable::compute(&topology).unwrap();
        let naive = humnet::ixp::routing::reference::ReferenceTable::compute(&topology).unwrap();
        let par = RoutingTable::compute_parallel(&topology, 4).unwrap();
        prop_assert_eq!(&par, &soa);
        let ft = topology.freeze();
        for src in 0..n {
            for dst in 0..n {
                let expected = naive.route(src, dst).ok();
                prop_assert_eq!(&soa.route(src, dst).ok(), &expected, "route {}->{}", src, dst);
                if (src + dst) % 5 == 0 {
                    let demand = RoutingTable::route_on_demand(&ft, src, dst).ok();
                    prop_assert_eq!(&demand, &expected, "on-demand {}->{}", src, dst);
                }
            }
        }
        // A sampled table agrees on its covered rows.
        let sample: Vec<usize> = (0..n).filter(|d| d % 2 == 0).collect();
        let sampled = RoutingTable::compute_for_destinations(&topology, &sample).unwrap();
        for src in 0..n {
            for &dst in &sample {
                prop_assert_eq!(sampled.route(src, dst).ok(), naive.route(src, dst).ok());
            }
        }
    }
}

// Chaos properties: any fault plan — any profile, seed and intensity —
// must leave every fault-capable experiment either succeeding with a
// valid (possibly degraded) result or failing with a typed error. Panics
// fail the test by construction.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_fault_plan_degrades_gracefully(
        profile_idx in 0usize..4,
        seed in 0u64..1_000_000,
        intensity in 0.0f64..3.0,
    ) {
        use humnet::core::experiments::ExperimentId;
        use humnet::resilience::{FaultPlan, FaultProfile};
        let plan = FaultPlan::new(FaultProfile::ALL[profile_idx], seed)
            .with_intensity(intensity);
        // The quick fault-capable experiments (T1/T3 are equivalent but
        // ~100x slower; their hooks are exercised in crate-level tests).
        for id in [ExperimentId::F1, ExperimentId::T2, ExperimentId::F4, ExperimentId::F5] {
            let run = id.run(&plan).expect("experiments degrade, not error");
            prop_assert!(!run.rendered.is_empty());
            if run.faults_injected > 0 {
                prop_assert!(plan.is_active(), "faults require an active plan");
            }
            // Same plan, same result: the fault schedule is part of the seed.
            let again = id.run(&plan).expect("rerun succeeds");
            prop_assert_eq!(&run, &again);
        }
    }

    #[test]
    fn congestion_invariants_hold_under_any_plan(
        profile_idx in 0usize..4,
        seed in 0u64..1_000_000,
        intensity in 0.0f64..4.0,
    ) {
        use humnet::resilience::{FaultPlan, FaultProfile, PlanHook};
        let plan = FaultPlan::new(FaultProfile::ALL[profile_idx], seed)
            .with_intensity(intensity);
        let sim = CongestionSim::new(CongestionConfig::default()).unwrap();
        let mut hook = PlanHook::new(plan);
        for out in sim.compare_with_faults(&mut hook) {
            prop_assert!(out.fairness.is_nan() || (0.0..=1.0 + 1e-9).contains(&out.fairness));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&out.utilization));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&out.starvation));
        }
    }
}

/// Decode a generated code into a weight: a quarter are zero, some are
/// negative or tiny enough to vanish into a running sum, some large
/// enough (~10^19) that setting them back to a small weight cancels most
/// of the total, and the rest spread over a few orders of magnitude with
/// inexact binary fractions.
fn weight_of(code: u32) -> f64 {
    match code % 1000 {
        0..=249 => 0.0,
        250..=299 => -1.5,
        300..=349 => 1e-17 * f64::from(code % 1000),
        350..=369 => 1e16 * f64::from(code % 1000) / 7.3,
        c => f64::from(c) / 7.3 * f64::from(1 + code / 1000 % 4),
    }
}

// The incremental sampler is an exact replacement for the rebuild-per-draw
// oracle: after any interleaving of `set`, `push` and draws it picks the
// same index as `Rng::choose_weighted` over the same weights and leaves the
// generator in the same state. Bursts of up to 31 changes between draws
// exercise the lazy path, whose total is an estimate until it is certified
// or the draw falls back to the exact total.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prefix_sampler_matches_choose_weighted(
        seed in 0u64..u64::MAX,
        leading_zeros in 0usize..12,
        codes in prop::collection::vec(0u32..4000, 1..60),
        single in 0usize..4,
        ops in prop::collection::vec(0u32..u32::MAX, 1..200),
    ) {
        let mut weights: Vec<f64> = std::iter::repeat_n(0.0, leading_zeros)
            .chain(codes.iter().map(|&c| weight_of(c)))
            .collect();
        if single == 0 {
            // A single positive weight somewhere after the leading zeros.
            let keep = leading_zeros + codes[0] as usize % codes.len();
            for (i, w) in weights.iter_mut().enumerate() {
                *w = if i == keep { 2.5 } else { 0.0 };
            }
        }
        let mut sampler = PrefixSampler::new();
        sampler.reset(weights.iter().copied());
        let mut oracle = Rng::new(seed);
        let mut fast = Rng::new(seed);
        // One `set` (low bit clear) or `push` (set), to the oracle's
        // weights and the sampler alike.
        fn change(weights: &mut Vec<f64>, sampler: &mut PrefixSampler, op: u32) {
            let arg = op / 2;
            if op & 1 == 0 {
                let i = arg as usize % weights.len();
                let w = weight_of(arg / 64);
                weights[i] = w;
                sampler.set(i, w);
            } else {
                let w = weight_of(arg);
                weights.push(w);
                sampler.push(w);
            }
        }
        for op in ops {
            // Low three bits pick the operation; the rest index and weigh it.
            let (kind, arg) = (op % 8, op / 8);
            match kind {
                // A lone change; a later draw sees it.
                0..=2 => {
                    change(&mut weights, &mut sampler, arg);
                    continue;
                }
                // A burst of changes from a small LCG on `arg`, then a draw.
                3 => {
                    let mut state = arg;
                    for _ in 0..arg % 32 {
                        state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                        change(&mut weights, &mut sampler, state >> 8);
                    }
                }
                // A draw.
                _ => {}
            }
            let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
            if total <= 0.0 {
                continue;
            }
            let want = oracle.choose_weighted(&weights);
            let got = sampler.sample(&mut fast);
            prop_assert_eq!(got, want, "weights {:?}", weights);
            prop_assert_eq!(fast.next_u64(), oracle.next_u64());
        }
    }
}
