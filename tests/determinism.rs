//! Determinism contract: every simulator in the toolkit is bit-for-bit
//! reproducible from its seed, and sensitive to seed changes. This is what
//! makes `EXPERIMENTS.md` reproducible on any machine.

use humnet::agenda::{AgendaConfig, AgendaSim};
use humnet::community::{
    AllocationPolicy, CongestionConfig, CongestionSim, SustainabilityConfig, SustainabilitySim,
};
use humnet::corpus::CorpusConfig;
use humnet::ixp::{MexicoConfig, MexicoScenario, TwoRegionConfig, TwoRegionScenario};
use humnet::qual::{SimulatedStudy, StudyConfig};
use humnet::stats::Rng;

#[test]
fn rng_streams_are_stable_across_calls() {
    let take = |seed: u64| -> Vec<u64> {
        let mut rng = Rng::new(seed);
        (0..32).map(|_| rng.next_u64()).collect()
    };
    assert_eq!(take(1), take(1));
    assert_ne!(take(1), take(2));
}

#[test]
fn corpus_generation_reproducible() {
    let mut cfg = CorpusConfig::default();
    cfg.years = 3;
    for v in cfg.venues.iter_mut() {
        v.papers_per_year = 6;
    }
    let a = cfg.generate(77).unwrap();
    let b = cfg.generate(77).unwrap();
    assert_eq!(a, b);
    assert_ne!(a, cfg.generate(78).unwrap());
}

#[test]
fn agenda_reproducible() {
    let run = |seed| {
        let mut cfg = AgendaConfig::default();
        cfg.rounds = 20;
        cfg.seed = seed;
        let mut sim = AgendaSim::new(cfg).unwrap();
        sim.run().unwrap();
        sim.history().to_vec()
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn ixp_scenarios_reproducible() {
    let mx = MexicoConfig::default();
    assert_eq!(
        MexicoScenario::run(&mx).unwrap().flows,
        MexicoScenario::run(&mx).unwrap().flows
    );
    let tr = TwoRegionConfig::default();
    let a = TwoRegionScenario::run(&tr).unwrap();
    let b = TwoRegionScenario::run(&tr).unwrap();
    assert_eq!(a.flows, b.flows);
    assert_eq!(
        a.foreign_exchange_share().unwrap(),
        b.foreign_exchange_share().unwrap()
    );
}

#[test]
fn community_sims_reproducible() {
    let mut cfg = SustainabilityConfig::default();
    cfg.days = 100;
    cfg.seed = 3;
    let a = SustainabilitySim::new(cfg.clone()).unwrap().run().unwrap();
    let b = SustainabilitySim::new(cfg).unwrap().run().unwrap();
    assert_eq!(a, b);

    let ccfg = CongestionConfig::default();
    let s1 = CongestionSim::new(ccfg.clone()).unwrap();
    let s2 = CongestionSim::new(ccfg).unwrap();
    for p in AllocationPolicy::ALL {
        assert_eq!(s1.run(p), s2.run(p));
    }
}

#[test]
fn qual_study_reproducible() {
    let run = |seed| {
        let mut s = SimulatedStudy::new(StudyConfig::default(), seed).unwrap();
        s.reliability_trajectory(3).unwrap()
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

#[test]
fn experiment_suite_reproducible() {
    use humnet::core::experiments as exp;
    let a = exp::f1_attention(42).unwrap();
    let b = exp::f1_attention(42).unwrap();
    assert_eq!(a.gini, b.gini);
    assert_eq!(a.lorenz, b.lorenz);
    let (t1a, _) = exp::t1_regimes(&[1]).unwrap();
    let (t1b, _) = exp::t1_regimes(&[1]).unwrap();
    for (x, y) in t1a.iter().zip(&t1b) {
        assert_eq!(x.marginalized_coverage, y.marginalized_coverage);
        assert_eq!(x.publications, y.publications);
    }
}

#[test]
fn routing_worker_count_never_changes_results() {
    use humnet::core::experiments as exp;
    use humnet::ixp::RoutingTable;
    use humnet::resilience::NoFaults;
    use humnet::telemetry::Telemetry;

    // The SoA engine at 1/2/8 workers produces byte-identical tables on the
    // topologies the F3 and F4 experiments route over.
    let mx = MexicoScenario::run(&MexicoConfig::default()).unwrap();
    let tr = TwoRegionScenario::run(&TwoRegionConfig::default()).unwrap();
    for t in [&mx.topology, &tr.topology] {
        let serial = RoutingTable::compute_parallel(t, 1).unwrap();
        for workers in [2usize, 8] {
            let par = RoutingTable::compute_parallel(t, workers).unwrap();
            assert_eq!(par, serial, "workers = {workers}");
            assert_eq!(par.digest(), serial.digest());
        }
    }

    // ... so the F3/F4 experiment journals are unchanged: the scenarios
    // route through the same engine, and repeated instrumented runs emit
    // identical canonical event streams (timings excluded).
    let journal = |run: &dyn Fn(&Telemetry)| -> Vec<String> {
        let tel = Telemetry::new();
        run(&tel);
        tel.snapshot().canonical_events()
    };
    let f3 = |tel: &Telemetry| {
        exp::f3_telmex_instrumented(4, &mut NoFaults, tel).unwrap();
    };
    let f4 = |tel: &Telemetry| {
        exp::f4_gravity_instrumented(4, &mut NoFaults, tel).unwrap();
    };
    assert_eq!(journal(&f3), journal(&f3));
    assert_eq!(journal(&f4), journal(&f4));
    assert!(!journal(&f3).is_empty(), "F3 must journal events");
}

#[test]
fn supervised_chaos_run_reproducible() {
    use humnet::core::experiments::ExperimentId;
    use humnet::resilience::{ExperimentSpec, FaultProfile, JobError, JobOutput, Supervisor};
    use std::time::Duration;

    let specs = || -> Vec<ExperimentSpec> {
        // A cross-family subset keeps the double run fast; the binary's
        // acceptance path covers all seventeen.
        [ExperimentId::F1, ExperimentId::T2, ExperimentId::F4, ExperimentId::F5]
            .into_iter()
            .map(|id| {
                ExperimentSpec::new(id.code(), id.title(), id.family(), move |plan, tel| {
                    id.run_instrumented(plan, tel)
                        .map(|r| JobOutput {
                            rendered: r.rendered,
                            faults_injected: r.faults_injected,
                        })
                        .map_err(|e| Box::new(e) as JobError)
                })
            })
            .collect()
    };
    let supervisor = |seed: u64| {
        Supervisor::builder()
            .retries(2)
            .deadline(Duration::from_secs(30))
            .fault_profile(FaultProfile::Chaos)
            .seed(seed)
            .build()
    };
    let a = supervisor(1234).run(&specs());
    let b = supervisor(1234).run(&specs());
    // Same seed + plan => byte-identical canonical report and outputs.
    assert_eq!(a.report.canonical(), b.report.canonical());
    assert_eq!(a.outputs, b.outputs);
    // ... and the same telemetry event sequence (timings excluded).
    assert_eq!(a.telemetry.canonical_events(), b.telemetry.canonical_events());
    assert!(a.report.total_faults() > 0, "chaos must actually inject");
    assert_eq!(a.report.exit_code(), 0, "chaos degrades, not fails");

    // A different seed draws a different fault schedule.
    let c = supervisor(4321).run(&specs());
    assert_ne!(a.report.canonical(), c.report.canonical());
}

/// FNV-1a 64-bit digest of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pinned artefacts: the FNV-1a-64 digest of every experiment's rendered
/// output, and its injected fault count, under the fault-free plan and
/// under chaos (plan seed 9). A kernel optimisation that changes a single
/// canonical byte fails here. Update a value only for a deliberate change
/// to an experiment's output, and say so in the change log.
#[test]
fn every_experiment_matches_its_pinned_digest() {
    use humnet::core::experiments::ExperimentId;
    use humnet::resilience::{FaultPlan, FaultProfile};

    const PINNED: [(&str, u64, u64, u64, u64); 17] = [
        // (code, none digest, none faults, chaos digest, chaos faults)
        ("f1", 0x1aca093b1a57b4ad, 0, 0x992a2f864e01f5f0, 27),
        ("t1", 0x8523af34dc5ca65f, 0, 0xb01c15a6b4ec2c48, 540),
        ("f2", 0x716df2a9d668b317, 0, 0x716df2a9d668b317, 0),
        ("t2", 0x479f91753ca3913a, 0, 0xa9dbba57bce1600c, 3),
        ("f3", 0xcea9954e8c9c75a8, 0, 0xcea9954e8c9c75a8, 0),
        ("f4", 0x4815b41305a775ae, 0, 0x3741b4d46f94f924, 11),
        ("t3", 0x6ebd65ef0253f74a, 0, 0x7556f0eab93b3e0f, 1890),
        ("f5", 0x5edb54315f5c6f6b, 0, 0x3b5afe9772ed7499, 216),
        ("t4", 0x1e102c5b9b95e4be, 0, 0x1e102c5b9b95e4be, 0),
        ("f6", 0x881a565112f644fb, 0, 0x881a565112f644fb, 0),
        ("t5", 0xddaf8f189da25f06, 0, 0xddaf8f189da25f06, 0),
        ("f7", 0x7d7f0a39e3830eaa, 0, 0x7d7f0a39e3830eaa, 0),
        ("f8", 0x8419ed1f4b4d92cf, 0, 0x8419ed1f4b4d92cf, 0),
        ("f9", 0xab1e42bf9ef4686d, 0, 0xab1e42bf9ef4686d, 0),
        ("t6", 0x4b760c1f9d78b854, 0, 0x4b760c1f9d78b854, 0),
        ("t7", 0x8e607339fbf6d09f, 0, 0x8e607339fbf6d09f, 0),
        ("f10", 0x32d21b27cabbd1d1, 0, 0x32d21b27cabbd1d1, 0),
    ];
    let digest = |id: ExperimentId, plan: FaultPlan| {
        let run = id.run(&plan).unwrap();
        (fnv1a64(run.rendered.as_bytes()), run.faults_injected)
    };
    let mut actual = Vec::new();
    for id in ExperimentId::ALL {
        let (none, none_faults) = digest(id, FaultPlan::new(FaultProfile::None, 9));
        let (chaos, chaos_faults) = digest(id, FaultPlan::new(FaultProfile::Chaos, 9));
        actual.push((id.code(), none, none_faults, chaos, chaos_faults));
    }
    for (got, want) in actual.iter().zip(PINNED.iter()) {
        assert_eq!(got, want, "experiment {} drifted from its pinned artefact", want.0);
    }
    assert_eq!(actual.len(), PINNED.len());
}
