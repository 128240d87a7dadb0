//! Golden fingerprints of the churn, fault-drill and serving reports.
//!
//! Each case renders its report with `{:?}` and hashes the string with
//! FNV-1a 64. The constants were recorded from the implementation that
//! preceded the shared round loop; any change to a scheduled round,
//! a replayed trace, an energy figure or an outcome changes the hash.
//! A legitimate change to a report must update the constant together
//! with a note on why the numbers moved.

use resparc_suite::prelude::*;

/// FNV-1a 64 over the Debug render of `report`.
fn fingerprint<T: std::fmt::Debug>(report: &T) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// 2-NC and 4-NC networks on RESPARC-64.
fn sized_net(ncs: usize, seed: u64) -> Network {
    let hiddens: &[usize] = match ncs {
        2 => &[576, 576, 10],
        4 => &[576, 576, 576, 10],
        other => panic!("no sized net for {other} NCs"),
    };
    Network::random(Topology::mlp(144, hiddens), seed, 1.0)
}

/// Mixed-weight 2/4-NC schedule with one late arrival.
fn schedule() -> (Vec<Network>, Vec<ChurnSpec>) {
    let nets = vec![
        sized_net(4, 1),
        sized_net(2, 2),
        sized_net(4, 3),
        sized_net(2, 4),
        sized_net(4, 5),
        sized_net(2, 6),
        sized_net(4, 7),
    ];
    let specs = vec![
        ChurnSpec::new(0, 3).with_weight(2),
        ChurnSpec::new(0, 1),
        ChurnSpec::new(0, 4).with_weight(3),
        ChurnSpec::new(1, 2),
        ChurnSpec::new(1, 3).with_weight(2),
        ChurnSpec::new(6, 2),
        ChurnSpec::new(1, 2).with_weight(2),
    ];
    (nets, specs)
}

fn samples() -> Vec<(Vec<f32>, usize)> {
    SyntheticImages::new(DatasetKind::Mnist, 12, 5).labelled_set(3, 0)
}

const POLICIES: [PackingPolicy; 3] = [
    PackingPolicy::FirstFit,
    PackingPolicy::BestFit,
    PackingPolicy::Defragment,
];

#[test]
fn churn_reports_match_golden_fingerprints() {
    const GOLDEN: [u64; 3] = [
        11_935_063_303_305_866_075,
        7_593_972_283_758_632_235,
        777_170_311_488_820_973,
    ];
    let (nets, specs) = schedule();
    let cfg = SweepConfig::rate(8, 0.7, 3);
    let got: Vec<u64> = POLICIES
        .iter()
        .map(|&policy| {
            let report = churn_sweep(
                &nets,
                &specs,
                &samples(),
                &cfg,
                &ResparcConfig::resparc_64(),
                policy,
            )
            .expect("every request fits the pool alone");
            fingerprint(&report)
        })
        .collect();
    assert_eq!(got, GOLDEN, "churn reports changed");
}

#[test]
fn drill_reports_match_golden_fingerprints() {
    const GOLDEN: [u64; 3] = [
        7_579_001_328_950_571_160,
        7_579_001_328_950_571_160,
        17_154_950_604_664_826_665,
    ];
    let (nets, specs) = schedule();
    let cfg = SweepConfig::rate(8, 0.7, 3);
    let faults = [FaultEvent::new(1, 0), FaultEvent::new(2, 10)];
    let reports: Vec<FaultDrillReport> = POLICIES
        .iter()
        .map(|&policy| {
            fault_recovery_drill(
                &nets,
                &specs,
                &samples(),
                &cfg,
                &ResparcConfig::resparc_64(),
                policy,
                &faults,
            )
            .expect("every request fits the pre-fault pool")
        })
        .collect();
    assert!(
        reports.iter().any(|r| r.interrupted_requests > 0),
        "a failure must interrupt a resident request"
    );
    let got: Vec<u64> = reports.iter().map(fingerprint).collect();
    assert_eq!(got, GOLDEN, "fault-drill reports changed");
}

#[test]
fn serving_reports_match_golden_fingerprints() {
    const GOLDEN: [u64; 3] = [
        4_893_145_570_386_841_161,
        10_072_049_484_505_999_163,
        11_551_484_420_420_687_208,
    ];
    let nets: Vec<Network> = (0..3)
        .map(|s| Network::random(Topology::mlp(96, &[64, 10]), 40 + s, 1.0))
        .collect();
    let classes = vec![
        ServiceClass::new("premium", 2, 500.0).with_weight(4),
        ServiceClass::new("standard", 3, 6_000.0).with_weight(2),
        ServiceClass::new("bulk", 4, 40_000.0),
    ];
    let processes = [
        ArrivalProcess::Poisson,
        ArrivalProcess::Bursty { burst: 6 },
        ArrivalProcess::Diurnal {
            period_ns: 20_000.0,
            amplitude: 0.8,
        },
    ];
    let reports: Vec<ServingReport> = processes
        .iter()
        .map(|&arrivals| {
            let spec = ServingSpec::new(30, 150.0, arrivals, 19)
                .with_qos(QosPolicy::Adaptive { max_weight: 16 })
                .with_max_queue(4)
                .with_preemption(2.0);
            serving_sweep(
                &nets,
                &classes,
                &spec,
                &SweepConfig::rate(6, 0.8, 5),
                &ResparcConfig::resparc_64(),
                PackingPolicy::BestFit,
            )
            .expect("every class fits the pool")
        })
        .collect();
    assert!(reports.iter().any(|r| r.rejected > 0), "no case rejected");
    assert!(reports.iter().any(|r| r.preempted > 0), "no case preempted");
    assert!(
        reports.iter().all(|r| r.completed > 0),
        "a case completed none"
    );
    let got: Vec<u64> = reports.iter().map(fingerprint).collect();
    assert_eq!(got, GOLDEN, "serving reports changed");
}
