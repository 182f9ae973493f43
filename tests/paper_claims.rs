//! The paper's quantitative claims, asserted as integration tests at
//! reduced (but still statistically meaningful) scale.

use armada::{descent, MultiArmada, SingleArmada};
use fissione::FissioneConfig;
use rand::Rng;

fn cfg() -> FissioneConfig {
    FissioneConfig { object_id_len: 100, ..FissioneConfig::default() }
}

/// §4.3.2 / abstract: "Armada can return the results for any range query
/// within 2logN hops".
#[test]
fn claim_worst_case_delay_below_2_log_n() {
    let mut rng = simnet::rng_from_seed(1);
    let n = 1000;
    let armada = SingleArmada::build_with(cfg(), n, 0.0, 1000.0, &mut rng).unwrap();
    let bound = 2.0 * (n as f64).log2();
    for q in 0..300u64 {
        let lo: f64 = rng.gen_range(0.0..1000.0);
        let hi = rng.gen_range(lo..=1000.0);
        let origin = armada.net().random_peer(&mut rng);
        let out = armada.pira_query(origin, lo, hi, q).unwrap();
        assert!(
            f64::from(out.metrics.delay) < bound,
            "delay {} ≥ 2logN {bound} on [{lo}, {hi}]",
            out.metrics.delay
        );
    }
}

/// Abstract: "its average query delay is less than logN".
#[test]
fn claim_average_delay_below_log_n() {
    let mut rng = simnet::rng_from_seed(2);
    let n = 1000;
    let armada = SingleArmada::build_with(cfg(), n, 0.0, 1000.0, &mut rng).unwrap();
    let queries = 400;
    let mut total = 0f64;
    for q in 0..queries {
        let lo: f64 = rng.gen_range(0.0..900.0);
        let origin = armada.net().random_peer(&mut rng);
        total += f64::from(armada.pira_query(origin, lo, lo + 50.0, q).unwrap().metrics.delay);
    }
    let avg = total / queries as f64;
    assert!(avg < (n as f64).log2(), "avg delay {avg}");
}

/// Abstract: "the average message cost of single-attribute range queries is
/// about logN + 2n − 2".
#[test]
fn claim_message_cost_formula() {
    let mut rng = simnet::rng_from_seed(3);
    let n = 1000;
    let armada = SingleArmada::build_with(cfg(), n, 0.0, 1000.0, &mut rng).unwrap();
    let log_n = (n as f64).log2();
    let queries = 300;
    let mut measured = 0f64;
    let mut predicted = 0f64;
    for q in 0..queries {
        let lo: f64 = rng.gen_range(0.0..900.0);
        let origin = armada.net().random_peer(&mut rng);
        let out = armada.pira_query(origin, lo, lo + 100.0, q).unwrap();
        measured += out.metrics.messages as f64;
        predicted += log_n + 2.0 * out.metrics.dest_peers as f64 - 2.0;
    }
    let ratio = measured / predicted;
    assert!(
        (0.7..1.3).contains(&ratio),
        "messages/formula ratio {ratio} strays from logN + 2n − 2"
    );
}

/// §4.3.3: "MesgRatio and IncreRatio are close to 2 and IncreRatio is
/// almost always no more than 2".
#[test]
fn claim_ratios_close_to_two() {
    let mut rng = simnet::rng_from_seed(4);
    let n = 1000;
    let armada = SingleArmada::build_with(cfg(), n, 0.0, 1000.0, &mut rng).unwrap();
    let queries = 300;
    let mut mesg = 0f64;
    let mut incre = 0f64;
    for q in 0..queries {
        let lo: f64 = rng.gen_range(0.0..800.0);
        let origin = armada.net().random_peer(&mut rng);
        let out = armada.pira_query(origin, lo, lo + 150.0, q).unwrap();
        mesg += out.metrics.mesg_ratio();
        incre += out.metrics.incre_ratio(n);
    }
    let mesg = mesg / queries as f64;
    let incre = incre / queries as f64;
    assert!((1.7..2.4).contains(&mesg), "MesgRatio {mesg}");
    assert!((1.6..2.1).contains(&incre), "IncreRatio {incre}");
}

/// §3: FISSIONE's "average degree is 4, its diameter is less than 2logN,
/// and its average routing delay is less than logN".
#[test]
fn claim_substrate_properties() {
    let mut rng = simnet::rng_from_seed(5);
    let n = 1200;
    let net = fissione::FissioneNet::build(cfg(), n, &mut rng).unwrap();
    let log_n = (n as f64).log2();
    let degree = net.degree_stats();
    assert!((degree.total.mean - 4.0).abs() < 0.2, "avg degree {}", degree.total.mean);
    let routing = net.routing_sample(400, &mut rng);
    assert!(routing.hops.mean < log_n, "avg routing {}", routing.hops.mean);
    let dia = net.diameter();
    assert!((dia as f64) < 2.0 * log_n, "diameter {dia}");
}

/// §5: MIRA "is also delay-bounded because its average delay is less than
/// logN and the maximum delay is less than 2logN, regardless of the size of
/// the query space or the specific query".
#[test]
fn claim_mira_bounds() {
    let mut rng = simnet::rng_from_seed(6);
    let n = 800;
    let armada = MultiArmada::build_with(cfg(), n, &[(0.0, 10.0), (0.0, 10.0)], &mut rng).unwrap();
    let log_n = (n as f64).log2();
    let mut scratch = simnet::QueryScratch::new();
    for &side in &[0.1f64, 2.0, 9.9] {
        let mut total = 0f64;
        let mut max = 0f64;
        let queries = 100;
        for q in 0..queries {
            let lo0 = rng.gen_range(0.0..(10.0 - side));
            let lo1 = rng.gen_range(0.0..(10.0 - side));
            let origin = armada.net().random_peer(&mut rng);
            let rect = [(lo0, lo0 + side), (lo1, lo1 + side)];
            let (out, _) =
                descent::query(&armada, origin, &rect, q, None, false, &mut scratch).unwrap();
            total += f64::from(out.metrics.delay);
            max = max.max(f64::from(out.metrics.delay));
        }
        assert!(total / queries as f64 <= log_n, "avg MIRA delay at side {side}");
        assert!(max < 2.0 * log_n, "max MIRA delay at side {side}");
    }
}

/// §4.2: "the PIRA Algorithm can forward any single-attribute range query
/// exactly to all the destination peers that intersect with the query" —
/// at the paper's own k = 100.
#[test]
fn claim_exactness_at_paper_object_id_length() {
    let mut rng = simnet::rng_from_seed(7);
    let mut armada = SingleArmada::build_with(cfg(), 400, 0.0, 1000.0, &mut rng).unwrap();
    for _ in 0..800 {
        let v: f64 = rng.gen_range(0.0..=1000.0);
        armada.publish(v);
    }
    for q in 0..60u64 {
        let lo: f64 = rng.gen_range(0.0..990.0);
        let hi = lo + rng.gen_range(0.01..200.0f64).min(1000.0 - lo);
        let origin = armada.net().random_peer(&mut rng);
        let out = armada.pira_query(origin, lo, hi, q).unwrap();
        assert!(out.metrics.exact);
        assert_eq!(out.results, armada.expected_results(lo, hi));
    }
}
