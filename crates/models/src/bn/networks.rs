//! The three published benchmark networks of Table I.
//!
//! CPT parameters follow the literature sources the paper cites: ASIA from
//! Lauritzen & Spiegelhalter (1988), EARTHQUAKE from Korb & Nicholson /
//! Pearl's alarm example, SURVEY from Scutari & Denis (2014). Label 0 is
//! "yes"/"true"/first category throughout, matching the original tables.

use super::{BayesNet, Node};

/// The ASIA chest-clinic network: 8 binary nodes.
///
/// Structure: `asia → tub`, `smoke → {lung, bronc}`,
/// `{tub, lung} → either`, `either → xray`, `{either, bronc} → dysp`.
/// Label convention: 0 = yes, 1 = no.
pub fn asia() -> BayesNet {
    BayesNet::new(vec![
        // 0: visit to Asia
        Node {
            name: "asia",
            card: 2,
            parents: vec![],
            cpt: vec![0.01, 0.99],
        },
        // 1: tuberculosis | asia
        Node {
            name: "tub",
            card: 2,
            parents: vec![0],
            cpt: vec![
                0.05, 0.95, // asia = yes
                0.01, 0.99, // asia = no
            ],
        },
        // 2: smoker
        Node {
            name: "smoke",
            card: 2,
            parents: vec![],
            cpt: vec![0.5, 0.5],
        },
        // 3: lung cancer | smoke
        Node {
            name: "lung",
            card: 2,
            parents: vec![2],
            cpt: vec![
                0.1, 0.9, // smoke = yes
                0.01, 0.99, // smoke = no
            ],
        },
        // 4: bronchitis | smoke
        Node {
            name: "bronc",
            card: 2,
            parents: vec![2],
            cpt: vec![
                0.6, 0.4, // smoke = yes
                0.3, 0.7, // smoke = no
            ],
        },
        // 5: tuberculosis or cancer | tub, lung.
        //
        // The literature CPT is a deterministic OR (1/0). Deterministic
        // rows break single-site Gibbs ergodicity (the chain cannot cross
        // zero-probability configurations), so — as is standard practice
        // for Gibbs benchmarks — the OR is softened to 0.999/0.001. Exact
        // inference and Gibbs use the same softened table, so golden
        // comparisons are self-consistent.
        Node {
            name: "either",
            card: 2,
            parents: vec![1, 3],
            cpt: vec![
                0.999, 0.001, // tub=yes, lung=yes
                0.999, 0.001, // tub=yes, lung=no
                0.999, 0.001, // tub=no,  lung=yes
                0.001, 0.999, // tub=no,  lung=no
            ],
        },
        // 6: positive x-ray | either
        Node {
            name: "xray",
            card: 2,
            parents: vec![5],
            cpt: vec![
                0.98, 0.02, // either = yes
                0.05, 0.95, // either = no
            ],
        },
        // 7: dyspnoea | either, bronc
        Node {
            name: "dysp",
            card: 2,
            parents: vec![5, 4],
            cpt: vec![
                0.9, 0.1, // either=yes, bronc=yes
                0.7, 0.3, // either=yes, bronc=no
                0.8, 0.2, // either=no,  bronc=yes
                0.1, 0.9, // either=no,  bronc=no
            ],
        },
    ])
}

/// The EARTHQUAKE (alarm) network: 5 binary nodes.
///
/// Structure: `{burglary, earthquake} → alarm → {johncalls, marycalls}`.
/// Label convention: 0 = true, 1 = false.
pub fn earthquake() -> BayesNet {
    BayesNet::new(vec![
        Node {
            name: "burglary",
            card: 2,
            parents: vec![],
            cpt: vec![0.01, 0.99],
        },
        Node {
            name: "earthquake",
            card: 2,
            parents: vec![],
            cpt: vec![0.02, 0.98],
        },
        Node {
            name: "alarm",
            card: 2,
            parents: vec![0, 1],
            cpt: vec![
                0.95, 0.05, // burglary, earthquake
                0.94, 0.06, // burglary, no earthquake
                0.29, 0.71, // no burglary, earthquake
                0.001, 0.999, // neither
            ],
        },
        Node {
            name: "johncalls",
            card: 2,
            parents: vec![2],
            cpt: vec![0.90, 0.10, 0.05, 0.95],
        },
        Node {
            name: "marycalls",
            card: 2,
            parents: vec![2],
            cpt: vec![0.70, 0.30, 0.01, 0.99],
        },
    ])
}

/// The SURVEY transportation network: 6 nodes, up to 3 labels.
///
/// Structure: `{age, sex} → education → {occupation, residence}`,
/// `{occupation, residence} → travel`.
///
/// Cards: age 3 (young/adult/old), sex 2 (M/F), education 2 (high/uni),
/// occupation 2 (employed/self), residence 2 (small/big),
/// travel 3 (car/train/other).
pub fn survey() -> BayesNet {
    BayesNet::new(vec![
        Node {
            name: "age",
            card: 3,
            parents: vec![],
            cpt: vec![0.30, 0.50, 0.20],
        },
        Node {
            name: "sex",
            card: 2,
            parents: vec![],
            cpt: vec![0.60, 0.40],
        },
        Node {
            name: "education",
            card: 2,
            parents: vec![0, 1],
            cpt: vec![
                0.75, 0.25, // young, M
                0.64, 0.36, // young, F
                0.72, 0.28, // adult, M
                0.70, 0.30, // adult, F
                0.88, 0.12, // old, M
                0.90, 0.10, // old, F
            ],
        },
        Node {
            name: "occupation",
            card: 2,
            parents: vec![2],
            cpt: vec![0.96, 0.04, 0.92, 0.08],
        },
        Node {
            name: "residence",
            card: 2,
            parents: vec![2],
            cpt: vec![0.25, 0.75, 0.20, 0.80],
        },
        Node {
            name: "travel",
            card: 3,
            parents: vec![3, 4],
            cpt: vec![
                0.48, 0.42, 0.10, // employed, small
                0.58, 0.24, 0.18, // employed, big
                0.56, 0.36, 0.08, // self,     small
                0.70, 0.21, 0.09, // self,     big
            ],
        },
    ])
}

/// The CANCER network (Korb & Nicholson): 5 binary nodes.
///
/// Structure: `{pollution, smoker} → cancer → {xray, dyspnoea}`.
/// Label convention: 0 = true/high, 1 = false/low.
pub fn cancer() -> BayesNet {
    BayesNet::new(vec![
        Node {
            name: "pollution",
            card: 2,
            parents: vec![],
            cpt: vec![0.10, 0.90],
        },
        Node {
            name: "smoker",
            card: 2,
            parents: vec![],
            cpt: vec![0.30, 0.70],
        },
        Node {
            name: "cancer",
            card: 2,
            parents: vec![0, 1],
            cpt: vec![
                0.05, 0.95, // high pollution, smoker
                0.02, 0.98, // high pollution, non-smoker
                0.03, 0.97, // low pollution, smoker
                0.001, 0.999, // low pollution, non-smoker
            ],
        },
        Node {
            name: "xray",
            card: 2,
            parents: vec![2],
            cpt: vec![0.90, 0.10, 0.20, 0.80],
        },
        Node {
            name: "dyspnoea",
            card: 2,
            parents: vec![2],
            cpt: vec![0.65, 0.35, 0.30, 0.70],
        },
    ])
}

/// The classic SPRINKLER network (Pearl / Russell & Norvig): 4 binary nodes.
///
/// Structure: `cloudy → {sprinkler, rain} → wetgrass`.
/// Label convention: 0 = true, 1 = false.
pub fn sprinkler() -> BayesNet {
    BayesNet::new(vec![
        Node {
            name: "cloudy",
            card: 2,
            parents: vec![],
            cpt: vec![0.5, 0.5],
        },
        Node {
            name: "sprinkler",
            card: 2,
            parents: vec![0],
            cpt: vec![0.10, 0.90, 0.50, 0.50],
        },
        Node {
            name: "rain",
            card: 2,
            parents: vec![0],
            cpt: vec![0.80, 0.20, 0.20, 0.80],
        },
        Node {
            name: "wetgrass",
            card: 2,
            parents: vec![1, 2],
            cpt: vec![
                0.99, 0.01, // sprinkler, rain
                0.90, 0.10, // sprinkler, no rain
                0.90, 0.10, // no sprinkler, rain
                0.01, 0.99, // neither (softened 0.00 for Gibbs ergodicity)
            ],
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bn::exact_marginal;
    use crate::GibbsModel;

    #[test]
    fn network_sizes_match_table_1() {
        assert_eq!(asia().num_variables(), 8);
        assert_eq!(earthquake().num_variables(), 5);
        assert_eq!(survey().num_variables(), 6);
        // Table I lists #labels 2, 2, 3 respectively (maximum cardinality).
        assert_eq!((0..8).map(|v| asia().num_labels(v)).max(), Some(2));
        assert_eq!((0..6).map(|v| survey().num_labels(v)).max(), Some(3));
    }

    #[test]
    fn asia_dyspnoea_prior_is_plausible() {
        let net = asia();
        let d = net.node_index("dysp").unwrap();
        let m = exact_marginal(&net, d);
        // Known value for the standard parameterization: P(dysp) ~ 0.436.
        assert!((m[0] - 0.436).abs() < 0.01, "P(dysp=yes) = {}", m[0]);
    }

    #[test]
    fn asia_xray_reacts_to_asia_visit() {
        let mut net = asia();
        let xray = net.node_index("xray").unwrap();
        let prior = exact_marginal(&net, xray)[0];
        let a = net.node_index("asia").unwrap();
        net.set_evidence(a, 0); // visited Asia
        let posterior = exact_marginal(&net, xray)[0];
        assert!(posterior > prior, "Asia visit must raise P(xray+)");
    }

    #[test]
    fn earthquake_john_calls_prior() {
        let net = earthquake();
        let j = net.node_index("johncalls").unwrap();
        let m = exact_marginal(&net, j);
        // P(alarm) = .01*.02*.95 + .01*.98*.94 + .99*.02*.29 + .99*.98*.001
        //          = 0.0161142; P(J) = .9*pA + .05*(1-pA) = 0.063697
        assert!((m[0] - 0.063697).abs() < 0.0005, "P(john calls) = {}", m[0]);
    }

    #[test]
    fn earthquake_explaining_away() {
        let mut net = earthquake();
        let b = net.node_index("burglary").unwrap();
        let a = net.node_index("alarm").unwrap();
        let e = net.node_index("earthquake").unwrap();
        net.set_evidence(a, 0);
        let p_b_given_alarm = exact_marginal(&net, b)[0];
        net.set_evidence(e, 0);
        let p_b_given_both = exact_marginal(&net, b)[0];
        assert!(
            p_b_given_both < p_b_given_alarm,
            "earthquake must explain away burglary"
        );
    }

    #[test]
    fn cancer_smoking_raises_cancer_posterior() {
        let mut net = cancer();
        let c = net.node_index("cancer").unwrap();
        let prior = exact_marginal(&net, c)[0];
        let s = net.node_index("smoker").unwrap();
        net.set_evidence(s, 0);
        let posterior = exact_marginal(&net, c)[0];
        assert!(posterior > prior, "smoking must raise P(cancer)");
        // Known prior for this parameterization: P(cancer) = 0.01163
        assert!((prior - 0.01163).abs() < 0.0005, "P(cancer) = {prior}");
    }

    #[test]
    fn sprinkler_rain_explains_wet_grass() {
        let mut net = sprinkler();
        let s = net.node_index("sprinkler").unwrap();
        let w = net.node_index("wetgrass").unwrap();
        net.set_evidence(w, 0);
        let p_sprinkler_given_wet = exact_marginal(&net, s)[0];
        let r = net.node_index("rain").unwrap();
        net.set_evidence(r, 0);
        let p_sprinkler_given_both = exact_marginal(&net, s)[0];
        assert!(
            p_sprinkler_given_both < p_sprinkler_given_wet,
            "rain must explain away the sprinkler"
        );
    }

    #[test]
    fn extra_networks_are_valid_gibbs_models() {
        for (name, net) in [("cancer", cancer()), ("sprinkler", sprinkler())] {
            let mut out = Vec::new();
            for v in 0..net.num_variables() {
                net.scores_into(v, &mut out);
                assert_eq!(out.len(), net.num_labels(v), "{name} node {v}");
                assert!(
                    out.iter().any(|s| s.reference_value() > 0.0),
                    "{name} node {v} has no viable label"
                );
            }
        }
    }

    #[test]
    fn survey_travel_prior_sums_to_one_and_prefers_car() {
        let net = survey();
        let t = net.node_index("travel").unwrap();
        let m = exact_marginal(&net, t);
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(m[0] > m[1] && m[1] > m[2], "car > train > other: {m:?}");
    }
}
