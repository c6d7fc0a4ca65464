//! Golden outputs of the seeded generator itself.
//!
//! The grid and scheduler goldens pin the generator only through
//! everything built on it. This file pins it directly, for seeds
//! {0, 1, 2021, u64::MAX}: the first 8 `next_u64` of
//! `SimRng::seed_from(seed)`, the first 8 of its `substream("trace")`,
//! and the `f64::to_bits` of the first 4 `standard_normal` draws. Any
//! change to the generator, the seed expansion, the substream derivation
//! or the uniform-to-float conversion changes these numbers, so the
//! test fails before a golden of the simulators does. On a mismatch it
//! prints the full recomputed table.

use hpcarbon_sim::dist::standard_normal;
use hpcarbon_sim::rng::SimRng;
use rand::RngCore;

struct Golden {
    seed: u64,
    next_u64: [u64; 8],
    trace_next_u64: [u64; 8],
    normal_bits: [u64; 4],
}

const GOLDEN: &[Golden] = &[
    Golden {
        seed: 0,
        next_u64: [
            0x53175d61490b23df,
            0x61da6f3dc380d507,
            0x5c0fdf91ec9a7bfc,
            0x02eebf8c3bbe5e1a,
            0x7eca04ebaf4a5eea,
            0x0543c37757f08d9a,
            0xdb7490c75ab5026e,
            0xd87343e6464bc959,
        ],
        trace_next_u64: [
            0xcd157b1102cb313b,
            0x84fcf3c7a2391919,
            0xf30b3ac1e592e65b,
            0x668635c5a0682e02,
            0x2d2c0a1f36088953,
            0xa9c8879e0c78f019,
            0xbba0b524a4cdbc24,
            0x80224b8609e49433,
        ],
        normal_bits: [
            0xbff8a8af17f2fe67,
            0xbf708d7cb6a3955d,
            0x3fbc958a80b0b8e7,
            0xbfca60c5aa96ee22,
        ],
    },
    Golden {
        seed: 1,
        next_u64: [
            0xcfc5d07f6f03c29b,
            0xbf424132963fe08d,
            0x19a37d5757aaf520,
            0xbf08119f05cd56d6,
            0x2f47184b86186fa4,
            0x97299fcae7202345,
            0xfca3c79508f41507,
            0x85fea5c90363f221,
        ],
        trace_next_u64: [
            0xfe24cb3836ccf836,
            0x5088bb92775e7981,
            0x5ec7dede122c2d07,
            0xe7eebb3b8193028d,
            0xd4e452dcab599b72,
            0xf0ea97552f608582,
            0xccb6818b9eee5e27,
            0x45eecb8c3a521ecd,
        ],
        normal_bits: [
            0x3fe7fe2b6e80acbf,
            0xbfdb4f02841c1194,
            0xbff3f7ed083decfa,
            0x3fd4652ec32968b3,
        ],
    },
    Golden {
        seed: 2021,
        next_u64: [
            0xcc7612682b1f8e82,
            0xb42534e6b6a994c1,
            0x89517ad65a7f04be,
            0xee71dc9f8c6088c5,
            0xddc6310f60eb7dbd,
            0x7cedb8fb015ceec0,
            0xe8de9bb9db76831f,
            0xdc11ba8ab9f2fe0b,
        ],
        trace_next_u64: [
            0x6997544435e0842f,
            0xbbdda5a16906e3ce,
            0x5a4399274508c252,
            0xd87505fe7360cade,
            0x73bd7fa364baed90,
            0x2989e5f3463c5e64,
            0xa6fd345255e24a98,
            0x5dfaf0defc9a3c93,
        ],
        normal_bits: [
            0x3fee1c1ff8c9112c,
            0x3fb0552096622ea7,
            0x3ff1d31c66edf897,
            0xbfe888b0921f331a,
        ],
    },
    Golden {
        seed: u64::MAX,
        next_u64: [
            0x56ccf8ce948e27b2,
            0xe68588432e5a5b90,
            0xe3e9b5a48119ca8b,
            0x460f19495532ae73,
            0xa7d62040ea9263e1,
            0x66f1fb2ac9402c14,
            0xe243b47de8a73f68,
            0x7c93fdab4c7b3dff,
        ],
        trace_next_u64: [
            0x0cc4d82546439653,
            0xc2fe43c2014ced58,
            0x7476415eeb39e2a7,
            0x287f9f7387309e09,
            0xa9d53609ee96670a,
            0xddead3f11fac360e,
            0x3752bc68142369f4,
            0xd56477605f7f6733,
        ],
        normal_bits: [
            0xbfd24e4a5ec26d8a,
            0x3fe1bfca99970dd8,
            0x3ffb1890ca1af495,
            0x3ff06cad69e9768b,
        ],
    },
];

fn recompute(seed: u64) -> Golden {
    let mut rng = SimRng::seed_from(seed);
    let mut trace = SimRng::seed_from(seed).substream("trace");
    let mut normal = SimRng::seed_from(seed);
    Golden {
        seed,
        next_u64: std::array::from_fn(|_| rng.next_u64()),
        trace_next_u64: std::array::from_fn(|_| trace.next_u64()),
        normal_bits: std::array::from_fn(|_| standard_normal(&mut normal).to_bits()),
    }
}

fn hex(xs: &[u64]) -> String {
    xs.iter()
        .map(|x| format!("{x:#018x}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[test]
fn seeded_streams_match_the_golden_outputs() {
    let mut mismatch = false;
    let mut table = String::new();
    for g in GOLDEN {
        let now = recompute(g.seed);
        mismatch |= now.next_u64 != g.next_u64
            || now.trace_next_u64 != g.trace_next_u64
            || now.normal_bits != g.normal_bits;
        table.push_str(&format!(
            "seed {}\n  next_u64: [{}]\n  trace_next_u64: [{}]\n  normal_bits: [{}]\n",
            g.seed,
            hex(&now.next_u64),
            hex(&now.trace_next_u64),
            hex(&now.normal_bits),
        ));
    }
    assert!(!mismatch, "generator outputs changed; recomputed:\n{table}");
}
