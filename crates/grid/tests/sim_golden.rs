//! Bit-exact golden digests for the dispatch simulator.
//!
//! Each row pins an FNV-1a digest of the little-endian `f64::to_bits` of
//! every hourly value `simulate_year` returns, so any change to the float
//! operation order, the random-draw order or the calendar shows up as a
//! digest mismatch. The years cover the calendar edges: PST's first UTC
//! hours fall on the last local day of the previous year (a leap year for
//! 2021), JST's last UTC hours fall on local Jan 1 of the next year (a
//! leap year for 2019), and 2020/2024 have 8784 hours. On a mismatch the
//! test prints the full recomputed table.

use hpcarbon_grid::fuel::Fuel;
use hpcarbon_grid::sim::{annual_fuel_shares, simulate_year};
use hpcarbon_grid::OperatorId;

/// FNV-1a over the little-endian bit patterns of `values`.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const YEARS: [i32; 4] = [2019, 2020, 2021, 2024];
const SEEDS: [u64; 3] = [0, 7, u64::MAX];

/// `(operator, year, seed, digest of simulate_year)`.
const YEAR_DIGESTS: &[(&str, i32, u64, u64)] = &[
    ("KN", 2019, 0, 0x0ccb851eda69b6f5),
    ("KN", 2019, 7, 0x659ef1ab8e016363),
    ("KN", 2019, u64::MAX, 0xee03cc7ad41dd7b9),
    ("KN", 2020, 0, 0x7c9292be5f10c1e8),
    ("KN", 2020, 7, 0xdc70229ebddba38c),
    ("KN", 2020, u64::MAX, 0xa387eac4b126dc87),
    ("KN", 2021, 0, 0xc015a5283b6d2dd5),
    ("KN", 2021, 7, 0xe23800fc0e009898),
    ("KN", 2021, u64::MAX, 0xb7a3c0fd61721cb0),
    ("KN", 2024, 0, 0xa9f4ea09930ee268),
    ("KN", 2024, 7, 0xc168bddcdf7190f5),
    ("KN", 2024, u64::MAX, 0xe5e8f1062043a25f),
    ("TK", 2019, 0, 0x4cb6bf199f0c86ac),
    ("TK", 2019, 7, 0xaf1023bf63e0597e),
    ("TK", 2019, u64::MAX, 0xc3a44f2777d71450),
    ("TK", 2020, 0, 0x5997e3f732342523),
    ("TK", 2020, 7, 0x854cdec0b81d1270),
    ("TK", 2020, u64::MAX, 0xc91a3dd02ab54cfd),
    ("TK", 2021, 0, 0x78c421e2db3eeaae),
    ("TK", 2021, 7, 0xbeac407f61cbaf60),
    ("TK", 2021, u64::MAX, 0x1755b705974bef89),
    ("TK", 2024, 0, 0x8b9b21f5cb042243),
    ("TK", 2024, 7, 0x2d020d10db176701),
    ("TK", 2024, u64::MAX, 0x5986f7298a390c4b),
    ("ESO", 2019, 0, 0x0d97254e80dafa19),
    ("ESO", 2019, 7, 0x2e031b9dc8071b4a),
    ("ESO", 2019, u64::MAX, 0xce3d430cc0abf351),
    ("ESO", 2020, 0, 0xf91cf763348a01ba),
    ("ESO", 2020, 7, 0x09c0c5d5f9704dc5),
    ("ESO", 2020, u64::MAX, 0x485536e328593294),
    ("ESO", 2021, 0, 0x0f8218a664fd8061),
    ("ESO", 2021, 7, 0x91e064256b25b2b1),
    ("ESO", 2021, u64::MAX, 0x70099730e94c463e),
    ("ESO", 2024, 0, 0xb8ce9c1a605fc65d),
    ("ESO", 2024, 7, 0xe8dbebf13175452e),
    ("ESO", 2024, u64::MAX, 0x7e57d61a06b78f43),
    ("CISO", 2019, 0, 0x313123506dad94b0),
    ("CISO", 2019, 7, 0x5017f7e181976fc0),
    ("CISO", 2019, u64::MAX, 0xb652b4930eb84ce8),
    ("CISO", 2020, 0, 0x520c934a15c3da03),
    ("CISO", 2020, 7, 0xab1f2d716f3b3620),
    ("CISO", 2020, u64::MAX, 0xcb43b40af6f56f98),
    ("CISO", 2021, 0, 0x1a6734cc20fd028f),
    ("CISO", 2021, 7, 0x9d937ae922505712),
    ("CISO", 2021, u64::MAX, 0xe246094a4881ca62),
    ("CISO", 2024, 0, 0x2d78ccf1f7970292),
    ("CISO", 2024, 7, 0x9aac4d5ffbacc835),
    ("CISO", 2024, u64::MAX, 0xdb96ef207d9d3b3c),
    ("PJM", 2019, 0, 0x1962c3e22d0bd0c2),
    ("PJM", 2019, 7, 0x73df261e941e5727),
    ("PJM", 2019, u64::MAX, 0xc16dcaf4aa7d1e28),
    ("PJM", 2020, 0, 0x2264c891a2e33693),
    ("PJM", 2020, 7, 0xed44e0d8903883fa),
    ("PJM", 2020, u64::MAX, 0xaa4e8bf767d4a428),
    ("PJM", 2021, 0, 0x843bad7934ae108f),
    ("PJM", 2021, 7, 0x2786de2550816e63),
    ("PJM", 2021, u64::MAX, 0xf1511c5d179b2c03),
    ("PJM", 2024, 0, 0x38a9fd15e3265ca3),
    ("PJM", 2024, 7, 0xb58787620a80eae2),
    ("PJM", 2024, u64::MAX, 0x817c79e20dfb3901),
    ("MISO", 2019, 0, 0x690b1d0161c5ee4e),
    ("MISO", 2019, 7, 0x12e636e49464d53b),
    ("MISO", 2019, u64::MAX, 0x568236be9228a7c3),
    ("MISO", 2020, 0, 0x3ac3635385a5712d),
    ("MISO", 2020, 7, 0xf23712f9e4f80df8),
    ("MISO", 2020, u64::MAX, 0x6e24e5cdb9f59dc0),
    ("MISO", 2021, 0, 0xf7cff01ddea5bd5f),
    ("MISO", 2021, 7, 0xb4a61e579eef5fc0),
    ("MISO", 2021, u64::MAX, 0x5432221b0c96285f),
    ("MISO", 2024, 0, 0x84f1d5a05e2e6a12),
    ("MISO", 2024, 7, 0x4c15f33a7ba9de5f),
    ("MISO", 2024, u64::MAX, 0x11fb8477ae106df8),
    ("ERCOT", 2019, 0, 0xf7d24f11f727b998),
    ("ERCOT", 2019, 7, 0x4108ebdf59dc1d7a),
    ("ERCOT", 2019, u64::MAX, 0x9ab3a88f96c11163),
    ("ERCOT", 2020, 0, 0x059bae8ac2fb7697),
    ("ERCOT", 2020, 7, 0x388900f66e6a167a),
    ("ERCOT", 2020, u64::MAX, 0x04320430ec11ec96),
    ("ERCOT", 2021, 0, 0xa49f0447018658d5),
    ("ERCOT", 2021, 7, 0x1d1794b254ce0a02),
    ("ERCOT", 2021, u64::MAX, 0xa53d94e3d8e8acdc),
    ("ERCOT", 2024, 0, 0x27f32d5bd1a7ebda),
    ("ERCOT", 2024, 7, 0x12d944f0a9b7abbb),
    ("ERCOT", 2024, u64::MAX, 0x738c3bf752875fce),
];

/// `(operator, year, seed, digest of annual_fuel_shares)`.
const SHARE_DIGESTS: &[(&str, i32, u64, u64)] = &[
    ("ESO", 2021, 9, 0xd5f2018f090ea38b),
    ("CISO", 2020, 0, 0xeefb2f25fd246e0c),
    ("TK", 2024, u64::MAX, 0x02ea3c22ea589da0),
];

const SHARE_CASES: [(OperatorId, i32, u64); 3] = [
    (OperatorId::Eso, 2021, 9),
    (OperatorId::Ciso, 2020, 0),
    (OperatorId::Tokyo, 2024, u64::MAX),
];

fn year_rows() -> Vec<(&'static str, i32, u64, u64)> {
    let mut rows = Vec::new();
    for op in OperatorId::ALL {
        for year in YEARS {
            for seed in SEEDS {
                let trace = simulate_year(op, year, seed);
                let values = trace.series().values();
                let expect_len = if year % 4 == 0 { 8784 } else { 8760 };
                assert_eq!(values.len(), expect_len, "{op:?} {year}");
                rows.push((op.info().short, year, seed, digest(values.iter().copied())));
            }
        }
    }
    rows
}

fn share_rows() -> Vec<(&'static str, i32, u64, u64)> {
    SHARE_CASES
        .iter()
        .map(|&(op, year, seed)| {
            let shares = annual_fuel_shares(op, year, seed);
            let fuels: Vec<Fuel> = shares.iter().map(|(f, _)| *f).collect();
            assert_eq!(fuels, Fuel::ALL.to_vec());
            let d = digest(shares.iter().map(|(_, s)| *s));
            (op.info().short, year, seed, d)
        })
        .collect()
}

fn print_table(name: &str, rows: &[(&str, i32, u64, u64)]) {
    println!("const {name}: &[(&str, i32, u64, u64)] = &[");
    for (op, year, seed, d) in rows {
        let seed = if *seed == u64::MAX {
            "u64::MAX".to_string()
        } else {
            seed.to_string()
        };
        println!("    (\"{op}\", {year}, {seed}, 0x{d:016x}),");
    }
    println!("];");
}

#[test]
fn simulate_year_bits_match_the_golden_digests() {
    let rows = year_rows();
    if rows != YEAR_DIGESTS {
        print_table("YEAR_DIGESTS", &rows);
        panic!("simulate_year output bits changed (recomputed table printed above)");
    }
}

#[test]
fn annual_fuel_share_bits_match_the_golden_digests() {
    let rows = share_rows();
    if rows != SHARE_DIGESTS {
        print_table("SHARE_DIGESTS", &rows);
        panic!("annual_fuel_shares output bits changed (recomputed table printed above)");
    }
}
