//! Exact work counts of the 22 TPC-H queries, pinned.
//!
//! Every query runs once at SF 0.01 (seed 0xDBD1) under the fixed default
//! flavors on one worker, against the encoded tables and against their
//! raw twin (`TpchData::decode_all`). Per run, the primitive instances'
//! `calls` and `tuples` are summed per signature family. These counts
//! depend only on the data and the plans, never on timing, so any change
//! of work — a skipped chunk, an admitted one, a fused or split primitive
//! — moves them, and a change that claims to move no work must leave them
//! alone.
//!
//! Each (query, storage) cell is pinned as one hash of its sixteen counts.
//! On a mismatch the test prints the full table, so the moved families
//! can be read off and the per-query deltas stated with the re-pin.

use std::fmt::Write;
use std::sync::Arc;

use ma_executor::ExecConfig;
use ma_tpch::dbgen::TpchData;
use ma_tpch::runner::Runner;

/// Signature families, in table order. Longer prefixes first where one
/// family's prefix extends another's: `sel_bloomfilter` is bloom, not sel;
/// `map_hash*`, `map_rehash*` and `hash_*` are hash; `map_fetch*` and
/// `fetch_*` are fetch, not map.
const FAMILIES: [&str; 8] = [
    "sel_", "map_", "hash_", "aggr_", "decode_", "fetch_", "bloom", "merge",
];

const RULES: [(&str, usize); 11] = [
    ("sel_bloomfilter", 6),
    ("map_hash", 2),
    ("map_rehash", 2),
    ("hash_", 2),
    ("map_fetch", 5),
    ("fetch_", 5),
    ("sel_", 0),
    ("map_", 1),
    ("aggr", 3),
    ("decode_", 4),
    ("mergejoin", 7),
];

fn family(signature: &str) -> usize {
    RULES
        .iter()
        .find(|(prefix, _)| signature.starts_with(prefix))
        .map(|&(_, f)| f)
        .unwrap_or_else(|| panic!("signature {signature} belongs to no family"))
}

/// `(calls, tuples)` per family for one query.
type Counts = [(u64, u64); 8];

fn counts(runner: &Runner, q: usize) -> Counts {
    let res = runner.run(q, ExecConfig::fixed_default()).unwrap();
    let mut out = [(0, 0); 8];
    for r in &res.instances {
        let cell = &mut out[family(&r.signature)];
        cell.0 += r.calls;
        cell.1 += r.tuples;
    }
    out
}

/// FNV-1a over the counts' little-endian bytes.
fn hash(c: &Counts) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(calls, tuples) in c {
        for b in calls.to_le_bytes().into_iter().chain(tuples.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The pinned hash of each cell: `(query, raw, encoded)`.
const PINS: [(usize, u64, u64); 22] = [
    (1, 0xbe5c5ea957076377, 0x3f6f10c48acee42d),
    (2, 0xff78b07ff09f8456, 0xa836706f517e0703),
    (3, 0xe756a1fee26ca037, 0x6f40aab17f561e03),
    (4, 0x52c185b088838853, 0xed31600b687922ec),
    (5, 0x547daa3597420ab7, 0xf44c6bc699db645e),
    (6, 0xdc22e5441f8df158, 0x4128a658d0776a40),
    (7, 0x6370e0f2e9117f84, 0x85aa9f7fe05b9f31),
    (8, 0x61fa964b6469db42, 0x0f8f126342b4e132),
    (9, 0x9c4f65bbd00568cf, 0xa4e8513a427bbbdb),
    (10, 0x2b2e8ee3319a35db, 0x1c8ab3a4167a8478),
    (11, 0x94cd32641693aad2, 0x45e4b7e5d56c104b),
    (12, 0x67ccb3add9557226, 0xac98effc342abdeb),
    (13, 0xd9971f2474b02cb4, 0x6bea0b84cef76ae1),
    (14, 0xf28fd7e48df7db2a, 0x1f9258a309274bc7),
    (15, 0x07183c35dd745d98, 0xc98dd16afff18345),
    (16, 0x9ab64529379523f1, 0x2684693abbc471b2),
    (17, 0xfb84cbc7930d2478, 0x98467880791154ba),
    (18, 0x8aaeae53f97c065b, 0xcd5475e43a3e9d9a),
    (19, 0xde03bc74db09d04c, 0x9de9f0440b2592fa),
    (20, 0xe7e24743c81dd349, 0xcd9072f68fa65b8a),
    (21, 0xca4fb2ac79a8e5a1, 0x39d47d67cded5698),
    (22, 0xa44ba8ce53f597f0, 0x2139beb2d267fcd1),
];

#[test]
fn work_counts_match_the_pins() {
    let enc = Arc::new(TpchData::generate(0.01, 0xDBD1));
    let raw = Arc::new(enc.decode_all());
    let runners = [("raw", Runner::new(raw)), ("enc", Runner::new(enc))];
    let mut table = String::from("calls/tuples per family\nquery storage");
    for f in FAMILIES {
        write!(table, " {f}").unwrap();
    }
    let mut pins = String::new();
    let mut wrong = Vec::new();
    for &(q, raw_pin, enc_pin) in &PINS {
        let mut got = [0; 2];
        for (s, ((name, runner), pin)) in runners.iter().zip([raw_pin, enc_pin]).enumerate() {
            let c = counts(runner, q);
            got[s] = hash(&c);
            write!(table, "\nQ{q:02} {name}").unwrap();
            for (calls, tuples) in c {
                write!(table, " {calls}/{tuples}").unwrap();
            }
            if got[s] != pin {
                wrong.push(format!("Q{q:02} {name}"));
            }
        }
        write!(pins, "\n    ({q}, {:#018x}, {:#018x}),", got[0], got[1]).unwrap();
    }
    assert!(
        wrong.is_empty(),
        "work moved in {wrong:?}\n{table}\n\npins:{pins}"
    );
}
