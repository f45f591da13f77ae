//! The physical planner's bounds and verdicts on every TPC-H plan, pinned
//! one hash per cell: 22 first-phase plans (what `query_plan` exposes) ×
//! raw and encoded storage × 1 and 2 workers, at SF 0.01 with seed
//! 0xDBD1.
//!
//! Per node a cell records its id, proven row bound, per-instance byte
//! bound, exchange (with its chunk byte bound) and dense key domains.
//! Zone guards are left out: the physical explain goldens pin them. A
//! change to any recorded figure changes the cell's hash; the failure
//! prints every mismatching cell's full node table, then a pin table to
//! paste once the change is meant.

use std::fmt::Write;

use ma_executor::ops::KeyDomain;
use ma_executor::plan::{plan_physical, LogicalPlan, PhysNode};
use ma_executor::ExecConfig;
use ma_tpch::dbgen::TpchData;
use ma_tpch::params::Params;
use ma_tpch::queries::query_plan;

/// Per query, the hashes of its cells in the order raw ×1, raw ×2,
/// encoded ×1, encoded ×2.
#[rustfmt::skip]
const PINS: [[u64; 4]; 22] = [
    [0xce41ff2f39371a00, 0xbc9629c090aa67db, 0xcde9e311e46ca245, 0xe44bf32f2abf5ee0],
    [0xfb1b9475d69a773f, 0xfb1b9475d69a773f, 0xff5bd45d8bdb4124, 0xff5bd45d8bdb4124],
    [0x59a040fffdee825a, 0xde4fd599d856632b, 0x62872c79ae1e5cfc, 0xff7fdec1e73576a1],
    [0xf1d9f9576a50c75e, 0x20e26a3e8828a67a, 0xce8fd4eedda39f4a, 0xcc1da9a6db38db8c],
    [0x70c82b2de80bb91d, 0x84dabc708339770c, 0x3d7776a52ca05aab, 0x0d80f5fa9923e8b8],
    [0x736478e85291bafa, 0x2814492ff4b524c3, 0x0ae4bb5fd871d0e8, 0x5d92268a67d8ae27],
    [0x66158eff23f17e30, 0x9fe587d728f09d1b, 0xf60e01775296ac31, 0x22753cf8f6c64b2a],
    [0x058dd9cb01e84f0d, 0x1c06392d91f247f9, 0xe82392f0eb8c3038, 0x78c9d98e59c71c14],
    [0x42814f5c2d74841e, 0x6821c60a128c107a, 0x59913a5a6591e8a6, 0xf193f5e3ca35d47a],
    [0xc8de1e5df2775ef9, 0xe80dd32b90f62867, 0x55a7ed3ed4a1d593, 0xa6dd9b6555b0bbb7],
    [0x2e4bd7e144954338, 0x2e4bd7e144954338, 0x8a1549423aab1e60, 0x8a1549423aab1e60],
    [0xb947a0b3e2fa6d11, 0xb947a0b3e2fa6d11, 0x822f173965ccc8cf, 0x822f173965ccc8cf],
    [0xb1cfc0c11044f453, 0xb1cfc0c11044f453, 0xe97fe964459097d5, 0xe97fe964459097d5],
    [0x21f4ac3ae111c306, 0x2b10d353ce117477, 0xd537555fcb8305ff, 0x1dfbf1cccaa9bc48],
    [0xbc292b3b89cf2cd7, 0xed69586e112ae74b, 0x21ca50f326074337, 0x868d616fa1f6442b],
    [0x75576d71fb1d8c3f, 0x75576d71fb1d8c3f, 0x7f4e0dccfb7aba2a, 0x7f4e0dccfb7aba2a],
    [0x90d134720b3b460c, 0x95c7330007df0a42, 0x6b957d47a0cc7f6b, 0xd67675a1daf4bd8d],
    [0xd5ce34445a20250c, 0xce3950f539314c6e, 0xf4a13c22f8e42659, 0x798c703e1385b3fd],
    [0x88cd263f0def61eb, 0xae9f187fec1a0814, 0x4cca6b6a8bb6cbc4, 0x95bd47e8b445676d],
    [0xd4d136f198386a0b, 0x637a9b4dc2dc2c9a, 0x0665c0f5d387f1c7, 0x26de7a9ac8f26892],
    [0x138ed6341ec46f01, 0x90517cc61b63ec9c, 0xef6dd8c2b441ae79, 0xd53b478316a32304],
    [0x3282b39a6410ba58, 0x3282b39a6410ba58, 0x94434edc2fa55fc3, 0x94434edc2fa55fc3],
];

/// FNV-1a over `text`: a hash that no toolchain update can move.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn node_name(node: &PhysNode<'_>) -> String {
    match node.logical {
        LogicalPlan::Scan { table, .. } => format!("Scan {}", table.name()),
        LogicalPlan::Sort { .. } => "Sort".to_string(),
        other => other.label().unwrap_or("?").to_string(),
    }
}

fn dense_keys(node: &PhysNode<'_>) -> String {
    let keys: Vec<String> = node
        .dense_keys
        .iter()
        .map(|d| match d {
            KeyDomain::Int { lo, hi } => format!("[{lo}, {hi}]"),
            KeyDomain::Dict(d) => format!("{} codes", d.views.len()),
        })
        .collect();
    keys.join(", ")
}

/// One line per node of `plan` planned under `workers`, pre-order.
fn cell(plan: &LogicalPlan, workers: usize) -> String {
    let cfg = ExecConfig::fixed_default().with_workers(workers);
    let phys = plan_physical(plan, &cfg).unwrap();
    let mut out = String::new();
    for node in phys.nodes() {
        let _ = writeln!(
            out,
            "n{} {} rows={} bytes={} {:?} dense=[{}]",
            node.id.0,
            node_name(node),
            node.rows,
            node.instance_bytes,
            node.exchange,
            dense_keys(node)
        );
    }
    out
}

#[test]
fn planner_bounds_and_verdicts_are_pinned_on_every_tpch_plan() {
    let enc = TpchData::generate(0.01, 0xDBD1);
    let raw = enc.decode_all();
    let params = Params::default();
    let mut got = [[0u64; 4]; 22];
    let mut report = String::new();
    for q in 1..=22 {
        let cells = [(&raw, 1), (&raw, 2), (&enc, 1), (&enc, 2)];
        for (i, (db, workers)) in cells.into_iter().enumerate() {
            let plan = query_plan(q, db, &params)
                .and_then(|pb| Ok(pb.build()?))
                .unwrap_or_else(|e| panic!("Q{q}: {e}"));
            let text = cell(&plan, workers);
            got[q - 1][i] = fnv1a(&text);
            if got[q - 1][i] != PINS[q - 1][i] {
                let storage = if i < 2 { "raw" } else { "encoded" };
                let _ = writeln!(report, "Q{q:02} {storage} ×{workers}:\n{text}");
            }
        }
    }
    if got != PINS {
        let mut pins = String::new();
        for row in &got {
            let row: Vec<String> = row.iter().map(|h| format!("0x{h:016x}")).collect();
            let _ = writeln!(pins, "    [{}],", row.join(", "));
        }
        panic!("planner bounds moved:\n{report}\npins:\n{pins}");
    }
}
