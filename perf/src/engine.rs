//! Set-up and the gated query execution every pass goes through.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use ma_core::{ticks_now, PrimitiveDictionary};
use ma_executor::{DecodeMode, ExecConfig, FlavorAxis, QueryContext};
use ma_tpch::{run_query, Params, TpchData};
use ma_vector::Table;

use crate::workload::{Storage, Workload};

pub const QUERIES: usize = 22;
/// dbgen and everything else in a run uses at most this many threads.
pub const MAX_THREADS: usize = 2;

/// Reference answer of one query.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub rows: usize,
    pub checksum: f64,
}

/// Executions attempted and failed. An `Err`, a caught panic and an answer
/// that differs from the reference all count as failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

/// What one set-up produces and every pass reads.
pub struct Env {
    pub db: TpchData,
    pub dict: Arc<PrimitiveDictionary>,
    pub params: Params,
    pub reference: Vec<Answer>,
    pub workers: usize,
    /// Bandit seeds derive from this and the position in the run.
    pub seed: u64,
    /// Seconds inside `generate_with_threads` (dbgen and encoding).
    pub dbgen_s: f64,
    /// Σ `Column::resident_bytes` of the eight tables as stored.
    pub stored_bytes: usize,
    /// The same sum over the `decode_all()` twin.
    pub raw_bytes: usize,
}

pub fn tables(db: &TpchData) -> [&Arc<Table>; 8] {
    [
        &db.region,
        &db.nation,
        &db.supplier,
        &db.customer,
        &db.part,
        &db.partsupp,
        &db.orders,
        &db.lineitem,
    ]
}

pub fn table_bytes(t: &Table) -> usize {
    (0..t.column_names().len())
        .map(|i| t.column_at(i).resident_bytes())
        .sum()
}

pub fn resident_bytes(db: &TpchData) -> usize {
    tables(db).iter().map(|t| table_bytes(t)).sum()
}

pub fn total_rows(db: &TpchData) -> usize {
    tables(db).iter().map(|t| t.rows()).sum()
}

/// dbgen, storage, dictionary and the reference pass. The reference runs
/// the stock engine (default flavors, one worker, reference decode) on the
/// raw twin, so it shares neither flavors nor codecs with what is measured.
pub fn set_up(w: &Workload, sf: f64, seed: u64) -> Result<Env, String> {
    let t = Instant::now();
    let encoded = TpchData::generate_with_threads(sf, seed, MAX_THREADS);
    let dbgen_s = t.elapsed().as_secs_f64();
    let raw = encoded.decode_all();
    let raw_bytes = resident_bytes(&raw);
    let dict = Arc::new(ma_primitives::build_dictionary());
    let params = Params::default();

    let cfg = ExecConfig::fixed_default().with_decode(DecodeMode::Reference);
    let mut reference = Vec::with_capacity(QUERIES);
    for q in 1..=QUERIES {
        let ctx = QueryContext::new(Arc::clone(&dict), cfg.clone());
        let out = run_query(q, &raw, &ctx, &params)
            .map_err(|e| format!("reference run of Q{q} failed: {e}"))?;
        reference.push(Answer {
            rows: out.rows,
            checksum: out.checksum,
        });
    }

    let db = match w.storage {
        Storage::Encoded => encoded,
        Storage::Raw => raw,
    };
    Ok(Env {
        stored_bytes: resident_bytes(&db),
        db,
        dict,
        params,
        reference,
        workers: w.workers,
        seed,
        dbgen_s,
        raw_bytes,
    })
}

/// Which engine a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The paper's system and the measured one: vw-greedy over all flavors.
    Adaptive,
    /// The stock engine: default flavor everywhere.
    FixedDefault,
    /// The hand-tuned heuristics competitor.
    Heuristic,
}

impl Mode {
    pub fn config(self, workers: usize, seed: u64) -> ExecConfig {
        match self {
            Mode::Adaptive => ExecConfig::adaptive(FlavorAxis::All),
            Mode::FixedDefault => ExecConfig::fixed_default(),
            Mode::Heuristic => ExecConfig::heuristic(),
        }
        .with_workers(workers)
        .with_seed(seed)
    }
}

/// Bandit seed of query `q` in pass `pass` of round `round`.
pub fn bandit_seed(seed: u64, round: u32, pass: u32, q: usize) -> u64 {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    for v in [u64::from(round), u64::from(pass), q as u64] {
        x = (x ^ v).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 29;
    }
    x
}

/// One finished execution: wall time, ticks, and the context holding the
/// engine's own reports.
pub struct Exec {
    pub ns: u64,
    pub ticks: u64,
    pub ctx: QueryContext,
}

/// Runs query `q` on a fresh context and checks the answer against the
/// reference: rows exactly, checksum to 1e-6 relative.
pub fn exec_query(env: &Env, q: usize, cfg: ExecConfig, gate: &mut Gate) -> Exec {
    let ctx = QueryContext::new(Arc::clone(&env.dict), cfg);
    let t = Instant::now();
    let t0 = ticks_now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        run_query(q, &env.db, &ctx, &env.params).map(|o| (o.rows, o.checksum))
    }));
    let ticks = ticks_now().saturating_sub(t0);
    let ns = t.elapsed().as_nanos() as u64;

    gate.attempted += 1;
    let want = env.reference[q - 1];
    let ok = match out {
        Ok(Ok((rows, checksum))) => {
            let tol = 1e-6 * want.checksum.abs().max(1.0);
            let same = rows == want.rows && (checksum - want.checksum).abs() <= tol;
            if !same {
                eprintln!(
                    "Q{q}: got {rows} rows, checksum {checksum}; reference {} rows, checksum {}",
                    want.rows, want.checksum
                );
            }
            same
        }
        Ok(Err(e)) => {
            eprintln!("Q{q}: {e}");
            false
        }
        Err(_) => {
            eprintln!("Q{q}: panicked");
            false
        }
    };
    if !ok {
        gate.failed += 1;
    }
    Exec { ns, ticks, ctx }
}

/// One untraced pass: Q1…Q22 under `mode`. Returns the pass wall time and
/// adds each query's latency, in ns, to `per_query`.
pub fn run_pass(
    env: &Env,
    mode: Mode,
    workers: usize,
    round: u32,
    pass: u32,
    per_query: &mut [Vec<f64>],
    gate: &mut Gate,
) -> f64 {
    let t = Instant::now();
    for q in 1..=QUERIES {
        let cfg = mode.config(workers, bandit_seed(env.seed, round, pass, q));
        let exec = exec_query(env, q, cfg, gate);
        per_query[q - 1].push(exec.ns as f64);
    }
    t.elapsed().as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandit_seeds_differ_by_position() {
        let a = bandit_seed(7, 0, 0, 1);
        assert_eq!(a, bandit_seed(7, 0, 0, 1));
        for other in [
            bandit_seed(8, 0, 0, 1),
            bandit_seed(7, 1, 0, 1),
            bandit_seed(7, 0, 1, 1),
            bandit_seed(7, 0, 0, 2),
        ] {
            assert_ne!(a, other);
        }
    }
}
