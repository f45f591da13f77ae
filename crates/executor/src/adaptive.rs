//! Per-query adaptive dispatch: instance creation, flavor-subset resolution
//! and profiling registry.
//!
//! A [`QueryContext`] is created per query execution and is `Send + Sync` —
//! cloning it is cheap (one `Arc`) and every clone shares the same instance
//! registry, so parallel scan workers each build their *own* primitive
//! instances (per-worker bandit state, the Cuttlefish design) while all
//! stats land in one place. The hot path takes no locks: each
//! [`PrimInstance`] accumulates into private stats and publishes them into
//! its registry slot when it is dropped (or on an explicit
//! [`PrimInstance::flush`]). See DESIGN.md, "Per-worker statistics merge".
//!
//! Operators ask their [`NodeScope`] for typed [`PrimInstance`]s by
//! signature; the context resolves the flavor subset according to the
//! configured [`FlavorMode`], builds the bandit (or fixed/heuristic)
//! policy, and registers the instance for post-query reporting
//! (per-instance profiles and APHs — the data behind Tables 6–11 and
//! Figures 2/4/11).
//!
//! Identity is a type, not a string: every instance is registered under a
//! [`Slot`] — its plan node's [`NodeKey`] (plan ordinal, [`NodeId`]) plus
//! its creation ordinal within the node's operator — and every memory
//! tracker under the node's key. Labels are display names only.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ma_core::cycles::ticks_now;
use ma_core::policy::{ClampedPolicy, FixedPolicy, Policy};
use ma_core::{Aph, FlavorSet, PrimitiveDictionary, PrimitiveProfile};

use crate::config::{ExecConfig, FlavorMode, DEFAULT_REWARD_CLAMP};
use crate::heuristics::{tuned, HeuristicPolicy, HeuristicRule};
use crate::plan::NodeId;
use crate::ExecError;

/// One plan node of one instantiated plan: the plan's ordinal within its
/// [`QueryContext`] (one context may run several plans) and the node's
/// pre-order [`NodeId`]. Every copy of the node's operator — one per
/// worker fragment or partition — shares it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeKey {
    /// The plan's instantiation ordinal within its context.
    pub plan: usize,
    /// The node's pre-order position in that plan.
    pub node: NodeId,
}

/// One primitive instance's identity: its node and `part`, the instance's
/// creation ordinal within the node's operator. Every copy of an operator
/// creates its instances in the same order, so the copies' instances of
/// one part share a slot and their statistics fold
/// ([`QueryContext::merged_reports`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slot {
    /// The node the instance belongs to.
    pub key: NodeKey,
    /// Creation ordinal within one copy of the node's operator.
    pub part: usize,
}

/// Where one copy of a plan node's operator is built: the context, the
/// node's [`NodeKey`], its display label and the next instance ordinal.
/// Every operator that creates primitive instances is constructed in one.
/// Each copy of a node's operator gets a fresh scope over the same key, so
/// its instances take the same [`Slot`]s in the same order.
pub struct NodeScope {
    ctx: QueryContext,
    key: NodeKey,
    label: String,
    next_part: Cell<usize>,
}

impl NodeScope {
    /// A scope for node `node` of the plan with ordinal `plan`.
    pub(crate) fn new(ctx: &QueryContext, plan: usize, node: NodeId, label: String) -> Self {
        NodeScope {
            ctx: ctx.clone(),
            key: NodeKey { plan, node },
            label,
            next_part: Cell::new(0),
        }
    }

    /// A scope for a further operator of the same node, displayed under
    /// `{label}{suffix}`. Its instances number on from this scope's, so
    /// their slots never merge with the ones this scope created.
    pub(crate) fn then(&self, suffix: &str) -> NodeScope {
        NodeScope {
            ctx: self.ctx.clone(),
            key: self.key,
            label: format!("{}{suffix}", self.label),
            next_part: self.next_part.clone(),
        }
    }

    /// The context the node's instances register in.
    pub fn ctx(&self) -> &QueryContext {
        &self.ctx
    }

    /// Creates the scope's next instance, of primitive `signature`,
    /// displayed as `{label}/{name}`, and registers it for reporting. The
    /// flavor subset and policy follow the configured [`FlavorMode`];
    /// `heur` tells heuristics mode which rule applies to this family.
    pub fn instance<F>(
        &self,
        signature: &str,
        name: &str,
        heur: HeurKind,
    ) -> Result<PrimInstance<F>, ExecError>
    where
        F: Copy + Send + Sync + 'static,
    {
        let ctx = &self.ctx;
        let config = &ctx.inner.config;
        let master = ctx
            .inner
            .dict
            .lookup::<F>(signature)
            .ok_or_else(|| ExecError::UnknownPrimitive(signature.to_string()))?;

        let (set, policy): (Arc<FlavorSet<F>>, Box<dyn Policy>) = match &config.flavors {
            FlavorMode::Fixed(name) => {
                let idx = name.and_then(|n| master.index_of(n)).unwrap_or(0);
                let arms = master.len();
                (master, Box::new(FixedPolicy::new(arms, idx)))
            }
            FlavorMode::Adaptive { axis, policy } => {
                let sub = match axis.names() {
                    None => master.canonical_subset(),
                    Some([]) => master
                        .subset(&[master.info(0).name])
                        .expect("flavor 0 always exists"),
                    Some(names) => match master.subset(names) {
                        Some(s) if s.len() > 1 => s,
                        // Axis doesn't apply to this primitive: default only.
                        _ => master
                            .subset(&[master.info(0).name])
                            .expect("flavor 0 always exists"),
                    },
                };
                let arms = sub.len();
                let pol: Box<dyn Policy> = if arms == 1 {
                    Box::new(FixedPolicy::new(1, 0))
                } else {
                    let inner = policy.build(arms, ctx.fresh_seed());
                    Box::new(ClampedPolicy::new(inner, DEFAULT_REWARD_CLAMP))
                };
                (Arc::new(sub), pol)
            }
            FlavorMode::Heuristic => {
                let (rule, alt_name): (HeuristicRule, &str) = match heur {
                    HeurKind::Selection => (tuned::SELECTION, "no_branching"),
                    HeurKind::FullComp { elem_bytes } => {
                        (tuned::full_computation(elem_bytes), "full")
                    }
                    HeurKind::Fission => (tuned::FISSION, "fission"),
                    HeurKind::None => (HeuristicRule::Off, ""),
                };
                let arms = master.len();
                let alt = master.index_of(alt_name);
                let pol: Box<dyn Policy> = match (rule, alt) {
                    (HeuristicRule::Off, _) | (_, None) => Box::new(FixedPolicy::new(arms, 0)),
                    (rule, Some(alt)) => Box::new(HeuristicPolicy::new(rule, arms, 0, alt)),
                };
                (master, pol)
            }
        };

        let local = InstanceStats {
            slot: Slot {
                key: self.key,
                part: self.next_part.replace(self.next_part.get() + 1),
            },
            label: format!("{}/{name}", self.label),
            signature: signature.to_string(),
            flavor_names: set.infos().iter().map(|i| i.name.to_string()).collect(),
            profile: PrimitiveProfile::default(),
            flavor_calls: vec![0; set.len()],
        };
        let shared = Arc::new(Mutex::new(local.clone()));
        ctx.inner
            .registry
            .lock()
            .expect("registry poisoned")
            .push(Arc::clone(&shared));
        Ok(PrimInstance {
            set,
            policy,
            local,
            shared,
            last: 0,
        })
    }

    /// A byte-accounting slot for the node's operator state, displayed
    /// under the node's label. `bound` is the proven peak-byte bound the
    /// planner computed for one instance while lowering.
    pub fn mem_tracker(&self, bound: u64) -> MemTracker {
        self.track(self.label.clone(), bound)
    }

    /// A byte-accounting slot for the node's exchange, displayed as
    /// `{label}/exchange`; `bound` is the byte bound of one chunk.
    pub fn exchange_tracker(&self, bound: u64) -> MemTracker {
        self.track(format!("{}/exchange", self.label), bound)
    }

    /// Registers a byte-accounting slot under the node's key and returns
    /// its recording handle. Pairing bound and recordings in one slot is
    /// what lets the fuzz oracle check actual ≤ bound per instance without
    /// any label matching.
    fn track(&self, label: String, bound: u64) -> MemTracker {
        let slot = Arc::new(MemSlot {
            key: self.key,
            label,
            bound,
            high: AtomicU64::new(0),
        });
        let mut slots = self.ctx.inner.mem.lock().expect("mem registry poisoned");
        slots.push(Arc::clone(&slot));
        MemTracker { slot }
    }
}

/// Family hint used to pick the right hard-coded heuristic in
/// [`FlavorMode::Heuristic`] mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeurKind {
    /// Selection primitive: branching-vs-no-branching rule on observed
    /// selectivity.
    Selection,
    /// Map primitive: full-computation rule on input density; the element
    /// width picks the threshold (Fig. 8).
    FullComp {
        /// Element width in bytes (picks the Fig. 8 threshold).
        elem_bytes: usize,
    },
    /// Bloom lookup: fission rule on filter size.
    Fission,
    /// No applicable heuristic.
    None,
}

/// Per-instance statistics. Each live [`PrimInstance`] owns a private copy
/// it updates lock-free; the registry slot behind a mutex holds what the
/// instance last published.
#[derive(Debug, Clone)]
pub struct InstanceStats {
    /// The instance's identity.
    pub slot: Slot,
    /// Display label, e.g. `"Q12/sel/sel_ge_i32_col_val"`.
    pub label: String,
    /// Primitive signature.
    pub signature: String,
    /// Flavor names, index-aligned with `flavor_calls`.
    pub flavor_names: Vec<String>,
    /// Cumulative totals + APH.
    pub profile: PrimitiveProfile,
    /// Calls per flavor.
    pub flavor_calls: Vec<u64>,
}

/// A typed primitive instance: flavor set + policy + stats.
///
/// Not `Sync` (the policy mutates on every call) but `Send`: a whole
/// operator pipeline, instances included, can move to a worker thread.
pub struct PrimInstance<F: Copy> {
    set: Arc<FlavorSet<F>>,
    policy: Box<dyn Policy>,
    local: InstanceStats,
    shared: Arc<Mutex<InstanceStats>>,
    last: usize,
}

impl<F: Copy> PrimInstance<F> {
    /// The instance's display label, `{node label}/{name}`.
    pub fn label(&self) -> &str {
        &self.local.label
    }

    /// Chooses a flavor, runs `call` with it, records cost.
    #[inline]
    pub fn invoke<R>(&mut self, tuples: u64, call: impl FnOnce(F) -> R) -> R {
        let fi = self.policy.choose();
        self.last = fi;
        let f = self.set.flavor(fi);
        let t0 = ticks_now();
        let out = call(f);
        let ticks = ticks_now().saturating_sub(t0);
        self.policy.observe(fi, tuples, ticks);
        self.local.profile.record(tuples, ticks);
        self.local.flavor_calls[fi] += 1;
        out
    }

    /// Publishes the private stats into the shared registry slot. Called
    /// on drop; call it manually only to read [`QueryContext::reports`]
    /// while the instance is still live.
    pub fn flush(&mut self) {
        // Never panic here: this runs in `drop`, possibly while unwinding.
        let mut shared = self.shared.lock().unwrap_or_else(|e| e.into_inner());
        shared.profile.clone_from(&self.local.profile);
        shared.flavor_calls.clone_from(&self.local.flavor_calls);
    }

    /// Supplies a context hint to the policy (used by heuristics mode).
    #[inline]
    pub fn hint(&mut self, value: f64) {
        self.policy.hint(value);
    }

    /// Index of the flavor used by the last call.
    pub fn last_flavor(&self) -> usize {
        self.last
    }

    /// Name of the flavor used by the last call.
    pub fn last_flavor_name(&self) -> &str {
        self.set.info(self.last).name
    }

    /// The (possibly subsetted) flavor set of this instance.
    pub fn set(&self) -> &Arc<FlavorSet<F>> {
        &self.set
    }
}

impl<F: Copy> Drop for PrimInstance<F> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A finished instance's report.
#[derive(Debug, Clone)]
pub struct InstanceReport {
    /// The instance's identity.
    pub slot: Slot,
    /// Display label.
    pub label: String,
    /// Primitive signature.
    pub signature: String,
    /// Total calls.
    pub calls: u64,
    /// Total tuples processed.
    pub tuples: u64,
    /// Total ticks spent.
    pub ticks: u64,
    /// APH ([`QueryContext::merged_reports`] carries none: histories are
    /// per worker).
    pub aph: Option<Aph>,
    /// `(flavor name, calls)` pairs.
    pub flavor_calls: Vec<(String, u64)>,
}

impl InstanceReport {
    /// Lifetime mean cost in ticks/tuple.
    pub fn avg_cost(&self) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.ticks as f64 / self.tuples as f64
        }
    }
}

struct CtxInner {
    dict: Arc<PrimitiveDictionary>,
    config: ExecConfig,
    registry: Mutex<Vec<Arc<Mutex<InstanceStats>>>>,
    mem: Mutex<Vec<Arc<MemSlot>>>,
    next_seed: AtomicU64,
    next_plan: AtomicUsize,
}

struct MemSlot {
    key: NodeKey,
    label: String,
    bound: u64,
    high: AtomicU64,
}

/// A byte-accounting handle for one allocation-heavy operator instance.
///
/// Created by [`NodeScope::mem_tracker`] with the *proven* peak-byte
/// bound the static cost pass derived for the instance; the operator calls
/// [`MemTracker::record`] with its current live-data byte count at the
/// points where that count peaks (table growth, build finish, sort
/// materialization, chunk receipt). Records are `fetch_max`, so the slot
/// ends up holding the high-water mark, which
/// [`QueryContext::mem_reports`] pairs with the bound — the fuzzer's
/// actual-≤-bound oracle and `repro mem` both read that pairing.
#[derive(Clone)]
pub struct MemTracker {
    slot: Arc<MemSlot>,
}

impl MemTracker {
    /// Records a live-byte observation (keeps the maximum seen).
    #[inline]
    pub fn record(&self, bytes: u64) {
        self.slot.high.fetch_max(bytes, Ordering::Relaxed);
    }

    /// The proven bound this tracker was registered with.
    pub fn bound(&self) -> u64 {
        self.slot.bound
    }

    /// The node whose state the tracker accounts for.
    pub(crate) fn key(&self) -> NodeKey {
        self.slot.key
    }
}

/// One operator instance's predicted-vs-actual memory pairing.
#[derive(Debug, Clone)]
pub struct MemReport {
    /// The node the tracked state belongs to (shared across partitions).
    pub key: NodeKey,
    /// Display label: the node's label, or `{label}/exchange`.
    pub label: String,
    /// Proven peak-byte bound from the static cost pass.
    pub bound: u64,
    /// High-water live bytes actually recorded during execution.
    pub high_water: u64,
}

/// Per-query context: dictionary + config + instance registry.
///
/// Cloning shares everything (`Arc` inside); parallel fragments clone the
/// context into their factory so per-worker instances register centrally.
#[derive(Clone)]
pub struct QueryContext {
    inner: Arc<CtxInner>,
}

impl QueryContext {
    /// Creates a context over a dictionary with the given configuration.
    pub fn new(dict: Arc<PrimitiveDictionary>, config: ExecConfig) -> Self {
        let seed = config.seed;
        QueryContext {
            inner: Arc::new(CtxInner {
                dict,
                config,
                registry: Mutex::new(Vec::new()),
                mem: Mutex::new(Vec::new()),
                next_seed: AtomicU64::new(seed),
                next_plan: AtomicUsize::new(0),
            }),
        }
    }

    /// The ordinal of the next plan instantiated in this context.
    pub(crate) fn next_plan(&self) -> usize {
        self.inner.next_plan.fetch_add(1, Ordering::Relaxed)
    }

    /// A scope under a key no plan node of this context has (node 0 of a
    /// fresh plan ordinal), for an operator built by hand rather than
    /// instantiated from a plan.
    pub fn scope(&self, label: impl Into<String>) -> NodeScope {
        NodeScope::new(self, self.next_plan(), NodeId(0), label.into())
    }

    /// The engine configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.inner.config
    }

    /// The vector size used by operators.
    pub fn vector_size(&self) -> usize {
        self.inner.config.vector_size
    }

    fn fresh_seed(&self) -> u64 {
        self.inner
            .next_seed
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(
                    s.wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407),
                )
            })
            .expect("fetch_update closure never returns None")
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
    }

    /// Creates a typed instance for `signature`, displayed as
    /// `{label}/{signature}`, in a fresh [`QueryContext::scope`].
    pub fn instance<F>(
        &self,
        signature: &str,
        label: impl Into<String>,
        heur: HeurKind,
    ) -> Result<PrimInstance<F>, ExecError>
    where
        F: Copy + Send + Sync + 'static,
    {
        self.scope(label).instance(signature, signature, heur)
    }

    /// Reports of all instances created so far: exact for dropped
    /// instances, whatever was last [`PrimInstance::flush`]ed (nothing, by
    /// default) for live ones — read after the operator tree is gone.
    pub fn reports(&self) -> Vec<InstanceReport> {
        self.inner
            .registry
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|s| {
                let s = s.lock().expect("stats slot poisoned");
                InstanceReport {
                    slot: s.slot,
                    label: s.label.clone(),
                    signature: s.signature.clone(),
                    calls: s.profile.calls,
                    tuples: s.profile.tot_tuples,
                    ticks: s.profile.tot_ticks,
                    aph: Some(s.profile.aph.clone()),
                    flavor_calls: s
                        .flavor_names
                        .iter()
                        .cloned()
                        .zip(s.flavor_calls.iter().copied())
                        .collect(),
                }
            })
            .collect()
    }

    /// Reports merged across workers: instances sharing a [`Slot`] — one
    /// part of one plan node, built once per worker fragment or partition
    /// — are folded into one report with summed calls/tuples/ticks and
    /// index-aligned flavor-call sums. APHs are per-worker histories and
    /// are not merged (the merged report carries none). Ordered by slot:
    /// plan, node pre-order, part.
    pub fn merged_reports(&self) -> Vec<InstanceReport> {
        let mut reports = self.reports();
        reports.sort_by_key(|r| r.slot);
        let mut merged: Vec<InstanceReport> = Vec::with_capacity(reports.len());
        for r in reports {
            match merged.last_mut() {
                Some(m) if m.slot == r.slot => {
                    debug_assert_eq!(m.signature, r.signature);
                    m.calls += r.calls;
                    m.tuples += r.tuples;
                    m.ticks += r.ticks;
                    for (acc, (_, c)) in m.flavor_calls.iter_mut().zip(&r.flavor_calls) {
                        acc.1 += c;
                    }
                }
                _ => merged.push(InstanceReport { aph: None, ..r }),
            }
        }
        merged
    }

    /// Predicted-vs-actual memory reports for every registered slot, in
    /// registration order.
    pub fn mem_reports(&self) -> Vec<MemReport> {
        self.inner
            .mem
            .lock()
            .expect("mem registry poisoned")
            .iter()
            .map(|s| MemReport {
                key: s.key,
                label: s.label.clone(),
                bound: s.bound,
                high_water: s.high.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Sum of ticks spent inside primitives across all instances.
    pub fn total_primitive_ticks(&self) -> u64 {
        self.inner
            .registry
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|s| s.lock().expect("stats slot poisoned").profile.tot_ticks)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlavorAxis;
    use ma_primitives::{build_dictionary, SelColVal};

    fn ctx(config: ExecConfig) -> QueryContext {
        QueryContext::new(Arc::new(build_dictionary()), config)
    }

    fn run_sel(inst: &mut PrimInstance<SelColVal<i32>>, col: &[i32], val: i32) -> usize {
        let mut res = vec![0u32; col.len()];
        inst.invoke(col.len() as u64, |f| f(&mut res, col, val, None))
    }

    #[test]
    fn context_is_send_sync_and_clone_shares_registry() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<QueryContext>();

        let c = ctx(ExecConfig::fixed_default());
        let c2 = c.clone();
        let mut i = c2
            .instance::<SelColVal<i32>>("sel_lt_i32_col_val", "t", HeurKind::Selection)
            .unwrap();
        run_sel(&mut i, &[1, 2, 3], 2);
        drop(i);
        assert_eq!(c.reports().len(), 1, "clone registers into shared registry");
    }

    #[test]
    fn instances_are_send() {
        let c = ctx(ExecConfig::adaptive(FlavorAxis::Branching));
        let mut i = c
            .instance::<SelColVal<i32>>("sel_lt_i32_col_val", "t", HeurKind::Selection)
            .unwrap();
        let k = std::thread::spawn(move || {
            let col: Vec<i32> = (0..64).collect();
            run_sel(&mut i, &col, 32)
        })
        .join()
        .unwrap();
        assert_eq!(k, 32);
    }

    #[test]
    fn fixed_default_uses_flavor_zero() {
        let c = ctx(ExecConfig::fixed_default());
        let mut i = c
            .instance::<SelColVal<i32>>("sel_lt_i32_col_val", "t", HeurKind::Selection)
            .unwrap();
        let col: Vec<i32> = (0..100).collect();
        let k = run_sel(&mut i, &col, 50);
        assert_eq!(k, 50);
        assert_eq!(i.last_flavor_name(), "branching");
    }

    #[test]
    fn fixed_named_flavor() {
        let c = ctx(ExecConfig::fixed("no_branching"));
        let mut i = c
            .instance::<SelColVal<i32>>("sel_lt_i32_col_val", "t", HeurKind::Selection)
            .unwrap();
        run_sel(&mut i, &[1, 2, 3], 2);
        assert_eq!(i.last_flavor_name(), "no_branching");
    }

    #[test]
    fn fixed_unknown_name_falls_back_to_default() {
        let c = ctx(ExecConfig::fixed("fission")); // not a selection flavor
        let mut i = c
            .instance::<SelColVal<i32>>("sel_lt_i32_col_val", "t", HeurKind::Selection)
            .unwrap();
        run_sel(&mut i, &[1, 2, 3], 2);
        assert_eq!(i.last_flavor_name(), "branching");
    }

    #[test]
    fn adaptive_branching_axis_subsets_two_flavors() {
        let c = ctx(ExecConfig::adaptive(FlavorAxis::Branching));
        let i = c
            .instance::<SelColVal<i32>>("sel_lt_i32_col_val", "t", HeurKind::Selection)
            .unwrap();
        assert_eq!(i.set().len(), 2);
        assert_eq!(i.set().info(0).name, "branching");
        assert_eq!(i.set().info(1).name, "no_branching");
    }

    #[test]
    fn adaptive_all_axis_uses_canonical_set() {
        let c = ctx(ExecConfig::adaptive(FlavorAxis::All));
        let i = c
            .instance::<SelColVal<i32>>("sel_lt_i32_col_val", "t", HeurKind::Selection)
            .unwrap();
        assert_eq!(i.set().len(), 5);
    }

    #[test]
    fn adaptive_inapplicable_axis_degenerates_to_default() {
        let c = ctx(ExecConfig::adaptive(FlavorAxis::Fission));
        let mut i = c
            .instance::<SelColVal<i32>>("sel_lt_i32_col_val", "t", HeurKind::Selection)
            .unwrap();
        assert_eq!(i.set().len(), 1);
        run_sel(&mut i, &[5, 6], 6);
        assert_eq!(i.last_flavor_name(), "branching");
    }

    #[test]
    fn heuristic_mode_switches_on_hint() {
        let c = ctx(ExecConfig::heuristic());
        let mut i = c
            .instance::<SelColVal<i32>>("sel_lt_i32_col_val", "t", HeurKind::Selection)
            .unwrap();
        let col: Vec<i32> = (0..100).collect();
        i.hint(0.5); // mid selectivity → no_branching
        run_sel(&mut i, &col, 50);
        assert_eq!(i.last_flavor_name(), "no_branching");
        i.hint(0.99);
        run_sel(&mut i, &col, 99);
        assert_eq!(i.last_flavor_name(), "branching");
    }

    #[test]
    fn unknown_signature_is_an_error() {
        let c = ctx(ExecConfig::fixed_default());
        let r = c.instance::<SelColVal<i32>>("sel_nonsense", "t", HeurKind::None);
        assert!(matches!(r, Err(ExecError::UnknownPrimitive(_))));
    }

    #[test]
    fn reports_accumulate() {
        let c = ctx(ExecConfig::adaptive(FlavorAxis::Branching));
        let mut i = c
            .instance::<SelColVal<i32>>("sel_lt_i32_col_val", "q1/sel", HeurKind::Selection)
            .unwrap();
        let col: Vec<i32> = (0..1024).collect();
        for _ in 0..100 {
            run_sel(&mut i, &col, 512);
        }
        // Nothing is published while the instance lives, unless asked.
        assert_eq!(c.reports()[0].calls, 0);
        i.flush();
        let reports = c.reports();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.label, "q1/sel/sel_lt_i32_col_val");
        assert_eq!(r.calls, 100);
        assert_eq!(r.tuples, 102_400);
        assert!(r.ticks > 0);
        assert!(r.avg_cost() > 0.0);
        let total_flavor_calls: u64 = r.flavor_calls.iter().map(|(_, c)| c).sum();
        assert_eq!(total_flavor_calls, 100);
        assert_eq!(c.total_primitive_ticks(), r.ticks);
        assert!(r.aph.is_some());
    }

    #[test]
    fn drop_publishes_final_stats() {
        let c = ctx(ExecConfig::fixed_default());
        let mut i = c
            .instance::<SelColVal<i32>>("sel_lt_i32_col_val", "t", HeurKind::Selection)
            .unwrap();
        for _ in 0..5 {
            run_sel(&mut i, &[1, 2, 3, 4], 3);
        }
        assert_eq!(c.reports()[0].calls, 0, "published on drop");
        drop(i);
        let r = c.reports();
        assert_eq!(r[0].calls, 5);
        assert_eq!(r[0].tuples, 20);
    }

    #[test]
    fn invoke_runs_and_profiles() {
        let c = ctx(ExecConfig::fixed("no_branching"));
        let mut i = c
            .instance::<SelColVal<i32>>("sel_lt_i32_col_val", "t", HeurKind::Selection)
            .unwrap();
        let col: Vec<i32> = (0..1000).collect();
        assert_eq!(run_sel(&mut i, &col, 400), 400);
        assert_eq!(i.last_flavor(), 1);
        drop(i);
        let r = &c.reports()[0];
        assert_eq!((r.calls, r.tuples), (1, 1000));
    }

    #[test]
    fn adaptive_policy_exercises_both_flavors() {
        let c = ctx(ExecConfig::adaptive_with(
            FlavorAxis::Branching,
            ma_core::PolicyKind::VwGreedy(ma_core::VwGreedyParams {
                explore_period: 64,
                exploit_period: 16,
                explore_length: 4,
            }),
        ));
        let mut i = c
            .instance::<SelColVal<i32>>("sel_lt_i32_col_val", "t", HeurKind::Selection)
            .unwrap();
        let col: Vec<i32> = (0..1024).collect();
        for _ in 0..512 {
            run_sel(&mut i, &col, 512);
        }
        drop(i);
        let r = &c.reports()[0];
        assert_eq!(r.calls, 512);
        assert!(r.ticks > 0);
        assert!(
            r.flavor_calls.iter().all(|(_, n)| *n > 0),
            "both flavors should be exercised: {:?}",
            r.flavor_calls
        );
    }

    #[test]
    fn mem_tracker_keeps_high_water_per_slot() {
        let c = ctx(ExecConfig::fixed_default());
        let t1 = c.scope("Q/agg").mem_tracker(4096);
        let t2 = c.scope("Q/join").exchange_tracker(1 << 20);
        t1.record(100);
        t1.record(700);
        t1.record(300); // lower than the high-water mark: ignored
        t2.clone().record(99); // clones share the slot
        assert_eq!(t1.bound(), 4096);
        let reports = c.mem_reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(
            (reports[0].label.as_str(), reports[0].high_water),
            ("Q/agg", 700)
        );
        assert_eq!(reports[0].bound, 4096);
        assert_eq!(
            (reports[1].label.as_str(), reports[1].high_water),
            ("Q/join/exchange", 99)
        );
        assert_ne!(reports[0].key, reports[1].key);
    }

    #[test]
    fn merged_reports_fold_per_worker_instances() {
        let c = ctx(ExecConfig::fixed_default());
        let sel = |scope: &NodeScope, sig: &str| {
            scope
                .instance::<SelColVal<i32>>(sig, "sel", HeurKind::Selection)
                .unwrap()
        };
        // Three copies of one node's operator, each creating the same two
        // instances in the same order: parts 0 and 1 of one key.
        let key = c.scope("Q").key;
        for _ in 0..3 {
            let copy = NodeScope::new(&c, key.plan, key.node, "Q".into());
            run_sel(&mut sel(&copy, "sel_lt_i32_col_val"), &[1, 2, 3, 4], 3);
            run_sel(&mut sel(&copy, "sel_gt_i32_col_val"), &[1, 2], 1);
        }
        // Another node displayed under the same label stays apart.
        run_sel(&mut sel(&c.scope("Q"), "sel_lt_i32_col_val"), &[1, 2], 1);

        assert_eq!(c.reports().len(), 7);
        let merged = c.merged_reports();
        let shape: Vec<_> = merged
            .iter()
            .map(|m| (m.slot.key == key, m.slot.part, m.label.as_str(), m.calls))
            .collect();
        assert_eq!(
            shape,
            [
                (true, 0, "Q/sel", 3),
                (true, 1, "Q/sel", 3),
                (false, 0, "Q/sel", 1)
            ]
        );
        assert_eq!(merged[0].tuples, 12);
        assert_eq!(
            merged[0].flavor_calls.iter().map(|(_, c)| c).sum::<u64>(),
            3
        );
        assert!(
            merged.iter().all(|m| m.aph.is_none()),
            "merged reports drop per-worker APHs"
        );
    }
}
