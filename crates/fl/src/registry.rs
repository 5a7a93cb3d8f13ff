//! The lazy, sharded device registry behind million-device fleets.
//!
//! FedZKT targets the *cross-device* regime: a huge registered population
//! of which only a small fraction is sampled each round. Materializing
//! every device's model up front — the eager fleet the first PRs used —
//! turns a 1M-device scenario into a memory wall. This module supplies the
//! bookkeeping for the lazy alternative:
//!
//! * [`Materialization`] — the [`SimConfig`](crate::SimConfig) knob
//!   selecting between the eager fleet (every device model lives for the
//!   whole run) and the lazy fleet (a device's model and data shard are
//!   materialized from its `ModelSpec` + deterministic per-device seed
//!   only while needed, and dropped after merge);
//! * [`DeviceRegistry`] — per-device slots holding only a device's
//!   cumulative state summary (a [`StateDict`], absent until the device
//!   first trains) plus residency flags, sharded so that slot storage for
//!   a million registered devices is allocated on demand, never up front;
//! * [`ShardStore`] — the devices' private data: pre-sliced shards
//!   (eager) or one training set plus per-device index sets (lazy),
//!   staged per dispatch;
//! * [`DeviceFleet`] — the whole lazy-fleet policy for algorithms whose
//!   devices carry their own models (FedZKT, FedMD, Fed-ET, FedGKT): the
//!   per-device spec and model slots, the shard store, residency, the
//!   payload-template fallback and the `device_{k}` checkpoint entries.
//!   Stateless-device algorithms (FedAvg/FedProx) use only the shard
//!   store and a registry.
//!
//! The registry is also the **instrument**: it maintains `resident` /
//! `peak_resident` / `touched` counters that the driver exports into every
//! [`RoundMetrics`](crate::RoundMetrics) row, so the memory bound of the
//! lazy fleet (peak resident ≤ sampled-per-round + O(1) for stateless-
//! device algorithms such as FedAvg/FedProx) is *enforced by tests* on the
//! counter rather than claimed from OS-level RSS readings.
//!
//! Determinism: rematerialization is bit-exact. A device's first
//! materialization runs the same seeded `ModelSpec::build` an eager fleet
//! runs at construction; a *re*-materialization rebuilds and restores the
//! stored summary via `load_state_dict`, the same snapshot→rebuild→load
//! round trip the device-parallel fleet driver already relies on (and the
//! checkpoint tests prove lossless). Lazy and eager runs of the same
//! scenario therefore produce bit-identical [`RunLog`](crate::RunLog)s —
//! the workspace equivalence suite asserts exactly that.

use crate::checkpoint::AlgoState;
use fedzkt_data::Dataset;
use fedzkt_models::ModelSpec;
use fedzkt_nn::{load_state_dict, state_dict, Module, StateDict};
use std::borrow::Cow;

/// Fleet materialization strategy — a throughput/memory knob, never a
/// semantics knob: for any scenario, lazy and eager runs are bit-identical
/// (up to the [`RoundMetrics`](crate::RoundMetrics) residency gauge, which
/// reports the mode's actual memory behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Materialization {
    /// Materialize every device at construction and keep it resident for
    /// the whole run. Right for paper-scale fleets (tens of devices),
    /// where slicing shards up front is cheaper than re-subsetting per
    /// round, and for interactive use that pokes at arbitrary device
    /// models between rounds.
    #[default]
    Eager,
    /// Materialize a device only while it is needed — sampled for a
    /// round, serving as a distillation teacher, or being evaluated — and
    /// drop it back to its registry summary afterwards. Peak memory is
    /// O(resident), not O(registered): the cross-device setting's only
    /// viable mode at 10⁵–10⁶ registered devices.
    Lazy,
}

impl Materialization {
    /// Parse the scenario/CLI spelling (`"eager"` or `"lazy"`).
    ///
    /// # Errors
    /// Returns a description of the accepted forms on any other input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "eager" => Ok(Materialization::Eager),
            "lazy" => Ok(Materialization::Lazy),
            other => Err(format!("unknown materialization \"{other}\" (use \"eager\" or \"lazy\")")),
        }
    }

    /// The canonical spelling, inverse of [`Materialization::parse`].
    pub fn as_str(&self) -> &'static str {
        match self {
            Materialization::Eager => "eager",
            Materialization::Lazy => "lazy",
        }
    }

    /// Is this the lazy mode?
    pub fn is_lazy(&self) -> bool {
        matches!(self, Materialization::Lazy)
    }
}

impl std::fmt::Display for Materialization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One registered device's slot: its residency flag and — once the device
/// has trained at least once — the cumulative state summary it is
/// rematerialized from.
#[derive(Debug, Default)]
struct Slot {
    resident: bool,
    summary: Option<StateDict>,
}

/// Per-device slot storage plus residency accounting for a (possibly
/// enormous) registered fleet.
///
/// Storage is sharded: slots come into existence a shard at a time, the
/// first time any device in the shard is touched, so a registry over 10⁶
/// devices of which ~10³ are ever sampled allocates slot storage roughly
/// proportional to the touched set, not the registered population. The
/// shard size is an internal layout detail — every observable behaviour
/// (counters, summaries, residency) is identical for every shard size,
/// which the workspace property suite asserts.
///
/// The counters are the scale instrument the driver exports per round:
///
/// * [`resident`](DeviceRegistry::resident) — devices materialized right
///   now;
/// * [`peak_resident`](DeviceRegistry::peak_resident) — the high-water
///   mark over the whole run (monotone, so read order never matters);
/// * [`touched`](DeviceRegistry::touched) — devices ever materialized.
///
/// Misuse (double checkout, releasing a non-resident device, any
/// out-of-range id) panics: residency bugs must fail loudly in tests, not
/// skew the gauge that CI's memory-bound regression reads.
#[derive(Debug)]
pub struct DeviceRegistry {
    registered: usize,
    shard_size: usize,
    shards: Vec<Option<Box<[Slot]>>>,
    resident: usize,
    peak_resident: usize,
    touched: usize,
}

/// Default slot-shard size; at ~10³ devices sampled from 10⁶ registered,
/// this keeps demand-allocated slot storage in the low megabytes.
const DEFAULT_SHARD_SIZE: usize = 256;

impl DeviceRegistry {
    /// A registry over `registered` devices (ids `0..registered`), with
    /// the default shard size. No slot storage is allocated yet.
    ///
    /// # Panics
    /// Panics when `registered` is 0.
    pub fn new(registered: usize) -> Self {
        Self::with_shard_size(registered, DEFAULT_SHARD_SIZE)
    }

    /// A registry with an explicit slot-shard size (a layout knob exposed
    /// for the shard-count-invariance property tests; simulations use
    /// [`DeviceRegistry::new`]).
    ///
    /// # Panics
    /// Panics when `registered` or `shard_size` is 0.
    pub fn with_shard_size(registered: usize, shard_size: usize) -> Self {
        assert!(registered > 0, "a registry needs at least one device");
        assert!(shard_size > 0, "shard size must be positive");
        let shards = registered.div_ceil(shard_size);
        DeviceRegistry {
            registered,
            shard_size,
            shards: (0..shards).map(|_| None).collect(),
            resident: 0,
            peak_resident: 0,
            touched: 0,
        }
    }

    /// A registry for an eager fleet: every device is checked out at
    /// construction and stays resident for the whole run, so the gauge
    /// honestly reports the eager mode's memory shape
    /// (`resident == peak_resident == registered`).
    pub fn eager(registered: usize) -> Self {
        let mut reg = Self::new(registered);
        for k in 0..registered {
            reg.checkout(k);
        }
        reg
    }

    /// Number of registered devices.
    pub fn registered(&self) -> usize {
        self.registered
    }

    /// Devices currently materialized.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// High-water mark of [`DeviceRegistry::resident`] over the run.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Devices that have ever been materialized.
    pub fn touched(&self) -> usize {
        self.touched
    }

    /// Is device `k` currently materialized?
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn is_resident(&self, k: usize) -> bool {
        self.assert_in_range(k);
        self.slot(k).is_some_and(|s| s.resident)
    }

    /// Mark device `k` materialized, updating the residency counters.
    ///
    /// # Panics
    /// Panics when `k` is out of range or already resident.
    pub fn checkout(&mut self, k: usize) {
        let slot = self.slot_mut(k);
        assert!(!slot.resident, "device {k} checked out twice");
        slot.resident = true;
        self.resident += 1;
        self.touched += 1;
        self.peak_resident = self.peak_resident.max(self.resident);
    }

    /// Mark device `k` dropped.
    ///
    /// # Panics
    /// Panics when `k` is out of range or not resident.
    pub fn release(&mut self, k: usize) {
        let slot = self.slot_mut(k);
        assert!(slot.resident, "device {k} released while not resident");
        slot.resident = false;
        self.resident -= 1;
    }

    /// Store device `k`'s cumulative state summary (replacing any previous
    /// one) — the snapshot a later rematerialization restores bit-exactly.
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn store_summary(&mut self, k: usize, summary: StateDict) {
        self.slot_mut(k).summary = Some(summary);
    }

    /// Device `k`'s stored summary, if it has one. `None` means the device
    /// has never trained: materialize it from its construction seed alone.
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn summary(&self, k: usize) -> Option<&StateDict> {
        self.assert_in_range(k);
        self.slot(k).and_then(|s| s.summary.as_ref())
    }

    /// Remove and return device `k`'s stored summary, if any — the
    /// move-out path for rematerialization (avoids cloning model-sized
    /// state on the hot path).
    ///
    /// # Panics
    /// Panics when `k` is out of range.
    pub fn take_summary(&mut self, k: usize) -> Option<StateDict> {
        self.slot_mut(k).summary.take()
    }

    /// Every stored summary, as `(device, summary)` pairs in device order —
    /// the checkpoint export path. Only allocated shards are visited, so
    /// the cost is O(touched), not O(registered).
    pub fn summaries(&self) -> impl Iterator<Item = (usize, &StateDict)> + '_ {
        self.shards.iter().enumerate().filter_map(|(i, shard)| shard.as_ref().map(|s| (i, s))).flat_map(
            move |(i, shard)| {
                shard.iter().enumerate().filter_map(move |(j, slot)| {
                    slot.summary.as_ref().map(|sd| (i * self.shard_size + j, sd))
                })
            },
        )
    }

    /// Merge residency counters restored from a checkpoint: the peak
    /// high-water mark and the touched count carry across a restart (a
    /// resumed run must report the same gauge the uninterrupted run
    /// reports), while `resident` always reflects the *live* slots and is
    /// never overwritten.
    pub fn absorb_counters(&mut self, peak_resident: usize, touched: usize) {
        self.peak_resident = self.peak_resident.max(peak_resident);
        self.touched = self.touched.max(touched);
    }

    /// Checkpoint the monotone counters as the `registry` words
    /// `[peak_resident, touched]`.
    pub fn save_counters(&self, state: &mut AlgoState) {
        state.put_words("registry", vec![self.peak_resident as u64, self.touched as u64]);
    }

    /// Restore counters written by [`DeviceRegistry::save_counters`]
    /// through [`DeviceRegistry::absorb_counters`].
    ///
    /// # Errors
    /// Returns a message when the entry is missing or not two words long.
    pub fn load_counters(&mut self, state: &AlgoState) -> Result<(), String> {
        match *state.words("registry")? {
            [peak, touched] => {
                self.absorb_counters(peak as usize, touched as usize);
                Ok(())
            }
            _ => Err("registry counters must be [peak_resident, touched]".into()),
        }
    }

    fn assert_in_range(&self, k: usize) {
        assert!(k < self.registered, "device {k} out of range (registered: {})", self.registered);
    }

    /// The slot for device `k`, if its shard has been allocated.
    fn slot(&self, k: usize) -> Option<&Slot> {
        self.shards[k / self.shard_size].as_ref().map(|s| &s[k % self.shard_size])
    }

    /// The slot for device `k`, allocating its shard on first touch.
    fn slot_mut(&mut self, k: usize) -> &mut Slot {
        self.assert_in_range(k);
        let shard = self.shards[k / self.shard_size].get_or_insert_with(|| {
            (0..self.shard_size).map(|_| Slot::default()).collect::<Vec<_>>().into_boxed_slice()
        });
        &mut shard[k % self.shard_size]
    }
}

/// The devices' private shards, stored per the fleet's materialization
/// mode: eager keeps every shard sliced (cheapest at paper scale, and
/// `train` is never held twice); lazy keeps one training set plus the
/// per-device index sets and slices a shard only while its device is
/// dispatched.
pub enum ShardStore {
    /// Every shard, sliced at construction.
    Eager(Vec<Dataset>),
    /// The training set and each device's index set into it.
    Lazy {
        /// The shared training set.
        train: Dataset,
        /// Device `k`'s sample indices in `train`.
        index: Vec<Vec<usize>>,
    },
}

impl ShardStore {
    /// Store `shards` (index sets into `train`) per `mode`.
    pub fn new(train: &Dataset, shards: &[Vec<usize>], mode: Materialization) -> Self {
        match mode {
            Materialization::Eager => {
                ShardStore::Eager(shards.iter().map(|idx| train.subset(idx)).collect())
            }
            Materialization::Lazy => {
                ShardStore::Lazy { train: train.clone(), index: shards.to_vec() }
            }
        }
    }

    /// Is this the lazy store?
    pub fn is_lazy(&self) -> bool {
        matches!(self, ShardStore::Lazy { .. })
    }

    /// Number of samples in device `k`'s shard.
    pub fn shard_len(&self, k: usize) -> usize {
        match self {
            ShardStore::Eager(shards) => shards[k].len(),
            ShardStore::Lazy { index, .. } => index[k].len(),
        }
    }

    /// The shards of `ids`, in order, for one dispatch: borrowed from the
    /// eager store, sliced (and dropped with the result) in the lazy one.
    pub fn stage(&self, ids: &[usize]) -> Vec<Cow<'_, Dataset>> {
        match self {
            ShardStore::Eager(shards) => ids.iter().map(|&k| Cow::Borrowed(&shards[k])).collect(),
            ShardStore::Lazy { train, index } => {
                ids.iter().map(|&k| Cow::Owned(train.subset(&index[k]))).collect()
            }
        }
    }
}

/// A heterogeneous fleet of stateful devices: each device's [`ModelSpec`],
/// its model while resident, its private shard, and the registry that
/// summarizes it in between.
///
/// Eager fleets build every model at construction and keep it for the
/// whole run. Lazy fleets build a model on first use
/// ([`DeviceFleet::ensure_resident`]) with the same seeded build — then
/// restore the registry summary, if any — and drop it back to a summary
/// in [`DeviceFleet::end_round`]. The snapshot→rebuild→load round trip is
/// lossless, so the two modes are bit-identical.
///
/// `M` is the device model type; it defaults to a boxed zoo model, and an
/// algorithm with composite devices (FedGKT's split models) names its own.
pub struct DeviceFleet<M = Box<dyn Module>> {
    specs: Vec<ModelSpec>,
    models: Vec<Option<M>>,
    shards: ShardStore,
    registry: DeviceRegistry,
    build: Build<M>,
}

/// Device `k`'s deterministic construction from its spec.
type Build<M> = Box<dyn Fn(usize, &ModelSpec) -> M>;

impl<M: AsRef<dyn Module>> DeviceFleet<M> {
    /// A fleet of `zoo.len()` devices: device `k` runs `zoo[k]` and owns
    /// the samples `shards[k]` of `train`. `build(k, spec)` is device
    /// `k`'s deterministic construction (its seed must depend only on
    /// `k`): it runs once per device at construction in eager mode, and at
    /// every materialization in lazy mode.
    ///
    /// # Panics
    /// Panics when `zoo`/`shards` lengths differ or are empty.
    pub fn new(
        zoo: &[ModelSpec],
        train: &Dataset,
        shards: &[Vec<usize>],
        mode: Materialization,
        build: impl Fn(usize, &ModelSpec) -> M + 'static,
    ) -> Self {
        assert!(!zoo.is_empty(), "need at least one device");
        assert_eq!(zoo.len(), shards.len(), "zoo/shards length mismatch");
        let (models, registry) = match mode {
            Materialization::Eager => (
                zoo.iter().enumerate().map(|(k, spec)| Some(build(k, spec))).collect(),
                DeviceRegistry::eager(zoo.len()),
            ),
            Materialization::Lazy => {
                (zoo.iter().map(|_| None).collect(), DeviceRegistry::new(zoo.len()))
            }
        };
        DeviceFleet {
            specs: zoo.to_vec(),
            models,
            shards: ShardStore::new(train, shards, mode),
            registry,
            build: Box::new(build),
        }
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.specs.len()
    }

    /// Device `k`'s architecture.
    pub fn spec(&self, k: usize) -> ModelSpec {
        self.specs[k]
    }

    /// The residency registry.
    pub fn registry(&self) -> &DeviceRegistry {
        &self.registry
    }

    /// Number of samples in device `k`'s shard.
    pub fn shard_len(&self, k: usize) -> usize {
        self.shards.shard_len(k)
    }

    /// The shards of `ids` for one dispatch (see [`ShardStore::stage`]).
    pub fn stage(&self, ids: &[usize]) -> Vec<Cow<'_, Dataset>> {
        self.shards.stage(ids)
    }

    /// Device `k`'s resident model.
    ///
    /// # Panics
    /// Panics when the device is not resident — a lifecycle bug, since
    /// every code path that touches a model materializes it first.
    pub fn device(&self, k: usize) -> &M {
        self.models[k].as_ref().expect("device model must be resident here")
    }

    /// Device `k`'s resident model as a [`Module`] (panics like
    /// [`DeviceFleet::device`]).
    pub fn model(&self, k: usize) -> &dyn Module {
        self.device(k).as_ref()
    }

    /// Every device model, in device order (all must be resident).
    pub fn models(&self) -> impl Iterator<Item = &dyn Module> {
        (0..self.devices()).map(|k| self.model(k))
    }

    /// Materialize each device of `ids` that is not resident: the seeded
    /// build, then the registry summary, if the device has one.
    pub fn ensure_resident(&mut self, ids: impl IntoIterator<Item = usize>) {
        for k in ids {
            if self.models[k].is_some() {
                continue;
            }
            let model = (self.build)(k, &self.specs[k]);
            if let Some(summary) = self.registry.take_summary(k) {
                load_state_dict(model.as_ref(), &summary)
                    .expect("registry summary matches device architecture");
            }
            self.models[k] = Some(model);
            self.registry.checkout(k);
        }
    }

    /// Materialize every device (teacher ensembles and evaluation borrow
    /// the whole fleet).
    pub fn ensure_all_resident(&mut self) {
        self.ensure_resident(0..self.devices());
    }

    /// Lazy mode: drop every resident model back to its registry summary.
    /// An eager fleet stays materialized for the whole run.
    pub fn end_round(&mut self) {
        if !self.shards.is_lazy() {
            return;
        }
        for (k, slot) in self.models.iter_mut().enumerate() {
            if let Some(model) = slot.take() {
                self.registry.store_summary(k, state_dict(model.as_ref()));
                self.registry.release(k);
            }
        }
    }

    /// Device `k`'s current state dict without materializing it: the
    /// resident model, else its summary, else a fresh seeded build (a
    /// device that never trained).
    pub fn payload_template(&self, k: usize) -> StateDict {
        if let Some(model) = &self.models[k] {
            return state_dict(model.as_ref());
        }
        if let Some(summary) = self.registry.summary(k) {
            return summary.clone();
        }
        state_dict((self.build)(k, &self.specs[k]).as_ref())
    }

    /// Checkpoint every trained device as blob `device_{k}` — resident
    /// models first, then the summaries (an O(touched) walk) — and the
    /// registry counters. A device that never trained has no entry.
    pub fn save(&self, state: &mut AlgoState) {
        for (k, model) in self.models.iter().enumerate() {
            if let Some(model) = model {
                state.put_dict(format!("device_{k}"), &state_dict(model.as_ref()));
            }
        }
        for (k, summary) in self.registry.summaries() {
            state.put_dict(format!("device_{k}"), summary);
        }
        self.registry.save_counters(state);
    }

    /// Restore what [`DeviceFleet::save`] wrote. Every `device_{k}` blob
    /// is checked against device `k`'s architecture in both modes — a
    /// lazy fleet loads it into one template model per distinct spec
    /// before keeping it as a summary — so a checkpoint from a different
    /// zoo fails here, not at the device's next materialization.
    ///
    /// # Errors
    /// Returns a message naming the device whose state does not fit, or
    /// the malformed registry entry.
    pub fn load(&mut self, state: &AlgoState) -> Result<(), String> {
        let mut templates: Vec<(ModelSpec, M)> = Vec::new();
        for k in 0..self.devices() {
            let name = format!("device_{k}");
            if !state.has_blob(&name) {
                continue; // never trained: rematerializes from its seed
            }
            let sd = state.dict(&name)?;
            let target = match &self.models[k] {
                Some(model) => model.as_ref(),
                None => {
                    let spec = self.specs[k];
                    let i = templates.iter().position(|(s, _)| *s == spec).unwrap_or_else(|| {
                        templates.push((spec, (self.build)(k, &spec)));
                        templates.len() - 1
                    });
                    templates[i].1.as_ref()
                }
            };
            load_state_dict(target, &sd).map_err(|e| format!("device {k}: {e}"))?;
            if self.models[k].is_none() {
                self.registry.store_summary(k, sd);
            }
        }
        self.registry.load_counters(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_tensor::Tensor;

    fn summary(v: f32) -> StateDict {
        StateDict { params: vec![Tensor::scalar(v)], buffers: Vec::new() }
    }

    #[test]
    fn counters_track_checkout_release() {
        let mut reg = DeviceRegistry::new(10);
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (0, 0, 0));
        reg.checkout(3);
        reg.checkout(7);
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (2, 2, 2));
        assert!(reg.is_resident(3) && reg.is_resident(7) && !reg.is_resident(0));
        reg.release(3);
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (1, 2, 2));
        // Peak is a monotone high-water mark.
        reg.checkout(3);
        reg.release(3);
        reg.release(7);
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (0, 2, 3));
    }

    #[test]
    fn eager_registry_is_fully_resident() {
        let reg = DeviceRegistry::eager(5);
        assert_eq!(reg.resident(), 5);
        assert_eq!(reg.peak_resident(), 5);
        assert_eq!(reg.touched(), 5);
        assert!((0..5).all(|k| reg.is_resident(k)));
    }

    #[test]
    fn summaries_store_and_take() {
        let mut reg = DeviceRegistry::new(4);
        assert!(reg.summary(2).is_none());
        reg.store_summary(2, summary(1.5));
        assert_eq!(reg.summary(2), Some(&summary(1.5)));
        reg.store_summary(2, summary(2.5));
        assert_eq!(reg.take_summary(2), Some(summary(2.5)));
        assert!(reg.summary(2).is_none());
        assert!(reg.take_summary(2).is_none());
    }

    #[test]
    fn slot_storage_is_allocated_on_demand() {
        let mut reg = DeviceRegistry::with_shard_size(1_000_000, 256);
        assert!(reg.shards.iter().all(Option::is_none), "no slots before first touch");
        reg.checkout(999_999);
        assert_eq!(reg.shards.iter().filter(|s| s.is_some()).count(), 1);
        assert_eq!(reg.resident(), 1);
    }

    #[test]
    fn summaries_iterate_in_device_order_without_touching_cold_shards() {
        let mut reg = DeviceRegistry::with_shard_size(1000, 4);
        reg.store_summary(517, summary(2.0));
        reg.store_summary(3, summary(1.0));
        reg.store_summary(999, summary(3.0));
        let allocated = reg.shards.iter().filter(|s| s.is_some()).count();
        assert_eq!(allocated, 3, "only the three touched shards exist");
        let got: Vec<(usize, f32)> =
            reg.summaries().map(|(k, sd)| (k, sd.params[0].item())).collect();
        assert_eq!(got, vec![(3, 1.0), (517, 2.0), (999, 3.0)]);
    }

    #[test]
    fn absorbed_counters_merge_monotonically() {
        let mut reg = DeviceRegistry::new(8);
        reg.checkout(0);
        reg.absorb_counters(5, 6);
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (1, 5, 6));
        // Never regresses the live counters.
        reg.absorb_counters(0, 0);
        assert_eq!((reg.resident(), reg.peak_resident(), reg.touched()), (1, 5, 6));
    }

    #[test]
    #[should_panic(expected = "checked out twice")]
    fn double_checkout_panics() {
        let mut reg = DeviceRegistry::new(2);
        reg.checkout(1);
        reg.checkout(1);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn release_without_checkout_panics() {
        DeviceRegistry::new(2).release(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        DeviceRegistry::new(2).checkout(2);
    }

    #[test]
    fn parse_roundtrips_materialization() {
        for mode in [Materialization::Eager, Materialization::Lazy] {
            assert_eq!(Materialization::parse(mode.as_str()), Ok(mode));
        }
        assert!(Materialization::parse("ondemand").is_err());
        assert_eq!(Materialization::default(), Materialization::Eager);
        assert!(Materialization::Lazy.is_lazy());
        assert!(!Materialization::Eager.is_lazy());
    }
}
