//! Timing from outside the library: an in-memory span recorder and a
//! [`FederatedAlgorithm`] decorator that forwards every method to the
//! wrapped algorithm and records spans around the phases the driver calls.
//!
//! With the recorder switched off the decorator reads no clock: each hook
//! costs one `Cell` read, so untraced runs measure the algorithm as the
//! driver would run it bare.

use crate::host::process_cpu_seconds;
use fedzkt_fl::{
    AlgoState, DeviceRegistry, ErasedSimulation, FederatedAlgorithm, RoundContext, Simulation,
};
use fedzkt_nn::{Module, StateDict};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::time::Instant;

/// One timed call: wall interval (seconds since the recorder's origin),
/// process CPU seconds spent inside it, and the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub cpu: f64,
    pub parent: Option<usize>,
    pub round: usize,
    /// Thread count in force while the span ran.
    pub threads: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder. Spans nest by call order; they are kept in memory and
/// written out once, when the benchmark ends.
pub struct Tracer {
    on: Cell<bool>,
    origin: Instant,
    threads: Cell<usize>,
    round: Cell<usize>,
    spans: RefCell<Vec<Span>>,
    /// Open spans, innermost last, each with its CPU reading at entry.
    open: RefCell<Vec<(usize, f64)>>,
    /// Distinct models the current evaluation borrowed, by address.
    eval_models: RefCell<HashSet<usize>>,
    /// `(eval span, distinct models)` of each traced evaluation.
    evaluations: RefCell<Vec<(usize, usize)>>,
    /// `(local span, active devices, local samples)` of each traced local
    /// phase.
    local_work: RefCell<Vec<(usize, usize, usize)>>,
}

/// Index of an open span; `None` when the recorder is off.
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer {
            on: Cell::new(false),
            origin: Instant::now(),
            threads: Cell::new(1),
            round: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            eval_models: RefCell::new(HashSet::new()),
            evaluations: RefCell::new(Vec::new()),
            local_work: RefCell::new(Vec::new()),
        })
    }

    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    pub fn set_threads(&self, threads: usize) {
        self.threads.set(threads);
    }

    pub fn set_round(&self, round: usize) {
        self.round.set(round);
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&self, name: &'static str) -> SpanId {
        if !self.on.get() {
            return None;
        }
        let mut open = self.open.borrow_mut();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            cpu: 0.0,
            parent: open.last().map(|&(p, _)| p),
            round: self.round.get(),
            threads: self.threads.get(),
        });
        open.push((id, process_cpu_seconds()));
        Some(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn close(&self, id: SpanId) {
        let Some(id) = id else { return };
        let (top, cpu0) = self.open.borrow_mut().pop().expect("a span is open");
        assert_eq!(top, id, "spans must close innermost first");
        let mut spans = self.spans.borrow_mut();
        spans[id].end = self.origin.elapsed().as_secs_f64();
        spans[id].cpu = process_cpu_seconds() - cpu0;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// The innermost open span, if it is named `name`.
    fn innermost(&self, name: &str) -> Option<usize> {
        let open = self.open.borrow();
        open.last()
            .map(|&(id, _)| id)
            .filter(|&id| self.spans.borrow()[id].name == name)
    }

    fn note_model(&self, model: &dyn Module) {
        if self.on.get() {
            self.eval_models
                .borrow_mut()
                .insert(model as *const dyn Module as *const u8 as usize);
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// `(eval span, distinct models)` of each traced evaluation.
    pub fn evaluations(&self) -> Vec<(usize, usize)> {
        self.evaluations.borrow().clone()
    }

    /// `(local span, active devices, local samples)` of each traced local
    /// phase.
    pub fn local_work(&self) -> Vec<(usize, usize, usize)> {
        self.local_work.borrow().clone()
    }
}

/// Span names the decorator records. Evaluation is the interval from the
/// driver's `prepare_eval` call to its `end_round` call; the lazy fleet's
/// materialization and release are their own spans.
pub const LOCAL: &str = "local_update";
pub const SERVER: &str = "server_update";
pub const EVAL: &str = "eval";
pub const MATERIALIZE: &str = "registry.materialize";
pub const RELEASE: &str = "registry.release";

/// The timing decorator: a [`FederatedAlgorithm`] that forwards every
/// method, defaulted ones included, to `inner`.
pub struct Timed<A> {
    inner: A,
    tracer: Rc<Tracer>,
}

impl<A: FederatedAlgorithm> Timed<A> {
    pub fn new(inner: A, tracer: Rc<Tracer>) -> Self {
        Timed { inner, tracer }
    }
}

impl<A: FederatedAlgorithm> FederatedAlgorithm for Timed<A> {
    fn devices(&self) -> usize {
        self.inner.devices()
    }

    fn local_update(&mut self, round: usize, active: &[usize], ctx: &mut RoundContext) -> f32 {
        self.tracer.set_round(round);
        let id = self.tracer.open(LOCAL);
        if let Some(span) = id {
            let samples = active.iter().map(|&k| self.inner.local_samples(k)).sum();
            self.tracer
                .local_work
                .borrow_mut()
                .push((span, active.len(), samples));
        }
        let loss = self.inner.local_update(round, active, ctx);
        self.tracer.close(id);
        loss
    }

    fn server_update(&mut self, round: usize, active: &[usize], ctx: &mut RoundContext) {
        let id = self.tracer.open(SERVER);
        self.inner.server_update(round, active, ctx);
        self.tracer.close(id);
    }

    fn device_model(&self, k: usize) -> &dyn Module {
        let model = self.inner.device_model(k);
        self.tracer.note_model(model);
        model
    }

    fn global_model(&self) -> Option<&dyn Module> {
        let model = self.inner.global_model();
        if let Some(m) = model {
            self.tracer.note_model(m);
        }
        model
    }

    fn payload_template(&self, k: usize) -> StateDict {
        self.inner.payload_template(k)
    }

    fn downlink_template(&self, k: usize) -> StateDict {
        self.inner.downlink_template(k)
    }

    fn local_samples(&self, k: usize) -> usize {
        self.inner.local_samples(k)
    }

    fn construction_seed(&self) -> Option<u64> {
        self.inner.construction_seed()
    }

    fn registry(&self) -> Option<&DeviceRegistry> {
        self.inner.registry()
    }

    fn prepare_eval(&mut self) {
        // The evaluation span stays open until `end_round`.
        self.tracer.open(EVAL);
        self.tracer.eval_models.borrow_mut().clear();
        self.tracer.span(MATERIALIZE, || self.inner.prepare_eval());
    }

    fn end_round(&mut self, round: usize) {
        if let Some(id) = self.tracer.innermost(EVAL) {
            self.tracer.close(Some(id));
            let models = self.tracer.eval_models.borrow().len();
            self.tracer.evaluations.borrow_mut().push((id, models));
        }
        self.tracer.span(RELEASE, || self.inner.end_round(round));
    }

    fn save_state(&self) -> AlgoState {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &AlgoState) -> Result<(), String> {
        self.inner.load_state(state)
    }
}

/// The driver surface the benchmark needs, plus access to the wrapped
/// algorithm's templates and registry, whatever the algorithm type.
pub trait BenchSim: ErasedSimulation {
    /// Device `k`'s uplink and downlink payload templates.
    fn templates(&self, k: usize) -> (StateDict, StateDict);
    /// `(peak resident, touched)` of the algorithm's registry, if any.
    fn registry_counts(&self) -> Option<(usize, usize)>;
}

impl<A: FederatedAlgorithm + 'static> BenchSim for Simulation<Timed<A>> {
    fn templates(&self, k: usize) -> (StateDict, StateDict) {
        let algo = &self.algorithm().inner;
        (algo.payload_template(k), algo.downlink_template(k))
    }

    fn registry_counts(&self) -> Option<(usize, usize)> {
        self.algorithm()
            .inner
            .registry()
            .map(|r| (r.peak_resident(), r.touched()))
    }
}
