//! Lumped RC thermal networks.
//!
//! A network is a graph of nodes — *capacitive* nodes with heat capacity
//! `C` (J/K) and state temperature, and *boundary* nodes pinned to a fixed
//! temperature (ambient air, the chamber interior) — connected by edges with
//! thermal resistance `R` (K/W). Each step solves
//!
//! ```text
//! C_i · dT_i/dt = P_i(t) + Σ_j (T_j − T_i) / R_ij
//! ```
//!
//! with one of three integrators. The sub-stepped explicit Euler default
//! subdivides the step so no substep exceeds a fifth of the fastest node
//! time constant, which keeps the integration stable for the stiff
//! die→package couplings found in phone models; RK4 trades four derivative
//! evaluations per substep for fourth-order accuracy. Because the network
//! is linear and time-invariant with heat held constant within a step,
//! [`Integrator::Exponential`] instead applies the exact discrete-time
//! propagator `T' = Φ·T + B·q` (a precomputed matrix exponential, cached
//! per step size) — no substeps, no derivative evaluations, and exact up
//! to floating-point roundoff.

use crate::ThermalError;
use core::fmt;
use pv_units::{Celsius, Seconds, ThermalCapacitance, ThermalResistance, Watts};
use std::sync::Arc;

/// Entries kept in the per-step-size propagator cache. Sessions alternate
/// between a busy and an idle step size (plus occasional tail steps), so a
/// handful of slots covers every realistic protocol without ever growing.
const PROPAGATOR_CACHE_CAP: usize = 8;

/// Handle to a node of a [`ThermalNetwork`].
///
/// Obtained from [`ThermalNetworkBuilder::add_node`] /
/// [`ThermalNetworkBuilder::add_boundary`]; only valid for the network built
/// from that builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

#[derive(Debug, Clone, PartialEq)]
enum NodeKind {
    Capacitive(ThermalCapacitance),
    Boundary,
}

/// A node's fixed description; its temperature lives in the network's
/// state, not here.
#[derive(Debug, Clone, PartialEq)]
struct Node {
    name: String,
    kind: NodeKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Edge {
    a: usize,
    b: usize,
    conductance: f64, // W/K
}

/// Numerical integration scheme for [`ThermalNetwork::step`].
///
/// Euler and RK4 sub-step automatically to respect the fastest node time
/// constant. Euler is the default (cheap, robust); RK4 gives fourth-order
/// accuracy per substep for workloads where larger steps matter.
/// Exponential is the fast path: it solves the linear network exactly for
/// the whole step with a cached matrix-exponential propagator, so its cost
/// is one dense mat-vec regardless of step size or network stiffness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Integrator {
    /// Sub-stepped explicit (forward) Euler.
    #[default]
    Euler,
    /// Sub-stepped classic fourth-order Runge–Kutta.
    Rk4,
    /// Exact discrete-time propagator `T' = Φ·T + B·q` with
    /// `Φ = exp(M·dt)` computed by scaling-and-squaring and cached per
    /// step size. Exact for the piecewise-constant heat profile `step`
    /// already assumes, up to floating-point roundoff.
    Exponential,
}

impl Integrator {
    /// Canonical lower-case name (stable; used in config digests, CLI
    /// flags, and bench output).
    pub fn as_str(self) -> &'static str {
        match self {
            Integrator::Euler => "euler",
            Integrator::Rk4 => "rk4",
            Integrator::Exponential => "exponential",
        }
    }

    /// Parses the output of [`Integrator::as_str`] (case-insensitive;
    /// `exp` is accepted as shorthand for `exponential`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "euler" => Some(Integrator::Euler),
            "rk4" => Some(Integrator::Rk4),
            "exp" | "exponential" => Some(Integrator::Exponential),
            _ => None,
        }
    }
}

impl fmt::Display for Integrator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Incrementally builds a validated [`ThermalNetwork`].
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug, Default)]
pub struct ThermalNetworkBuilder {
    nodes: Vec<Node>,
    temps: Vec<f64>,
    edges: Vec<Edge>,
    integrator: Integrator,
}

impl ThermalNetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the integration scheme (default: [`Integrator::Euler`]).
    pub fn integrator(&mut self, integrator: Integrator) -> &mut Self {
        self.integrator = integrator;
        self
    }

    /// Adds a capacitive node with heat capacity `capacitance` starting at
    /// `initial_temp`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for non-positive or
    /// non-finite capacitance, or non-finite temperature.
    pub fn add_node(
        &mut self,
        name: &str,
        capacitance: ThermalCapacitance,
        initial_temp: Celsius,
    ) -> Result<NodeId, ThermalError> {
        if !(capacitance.value() > 0.0 && capacitance.is_finite()) {
            return Err(ThermalError::InvalidParameter("capacitance must be > 0"));
        }
        if !initial_temp.is_finite() {
            return Err(ThermalError::InvalidParameter("initial temp non-finite"));
        }
        self.nodes.push(Node {
            name: name.to_owned(),
            kind: NodeKind::Capacitive(capacitance),
        });
        self.temps.push(initial_temp.value());
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Adds a boundary node pinned at `temp` (adjustable later with
    /// [`ThermalNetwork::set_boundary_temp`]).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for a non-finite
    /// temperature.
    pub fn add_boundary(&mut self, name: &str, temp: Celsius) -> Result<NodeId, ThermalError> {
        if !temp.is_finite() {
            return Err(ThermalError::InvalidParameter("boundary temp non-finite"));
        }
        self.nodes.push(Node {
            name: name.to_owned(),
            kind: NodeKind::Boundary,
        });
        self.temps.push(temp.value());
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Connects two nodes with thermal resistance `resistance`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for stale ids,
    /// [`ThermalError::SelfLoop`] when `a == b`, and
    /// [`ThermalError::InvalidParameter`] for a non-positive resistance.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        resistance: ThermalResistance,
    ) -> Result<(), ThermalError> {
        if a.0 >= self.nodes.len() {
            return Err(ThermalError::UnknownNode(a.0));
        }
        if b.0 >= self.nodes.len() {
            return Err(ThermalError::UnknownNode(b.0));
        }
        if a == b {
            return Err(ThermalError::SelfLoop);
        }
        if !(resistance.value() > 0.0 && resistance.is_finite()) {
            return Err(ThermalError::InvalidParameter("resistance must be > 0"));
        }
        self.edges.push(Edge {
            a: a.0,
            b: b.0,
            conductance: 1.0 / resistance.value(),
        });
        Ok(())
    }

    /// Finalises the network.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::NoCapacitiveNodes`] if nothing can be
    /// integrated.
    pub fn build(self) -> Result<ThermalNetwork, ThermalError> {
        if !self
            .nodes
            .iter()
            .any(|n| matches!(n.kind, NodeKind::Capacitive(_)))
        {
            return Err(ThermalError::NoCapacitiveNodes);
        }
        // Fastest time constant among capacitive nodes with any coupling
        // (per-node total conductance, summed in edge order).
        let mut tau_min = f64::INFINITY;
        for (i, n) in self.nodes.iter().enumerate() {
            if let NodeKind::Capacitive(c) = n.kind {
                let total_conductance: f64 = self
                    .edges
                    .iter()
                    .filter(|e| e.a == i || e.b == i)
                    .map(|e| e.conductance)
                    .sum();
                if total_conductance > 0.0 {
                    tau_min = tau_min.min(c.value() / total_conductance);
                }
            }
        }
        let n = self.nodes.len();
        Ok(ThermalNetwork {
            topology: Arc::new(Topology {
                nodes: self.nodes,
                edges: self.edges,
                max_substep: if tau_min.is_finite() {
                    0.2 * tau_min
                } else {
                    f64::INFINITY
                },
            }),
            temps: self.temps,
            integrator: self.integrator,
            heat_scratch: vec![0.0; n],
            scratch: StepScratch::sized(n),
            propagators: Vec::new(),
        })
    }
}

/// Struct-owned per-step work buffers, so the step loop never touches the
/// heap after its first step. `k1` holds the derivative evaluation (Euler)
/// or the mat-vec output (Exponential); `rk4` holds RK4's trial state and
/// its three further derivative evaluations, `n` values each. `k1` is
/// sized at build, `rk4` on the first RK4 step. The state itself is the
/// network's temperature vector, which every scheme reads in place.
#[derive(Debug, Clone, Default)]
struct StepScratch {
    k1: Vec<f64>,
    rk4: Vec<f64>,
}

impl StepScratch {
    /// Sizes the buffer every integrator uses; the RK4 stages stay empty
    /// until [`StepScratch::size_rk4`].
    fn sized(n: usize) -> Self {
        Self {
            k1: vec![0.0; n],
            rk4: Vec::new(),
        }
    }

    /// Sizes the RK4 stage buffers on first use.
    fn size_rk4(&mut self, n: usize) {
        self.rk4.resize(4 * n, 0.0);
    }
}

/// A cached discrete-time propagator for one step size: `T' = Φ·T + B·q`
/// with `Φ = exp(M·dt)` and `B = (∫₀^dt exp(M·τ) dτ)·diag(1/Cᵢ)`, both
/// dense `n×n` row-major. Exact for heat held constant over the step.
///
/// Held behind an `Arc`, so cloning a network (a device cloned per session
/// attempt) shares its cached propagators instead of copying them.
#[derive(Debug, Clone)]
struct Propagator {
    dt_bits: u64,
    phi: Vec<f64>,
    b: Vec<f64>,
}

/// The sealed structure of a network: its nodes, edges and the stability
/// bound on Euler/RK4 substeps. Built once by
/// [`ThermalNetworkBuilder::build`] and shared, read-only, by every clone
/// of the network, so a fleet of devices of one model holds one copy.
#[derive(Debug, PartialEq)]
struct Topology {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    max_substep: f64,
}

/// A built thermal network. Step it with [`ThermalNetwork::step`], read
/// temperatures with [`ThermalNetwork::temperature`].
///
/// Topology (nodes, edges, capacitances, boundary placement) is sealed by
/// [`ThermalNetworkBuilder::build`]; only temperatures and the integrator
/// choice mutate afterwards. The propagator cache relies on this: entries
/// are keyed on step size alone and never need structural invalidation.
///
/// Cloning a network shares its topology behind an `Arc` and copies only
/// its state: the temperatures, the work buffers and the handles of its
/// cached propagators, so a network cloned per unit of a device model
/// costs a few `n`-element vectors.
#[derive(Debug, Clone)]
pub struct ThermalNetwork {
    topology: Arc<Topology>,
    /// Node temperatures in °C, indexed like the topology's nodes.
    temps: Vec<f64>,
    integrator: Integrator,
    heat_scratch: Vec<f64>,
    scratch: StepScratch,
    propagators: Vec<Arc<Propagator>>,
}

/// Equality is semantic: two networks are equal when they would produce
/// identical trajectories — same topology, state, and integrator. Work
/// buffers and the propagator cache are excluded (they are derived data).
impl PartialEq for ThermalNetwork {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.topology, &other.topology) || self.topology == other.topology)
            && self.temps == other.temps
            && self.integrator == other.integrator
    }
}

impl ThermalNetwork {
    /// Current temperature of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this network (a `NodeId` can only
    /// be obtained from the builder, so this indicates builder/network
    /// mix-up).
    pub fn temperature(&self, node: NodeId) -> Celsius {
        Celsius(self.temps[node.0])
    }

    /// Overrides a capacitive node's temperature (e.g. to reset state
    /// between experiment iterations).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for stale ids and
    /// [`ThermalError::InvalidParameter`] for non-finite temperatures.
    pub fn set_temperature(&mut self, node: NodeId, temp: Celsius) -> Result<(), ThermalError> {
        if node.0 >= self.temps.len() {
            return Err(ThermalError::UnknownNode(node.0));
        }
        if !temp.is_finite() {
            return Err(ThermalError::InvalidParameter("temp non-finite"));
        }
        self.temps[node.0] = temp.value();
        Ok(())
    }

    /// Re-pins a boundary node to a new temperature.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for stale ids,
    /// [`ThermalError::InvalidParameter`] if the node is not a boundary or
    /// the temperature is non-finite.
    pub fn set_boundary_temp(&mut self, node: NodeId, temp: Celsius) -> Result<(), ThermalError> {
        if node.0 >= self.temps.len() {
            return Err(ThermalError::UnknownNode(node.0));
        }
        if !matches!(self.topology.nodes[node.0].kind, NodeKind::Boundary) {
            return Err(ThermalError::InvalidParameter("node is not a boundary"));
        }
        if !temp.is_finite() {
            return Err(ThermalError::InvalidParameter("temp non-finite"));
        }
        self.temps[node.0] = temp.value();
        Ok(())
    }

    /// Currently selected integration scheme.
    pub fn integrator(&self) -> Integrator {
        self.integrator
    }

    /// Switches the integration scheme mid-life (e.g. to put an already
    /// built device on the fast path). State and topology are untouched;
    /// cached propagators stay valid because they are keyed on step size
    /// against the sealed topology.
    pub fn set_integrator(&mut self, integrator: Integrator) {
        self.integrator = integrator;
    }

    /// Advances the network by `dt`, injecting `heat` (node, power) pairs
    /// into capacitive nodes. Euler/RK4 internally subdivide the step for
    /// stability; Exponential applies the exact propagator in one go. Any
    /// positive `dt` is safe, and steady-state stepping is allocation-free
    /// (all work buffers live on the struct).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for non-positive `dt` or
    /// non-finite powers, [`ThermalError::UnknownNode`] for stale ids, and
    /// [`ThermalError::HeatIntoBoundary`] when heat targets a boundary node.
    pub fn step(&mut self, dt: Seconds, heat: &[(NodeId, Watts)]) -> Result<(), ThermalError> {
        if !(dt.value() > 0.0 && dt.is_finite()) {
            return Err(ThermalError::InvalidParameter("dt must be > 0"));
        }
        // Build the dense heat vector, validating targets. The buffer is
        // sized at build time; `fill` keeps the capacity without the
        // clear()+resize() round-trip of earlier revisions.
        debug_assert_eq!(self.heat_scratch.len(), self.temps.len());
        self.heat_scratch.fill(0.0);
        for &(node, power) in heat {
            if node.0 >= self.temps.len() {
                return Err(ThermalError::UnknownNode(node.0));
            }
            if !power.is_finite() {
                return Err(ThermalError::InvalidParameter("power non-finite"));
            }
            if matches!(self.topology.nodes[node.0].kind, NodeKind::Boundary) {
                return Err(ThermalError::HeatIntoBoundary(node.0));
            }
            self.heat_scratch[node.0] += power.value();
        }

        if self.integrator == Integrator::Exponential {
            self.step_exponential(dt.value());
            #[cfg(debug_assertions)]
            step_stats::record(1);
            return Ok(());
        }

        let max_substep = self.topology.max_substep;
        let substeps = if max_substep.is_finite() {
            (dt.value() / max_substep).ceil().max(1.0) as usize
        } else {
            1
        };
        let h = dt.value() / substeps as f64;
        #[cfg(debug_assertions)]
        step_stats::record(substeps as u64);

        match self.integrator {
            Integrator::Euler => self.substep_euler(substeps, h),
            Integrator::Rk4 => self.substep_rk4(substeps, h),
            Integrator::Exponential => unreachable!("handled above"),
        }
        Ok(())
    }

    fn substep_euler(&mut self, substeps: usize, h: f64) {
        let Self {
            topology,
            temps,
            heat_scratch,
            scratch,
            ..
        } = self;
        for _ in 0..substeps {
            topology.derivatives(temps, heat_scratch, &mut scratch.k1);
            for ((t, node), k) in temps.iter_mut().zip(&topology.nodes).zip(&scratch.k1) {
                if matches!(node.kind, NodeKind::Capacitive(_)) {
                    *t += k * h;
                }
            }
        }
    }

    fn substep_rk4(&mut self, substeps: usize, h: f64) {
        let n = self.temps.len();
        self.scratch.size_rk4(n);
        let Self {
            topology,
            temps,
            heat_scratch: heat,
            scratch,
            ..
        } = self;
        let k1 = &mut scratch.k1;
        let (stage, rest) = scratch.rk4.split_at_mut(n);
        let (k2, rest) = rest.split_at_mut(n);
        let (k3, k4) = rest.split_at_mut(n);
        for _ in 0..substeps {
            let y = &*temps;
            topology.derivatives(y, heat, k1);
            for i in 0..n {
                stage[i] = y[i] + 0.5 * h * k1[i];
            }
            topology.derivatives(stage, heat, k2);
            for i in 0..n {
                stage[i] = y[i] + 0.5 * h * k2[i];
            }
            topology.derivatives(stage, heat, k3);
            for i in 0..n {
                stage[i] = y[i] + h * k3[i];
            }
            topology.derivatives(stage, heat, k4);
            for (i, node) in topology.nodes.iter().enumerate() {
                if matches!(node.kind, NodeKind::Capacitive(_)) {
                    temps[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
                }
            }
        }
    }

    /// Applies the cached exact propagator: `T' = Φ·T + B·q` over the full
    /// `dt` in a single dense mat-vec pair — no substeps, no derivative
    /// evaluations. Builds and caches the propagator on first sight of a
    /// step size (sessions reuse two sizes, so this amortises to zero).
    fn step_exponential(&mut self, dt: f64) {
        let idx = self.propagator_index(dt);
        // Disjoint field borrows: the propagator is read while the
        // temperatures and scratch are written.
        let Self {
            temps,
            propagators,
            scratch,
            heat_scratch,
            ..
        } = self;
        let p = &propagators[idx];
        let n = temps.len();
        let out = &mut scratch.k1;
        // out = Φ·T + B·q, fused row by row. `chunks_exact` + `zip` keep
        // the inner loop free of bounds checks.
        for ((o, phi_row), b_row) in out
            .iter_mut()
            .zip(p.phi.chunks_exact(n))
            .zip(p.b.chunks_exact(n))
        {
            let mut acc = 0.0;
            for ((&ph, &bb), (&yy, &qq)) in phi_row
                .iter()
                .zip(b_row.iter())
                .zip(temps.iter().zip(heat_scratch.iter()))
            {
                acc += ph * yy + bb * qq;
            }
            *o = acc;
        }
        // Boundary rows of Φ are identity (and of B zero), so boundary
        // temperatures pass through bit-exactly and the new state is the
        // whole output: swapping the buffers is the write-back.
        std::mem::swap(temps, out);
    }

    /// Index of the propagator for `dt` in the network's cache, building it
    /// on a miss (microseconds for a phone-scale network, and a session
    /// misses once per step size). Hits move one slot toward the front so
    /// the two protocol step sizes stay in the first slots; the cache is
    /// capped at [`PROPAGATOR_CACHE_CAP`] entries (oldest evicted) so
    /// pathological dt sequences cannot grow it.
    fn propagator_index(&mut self, dt: f64) -> usize {
        let dt_bits = dt.to_bits();
        if let Some(pos) = self.propagators.iter().position(|p| p.dt_bits == dt_bits) {
            if pos != 0 {
                self.propagators.swap(pos, pos - 1);
                return pos - 1;
            }
            return 0;
        }
        let p = Arc::new(self.topology.build_propagator(dt));
        self.propagators.truncate(PROPAGATOR_CACHE_CAP - 1);
        self.propagators.insert(0, p);
        0
    }

    /// The discrete-time propagator for step size `dt`, as a shareable
    /// handle, through the same cache the [`Integrator::Exponential`] step
    /// path uses.
    #[cfg(test)]
    fn exponential_propagator(&mut self, dt: Seconds) -> Result<Arc<Propagator>, ThermalError> {
        if !(dt.value() > 0.0 && dt.is_finite()) {
            return Err(ThermalError::InvalidParameter("dt must be > 0"));
        }
        let idx = self.propagator_index(dt.value());
        Ok(self.propagators[idx].clone())
    }

    /// Runs [`step`](Self::step) repeatedly until `total` time has elapsed,
    /// using steps of at most `dt`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`step`](Self::step).
    pub fn run(
        &mut self,
        total: Seconds,
        dt: Seconds,
        heat: &[(NodeId, Watts)],
    ) -> Result<(), ThermalError> {
        if !(total.value() >= 0.0 && total.is_finite()) {
            return Err(ThermalError::InvalidParameter("total must be >= 0"));
        }
        let mut remaining = total.value();
        while remaining > 0.0 {
            let step = remaining.min(dt.value());
            self.step(Seconds(step), heat)?;
            remaining -= step;
        }
        Ok(())
    }
}

impl Topology {
    /// Derivative of every node temperature at state `temps` (°C) under
    /// the dense `heat` vector (W), writing into `out` (°C/s). Boundary
    /// nodes have zero derivative.
    fn derivatives(&self, temps: &[f64], heat: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for e in &self.edges {
            let flow = (temps[e.b] - temps[e.a]) * e.conductance;
            out[e.a] += flow;
            out[e.b] -= flow;
        }
        for (i, node) in self.nodes.iter().enumerate() {
            match node.kind {
                NodeKind::Capacitive(c) => {
                    out[i] = (out[i] + heat[i]) / c.value();
                }
                NodeKind::Boundary => out[i] = 0.0,
            }
        }
    }

    /// Computes `Φ = exp(M·dt)` and `B = S·diag(1/Cᵢ)` with
    /// `S = ∫₀^dt exp(M·τ) dτ` by scaling-and-squaring: a Taylor base step
    /// at `h = dt/2ˢ` (scaled so `‖M·h‖∞ ≤ 0.5`, keeping the series fast
    /// and well conditioned), then `s` doublings using
    /// `Φ(2h) = Φ(h)²` and `S(2h) = (I + Φ(h))·S(h)`.
    fn build_propagator(&self, dt: f64) -> Propagator {
        let n = self.nodes.len();
        // System matrix M (row-major): dT/dt = M·T + diag(1/Cᵢ)·q.
        // Boundary rows are zero, so their Φ rows stay exactly identity and
        // pinned temperatures pass through the propagator untouched.
        let mut m = vec![0.0f64; n * n];
        for e in &self.edges {
            if let NodeKind::Capacitive(c) = self.nodes[e.a].kind {
                let g = e.conductance / c.value();
                m[e.a * n + e.b] += g;
                m[e.a * n + e.a] -= g;
            }
            if let NodeKind::Capacitive(c) = self.nodes[e.b].kind {
                let g = e.conductance / c.value();
                m[e.b * n + e.a] += g;
                m[e.b * n + e.b] -= g;
            }
        }

        // Scaling: pick s with ‖M·dt‖∞ / 2ˢ ≤ 0.5.
        let norm = (0..n)
            .map(|i| m[i * n..(i + 1) * n].iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0f64, f64::max)
            * dt;
        let mut scalings = 0i32;
        let mut scaled = norm;
        while scaled > 0.5 && scalings < 64 {
            scaled /= 2.0;
            scalings += 1;
        }
        let h = dt / 2f64.powi(scalings);

        // A = M·h; Taylor: Φ = Σ Aᵏ/k!, S = h·Σ Aᵏ/(k+1)!.
        let a: Vec<f64> = m.iter().map(|v| v * h).collect();
        let mut phi = identity(n);
        let mut s_sum = identity(n); // Σ Aᵏ/(k+1)! accumulator, k = 0 term = I
        let mut term = identity(n); // Aᵏ/k!
        let mut next = vec![0.0f64; n * n];
        for k in 1..=30u32 {
            mat_mul(n, &term, &a, &mut next);
            let kf = f64::from(k);
            for v in next.iter_mut() {
                *v /= kf;
            }
            std::mem::swap(&mut term, &mut next);
            let mut max_term = 0.0f64;
            for (p, t) in phi.iter_mut().zip(&term) {
                *p += t;
                max_term = max_term.max(t.abs());
            }
            let sk = 1.0 / f64::from(k + 1);
            for (sv, t) in s_sum.iter_mut().zip(&term) {
                *sv += t * sk;
            }
            if max_term < 1e-18 {
                break;
            }
        }
        let mut s_int: Vec<f64> = s_sum.iter().map(|v| v * h).collect();

        // Doubling: Φ ← Φ², S ← (I + Φ)·S.
        let mut tmp = vec![0.0f64; n * n];
        for _ in 0..scalings {
            let mut i_plus_phi = phi.clone();
            for i in 0..n {
                i_plus_phi[i * n + i] += 1.0;
            }
            mat_mul(n, &i_plus_phi, &s_int, &mut tmp);
            std::mem::swap(&mut s_int, &mut tmp);
            mat_mul(n, &phi, &phi, &mut tmp);
            std::mem::swap(&mut phi, &mut tmp);
        }

        // B = S·diag(dⱼ), dⱼ = 1/Cⱼ for capacitive nodes, 0 for boundaries
        // (heat into boundaries is rejected upstream anyway).
        let mut b = s_int;
        for j in 0..n {
            let d = match self.nodes[j].kind {
                NodeKind::Capacitive(c) => 1.0 / c.value(),
                NodeKind::Boundary => 0.0,
            };
            for i in 0..n {
                b[i * n + j] *= d;
            }
        }
        Propagator {
            dt_bits: dt.to_bits(),
            phi,
            b,
        }
    }
}

/// `n×n` identity, row-major.
fn identity(n: usize) -> Vec<f64> {
    let mut m = vec![0.0f64; n * n];
    for i in 0..n {
        m[i * n + i] = 1.0;
    }
    m
}

/// Dense row-major `out = a·b` for `n×n` matrices. Networks are tiny
/// (phones model 3–5 nodes), so the naïve triple loop is the right tool.
fn mat_mul(n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += aik * b[k * n + j];
            }
        }
    }
}

/// Debug-build-only integration counters for profiling (surfaced by
/// `repro --verbose`): total [`ThermalNetwork::step`] calls and the
/// substeps they expanded into. Compiled out of release builds entirely.
#[cfg(debug_assertions)]
pub mod step_stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    static STEPS: AtomicU64 = AtomicU64::new(0);
    static SUBSTEPS: AtomicU64 = AtomicU64::new(0);

    pub(super) fn record(substeps: u64) {
        STEPS.fetch_add(1, Ordering::Relaxed);
        SUBSTEPS.fetch_add(substeps, Ordering::Relaxed);
    }

    /// (network steps, integrator substeps) recorded since process start.
    pub fn snapshot() -> (u64, u64) {
        (
            STEPS.load(Ordering::Relaxed),
            SUBSTEPS.load(Ordering::Relaxed),
        )
    }
}

impl fmt::Display for ThermalNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thermal network:")?;
        for (n, &temp) in self.topology.nodes.iter().zip(&self.temps) {
            let tag = match n.kind {
                NodeKind::Capacitive(c) => format!("C={:.2} J/K", c.value()),
                NodeKind::Boundary => "boundary".to_owned(),
            };
            write!(f, " [{} {} {:.2}]", n.name, tag, Celsius(temp))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_pair() -> (ThermalNetwork, NodeId, NodeId) {
        let mut b = ThermalNetworkBuilder::new();
        let die = b
            .add_node("die", ThermalCapacitance(10.0), Celsius(50.0))
            .unwrap();
        let amb = b.add_boundary("ambient", Celsius(26.0)).unwrap();
        b.connect(die, amb, ThermalResistance(5.0)).unwrap();
        (b.build().unwrap(), die, amb)
    }

    #[test]
    fn relaxation_follows_exponential_decay() {
        let (mut net, die, _) = simple_pair();
        // tau = R*C = 50 s; after one tau the excess drops to 1/e.
        net.run(Seconds(50.0), Seconds(0.05), &[]).unwrap();
        let excess = net.temperature(die).value() - 26.0;
        let expected = 24.0 * (-1.0f64).exp();
        assert!(
            (excess - expected).abs() < 0.05,
            "excess {excess} vs {expected}"
        );
    }

    #[test]
    fn steady_state_is_ambient_plus_p_times_r() {
        let (mut net, die, _) = simple_pair();
        net.run(Seconds(600.0), Seconds(0.1), &[(die, Watts(3.0))])
            .unwrap();
        // 26 + 3 W × 5 K/W = 41 °C.
        assert!((net.temperature(die).value() - 41.0).abs() < 0.01);
    }

    #[test]
    fn isolated_pair_conserves_energy() {
        let mut b = ThermalNetworkBuilder::new();
        let a = b
            .add_node("a", ThermalCapacitance(4.0), Celsius(80.0))
            .unwrap();
        let c = b
            .add_node("b", ThermalCapacitance(12.0), Celsius(20.0))
            .unwrap();
        b.connect(a, c, ThermalResistance(2.0)).unwrap();
        let mut net = b.build().unwrap();
        let energy0 = 4.0 * 80.0 + 12.0 * 20.0;
        net.run(Seconds(200.0), Seconds(0.1), &[]).unwrap();
        let energy1 = 4.0 * net.temperature(a).value() + 12.0 * net.temperature(c).value();
        assert!((energy1 - energy0).abs() < 1e-6 * energy0);
        // And they equilibrate to the capacitance-weighted mean: 35 °C.
        assert!((net.temperature(a).value() - 35.0).abs() < 0.01);
        assert!((net.temperature(c).value() - 35.0).abs() < 0.01);
    }

    #[test]
    fn boundary_node_never_moves() {
        let (mut net, die, amb) = simple_pair();
        net.run(Seconds(100.0), Seconds(0.1), &[(die, Watts(10.0))])
            .unwrap();
        assert_eq!(net.temperature(amb), Celsius(26.0));
    }

    #[test]
    fn set_boundary_temp_shifts_equilibrium() {
        let (mut net, die, amb) = simple_pair();
        net.set_boundary_temp(amb, Celsius(40.0)).unwrap();
        net.run(Seconds(500.0), Seconds(0.1), &[]).unwrap();
        assert!((net.temperature(die).value() - 40.0).abs() < 0.01);
        // Capacitive nodes reject set_boundary_temp.
        assert!(net.set_boundary_temp(die, Celsius(10.0)).is_err());
    }

    #[test]
    fn large_steps_are_substepped_stably() {
        let (mut net, die, _) = simple_pair();
        // One huge 1000 s step on a tau = 50 s system would explode without
        // substepping; with it, the result is the steady state.
        net.step(Seconds(1000.0), &[(die, Watts(3.0))]).unwrap();
        let t = net.temperature(die).value();
        assert!(t.is_finite());
        assert!((t - 41.0).abs() < 0.5, "temp {t}");
    }

    #[test]
    fn heat_into_boundary_is_rejected() {
        let (mut net, _, amb) = simple_pair();
        assert_eq!(
            net.step(Seconds(1.0), &[(amb, Watts(1.0))]),
            Err(ThermalError::HeatIntoBoundary(amb.0))
        );
    }

    #[test]
    fn builder_validation() {
        let mut b = ThermalNetworkBuilder::new();
        assert!(b
            .add_node("x", ThermalCapacitance(0.0), Celsius(26.0))
            .is_err());
        assert!(b
            .add_node("x", ThermalCapacitance(1.0), Celsius(f64::NAN))
            .is_err());
        assert!(b.add_boundary("x", Celsius(f64::INFINITY)).is_err());
        let a = b
            .add_node("a", ThermalCapacitance(1.0), Celsius(26.0))
            .unwrap();
        assert!(b.connect(a, a, ThermalResistance(1.0)).is_err());
        let c = b.add_boundary("amb", Celsius(26.0)).unwrap();
        assert!(b.connect(a, c, ThermalResistance(0.0)).is_err());
        assert!(b.connect(a, c, ThermalResistance(1.0)).is_ok());
    }

    #[test]
    fn boundary_only_network_is_rejected() {
        let mut b = ThermalNetworkBuilder::new();
        b.add_boundary("amb", Celsius(26.0)).unwrap();
        assert!(matches!(b.build(), Err(ThermalError::NoCapacitiveNodes)));
    }

    #[test]
    fn step_validation() {
        let (mut net, die, _) = simple_pair();
        assert!(net.step(Seconds(0.0), &[]).is_err());
        assert!(net.step(Seconds(-1.0), &[]).is_err());
        assert!(net.step(Seconds(1.0), &[(die, Watts(f64::NAN))]).is_err());
        assert!(net.step(Seconds(1.0), &[(NodeId(99), Watts(1.0))]).is_err());
        assert!(net.run(Seconds(-1.0), Seconds(0.1), &[]).is_err());
    }

    #[test]
    fn multiple_heat_sources_accumulate() {
        let (mut net, die, _) = simple_pair();
        // Two 1.5 W entries behave as one 3 W entry.
        net.run(
            Seconds(600.0),
            Seconds(0.1),
            &[(die, Watts(1.5)), (die, Watts(1.5))],
        )
        .unwrap();
        assert!((net.temperature(die).value() - 41.0).abs() < 0.01);
    }

    #[test]
    fn set_temperature_resets_state() {
        let (mut net, die, _) = simple_pair();
        net.set_temperature(die, Celsius(26.0)).unwrap();
        assert_eq!(net.temperature(die), Celsius(26.0));
        assert!(net.set_temperature(NodeId(42), Celsius(26.0)).is_err());
        assert!(net.set_temperature(die, Celsius(f64::NAN)).is_err());
    }

    #[test]
    fn names_and_display() {
        let (net, die, amb) = simple_pair();
        assert_eq!(net.topology.nodes[die.0].name, "die");
        assert_eq!(net.topology.nodes[amb.0].name, "ambient");
        assert_eq!(net.temps.len(), 2);
        let s = format!("{net}");
        assert!(s.contains("die") && s.contains("boundary"));
    }

    #[test]
    fn clones_share_topology_and_own_their_state() {
        let (mut a, die, _) = simple_pair();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.topology, &b.topology));
        a.step(Seconds(1.0), &[(die, Watts(5.0))]).unwrap();
        assert_eq!(b.temperature(die), Celsius(50.0), "the clone moved");
        assert_ne!(a.temperature(die), b.temperature(die));
        assert_eq!(b.topology.nodes[die.0].name, "die");
    }

    #[test]
    fn three_node_chain_orders_temperatures() {
        // die -> case -> ambient with heat at the die: die hottest, case in
        // between, ambient fixed.
        let mut b = ThermalNetworkBuilder::new();
        let die = b
            .add_node("die", ThermalCapacitance(5.0), Celsius(26.0))
            .unwrap();
        let case = b
            .add_node("case", ThermalCapacitance(40.0), Celsius(26.0))
            .unwrap();
        let amb = b.add_boundary("amb", Celsius(26.0)).unwrap();
        b.connect(die, case, ThermalResistance(2.0)).unwrap();
        b.connect(case, amb, ThermalResistance(6.0)).unwrap();
        let mut net = b.build().unwrap();
        net.run(Seconds(2000.0), Seconds(0.1), &[(die, Watts(2.0))])
            .unwrap();
        let (td, tc) = (net.temperature(die).value(), net.temperature(case).value());
        // Steady state: case = 26 + 2*6 = 38, die = case + 2*2 = 42.
        assert!((tc - 38.0).abs() < 0.05, "case {tc}");
        assert!((td - 42.0).abs() < 0.05, "die {td}");
    }
}

#[cfg(test)]
mod integrator_tests {
    use super::*;

    fn pair(integrator: Integrator) -> (ThermalNetwork, NodeId) {
        let mut b = ThermalNetworkBuilder::new();
        b.integrator(integrator);
        let die = b
            .add_node("die", ThermalCapacitance(10.0), Celsius(80.0))
            .unwrap();
        let amb = b.add_boundary("ambient", Celsius(26.0)).unwrap();
        b.connect(die, amb, ThermalResistance(5.0)).unwrap();
        (b.build().unwrap(), die)
    }

    #[test]
    fn rk4_and_euler_agree_at_small_steps() {
        let (mut euler, die_e) = pair(Integrator::Euler);
        let (mut rk4, die_r) = pair(Integrator::Rk4);
        euler.run(Seconds(60.0), Seconds(0.01), &[]).unwrap();
        rk4.run(Seconds(60.0), Seconds(0.01), &[]).unwrap();
        let gap = (euler.temperature(die_e).value() - rk4.temperature(die_r).value()).abs();
        // Euler's global error at h = 0.01 s over 60 s of a tau = 50 s decay
        // is ~2e-3 K; RK4's is negligible. They must agree to that order.
        assert!(gap < 5e-3, "schemes diverge: {gap}");
    }

    #[test]
    fn rk4_is_more_accurate_at_coarse_steps() {
        // Analytic: T(60) = 26 + 54·e^{-60/50}. Integrate with a single
        // coarse substep size (tau/5 = 10 s) and compare errors.
        let exact = 26.0 + 54.0 * (-60.0f64 / 50.0).exp();
        let (mut euler, die_e) = pair(Integrator::Euler);
        let (mut rk4, die_r) = pair(Integrator::Rk4);
        euler.run(Seconds(60.0), Seconds(10.0), &[]).unwrap();
        rk4.run(Seconds(60.0), Seconds(10.0), &[]).unwrap();
        let err_euler = (euler.temperature(die_e).value() - exact).abs();
        let err_rk4 = (rk4.temperature(die_r).value() - exact).abs();
        assert!(
            err_rk4 < err_euler / 100.0,
            "rk4 {err_rk4} should beat euler {err_euler} by orders of magnitude"
        );
        assert!(err_rk4 < 1e-2, "rk4 error {err_rk4}");
    }

    #[test]
    fn rk4_steady_state_with_heat_matches_fourier() {
        let mut b = ThermalNetworkBuilder::new();
        b.integrator(Integrator::Rk4);
        let die = b
            .add_node("die", ThermalCapacitance(4.0), Celsius(26.0))
            .unwrap();
        let amb = b.add_boundary("ambient", Celsius(26.0)).unwrap();
        b.connect(die, amb, ThermalResistance(8.0)).unwrap();
        let mut net = b.build().unwrap();
        net.run(Seconds(500.0), Seconds(2.0), &[(die, Watts(2.5))])
            .unwrap();
        assert!((net.temperature(die).value() - (26.0 + 2.5 * 8.0)).abs() < 0.01);
    }

    #[test]
    fn default_integrator_is_euler() {
        assert_eq!(Integrator::default(), Integrator::Euler);
    }

    #[test]
    fn integrator_names_round_trip() {
        for i in [Integrator::Euler, Integrator::Rk4, Integrator::Exponential] {
            assert_eq!(Integrator::parse(i.as_str()), Some(i));
            assert_eq!(format!("{i}"), i.as_str());
        }
        assert_eq!(Integrator::parse("exp"), Some(Integrator::Exponential));
        assert_eq!(Integrator::parse("RK4"), Some(Integrator::Rk4));
        assert_eq!(Integrator::parse("simpson"), None);
    }
}

#[cfg(test)]
mod exponential_tests {
    use super::*;

    fn decay_pair(integrator: Integrator) -> (ThermalNetwork, NodeId) {
        let mut b = ThermalNetworkBuilder::new();
        b.integrator(integrator);
        let die = b
            .add_node("die", ThermalCapacitance(10.0), Celsius(80.0))
            .unwrap();
        let amb = b.add_boundary("ambient", Celsius(26.0)).unwrap();
        b.connect(die, amb, ThermalResistance(5.0)).unwrap();
        (b.build().unwrap(), die)
    }

    #[test]
    fn single_giant_step_is_exact() {
        // tau = 50 s; one 60 s step lands on the analytic solution to
        // floating-point precision — the whole point of the propagator.
        let (mut net, die) = decay_pair(Integrator::Exponential);
        net.step(Seconds(60.0), &[]).unwrap();
        let exact = 26.0 + 54.0 * (-60.0f64 / 50.0).exp();
        let err = (net.temperature(die).value() - exact).abs();
        assert!(err < 1e-9, "exponential error {err:.3e}");
    }

    #[test]
    fn steady_state_with_heat_matches_fourier() {
        let (mut net, die) = decay_pair(Integrator::Exponential);
        net.run(Seconds(2000.0), Seconds(500.0), &[(die, Watts(3.0))])
            .unwrap();
        assert!((net.temperature(die).value() - 41.0).abs() < 1e-6);
    }

    #[test]
    fn boundary_is_bit_exact() {
        let (mut net, die) = decay_pair(Integrator::Exponential);
        let amb = NodeId(1);
        net.run(Seconds(300.0), Seconds(0.5), &[(die, Watts(8.0))])
            .unwrap();
        assert_eq!(net.temperature(amb), Celsius(26.0));
    }

    #[test]
    fn propagator_cache_hits_and_caps() {
        let (mut net, die) = decay_pair(Integrator::Exponential);
        // Alternate the two protocol step sizes: exactly two cache entries.
        for _ in 0..50 {
            net.step(Seconds(0.1), &[(die, Watts(1.0))]).unwrap();
            net.step(Seconds(0.5), &[]).unwrap();
        }
        assert_eq!(net.propagators.len(), 2);
        // A pathological stream of distinct step sizes stays capped.
        for i in 1..(4 * PROPAGATOR_CACHE_CAP) {
            net.step(Seconds(0.01 * i as f64), &[]).unwrap();
        }
        assert!(net.propagators.len() <= PROPAGATOR_CACHE_CAP);
    }

    #[test]
    fn propagator_rejects_bad_dt() {
        let (mut net, _) = decay_pair(Integrator::Exponential);
        assert!(net.exponential_propagator(Seconds(0.0)).is_err());
        assert!(net.exponential_propagator(Seconds(-1.0)).is_err());
        assert!(net.exponential_propagator(Seconds(f64::NAN)).is_err());
    }

    #[test]
    fn set_integrator_switches_mid_run() {
        let (mut net, die) = decay_pair(Integrator::Euler);
        net.run(Seconds(20.0), Seconds(0.1), &[(die, Watts(3.0))])
            .unwrap();
        assert_eq!(net.integrator(), Integrator::Euler);
        net.set_integrator(Integrator::Exponential);
        assert_eq!(net.integrator(), Integrator::Exponential);
        net.run(Seconds(1000.0), Seconds(0.5), &[(die, Watts(3.0))])
            .unwrap();
        assert!((net.temperature(die).value() - 41.0).abs() < 1e-6);
    }

    #[test]
    fn equality_ignores_derived_caches() {
        let (mut a, die) = decay_pair(Integrator::Exponential);
        let (b, _) = decay_pair(Integrator::Exponential);
        a.step(Seconds(0.1), &[]).unwrap(); // populates the cache
        a.set_temperature(die, Celsius(80.0)).unwrap(); // restore state
        assert_eq!(a, b, "cache contents must not affect equality");
    }

    /// Tiny deterministic xorshift so the property test needs no RNG dep.
    struct Lcg(u64);
    impl Lcg {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.next_f64()
        }
    }

    /// Property-style equivalence: on randomized RC networks (varying node
    /// counts, boundary placement, topology, and heat patterns) the
    /// Exponential propagator tracks sub-stepped RK4 to tight tolerance
    /// over a mixed-step-size trajectory.
    #[test]
    fn matches_rk4_on_randomized_networks() {
        let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
        for case in 0..40 {
            let caps = 1 + (rng.next_f64() * 4.0) as usize; // 1..=4 capacitive
            let bounds = 1 + (rng.next_f64() * 2.0) as usize; // 1..=2 boundary
            let build = |integrator: Integrator| {
                let mut b = ThermalNetworkBuilder::new();
                b.integrator(integrator);
                let mut rng = Lcg(0xC0FF_EE00 + case); // same draws per scheme
                let mut ids = Vec::new();
                for i in 0..caps {
                    ids.push(
                        b.add_node(
                            &format!("n{i}"),
                            ThermalCapacitance(rng.range(0.5, 20.0)),
                            Celsius(rng.range(20.0, 90.0)),
                        )
                        .unwrap(),
                    );
                }
                for i in 0..bounds {
                    ids.push(
                        b.add_boundary(&format!("b{i}"), Celsius(rng.range(15.0, 40.0)))
                            .unwrap(),
                    );
                }
                // Chain keeps it connected; extra random edges vary topology.
                for w in ids.windows(2) {
                    b.connect(w[0], w[1], ThermalResistance(rng.range(0.5, 10.0)))
                        .unwrap();
                }
                let extra = (rng.next_f64() * 3.0) as usize;
                for _ in 0..extra {
                    let i = (rng.next_f64() * ids.len() as f64) as usize % ids.len();
                    let j = (rng.next_f64() * ids.len() as f64) as usize % ids.len();
                    if i != j {
                        b.connect(ids[i], ids[j], ThermalResistance(rng.range(1.0, 20.0)))
                            .unwrap();
                    }
                }
                let mut heat: Vec<(NodeId, Watts)> = Vec::new();
                for &id in &ids[..caps] {
                    if rng.next_f64() < 0.7 {
                        heat.push((id, Watts(rng.range(0.0, 6.0))));
                    }
                }
                (b.build().unwrap(), ids, heat)
            };
            let (mut rk4, ids, heat) = build(Integrator::Rk4);
            let (mut expo, _, heat_e) = build(Integrator::Exponential);
            assert_eq!(heat, heat_e, "builders must draw identically");
            // Mixed step sizes, including ones that force RK4 substepping.
            for &dt in &[0.1, 0.5, 0.1, 2.5, 0.1, 0.5, 7.0, 0.1] {
                for _ in 0..12 {
                    rk4.step(Seconds(dt), &heat).unwrap();
                    expo.step(Seconds(dt), &heat).unwrap();
                }
            }
            for &id in &ids {
                let gap = (rk4.temperature(id).value() - expo.temperature(id).value()).abs();
                assert!(
                    gap < 1e-4,
                    "case {case}: node {} diverged by {gap:.3e} K",
                    id.0
                );
            }
        }
    }
}

#[cfg(test)]
mod convergence_tests {
    use super::*;

    /// Integrates the canonical single-node decay with explicit substep size
    /// control by calling `step` repeatedly with dt = h.
    fn final_error(integrator: Integrator, h: f64) -> f64 {
        let mut b = ThermalNetworkBuilder::new();
        b.integrator(integrator);
        let die = b
            .add_node("die", ThermalCapacitance(10.0), Celsius(80.0))
            .unwrap();
        let amb = b.add_boundary("ambient", Celsius(26.0)).unwrap();
        b.connect(die, amb, ThermalResistance(5.0)).unwrap();
        let mut net = b.build().unwrap();
        let total = 40.0;
        let steps = (total / h).round() as usize;
        for _ in 0..steps {
            net.step(Seconds(h), &[]).unwrap();
        }
        let exact = 26.0 + 54.0 * (-total / 50.0f64).exp();
        (net.temperature(die).value() - exact).abs()
    }

    #[test]
    fn euler_converges_at_first_order() {
        // Halving h must roughly halve the global error (ratio ∈ [1.6, 2.4]).
        let e1 = final_error(Integrator::Euler, 8.0);
        let e2 = final_error(Integrator::Euler, 4.0);
        let ratio = e1 / e2;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "euler order ratio {ratio:.2} (e1={e1:.2e}, e2={e2:.2e})"
        );
    }

    #[test]
    fn rk4_converges_at_fourth_order() {
        // Halving h must cut the global error by ~16× (ratio ∈ [10, 24]).
        let e1 = final_error(Integrator::Rk4, 8.0);
        let e2 = final_error(Integrator::Rk4, 4.0);
        let ratio = e1 / e2;
        assert!(
            (10.0..=24.0).contains(&ratio),
            "rk4 order ratio {ratio:.2} (e1={e1:.2e}, e2={e2:.2e})"
        );
    }
}
