//! Lumped thermal simulation for smartphones and their test chamber.
//!
//! Smartphones have no fans: once the SoC heats the package, heat can only
//! conduct to the case and convect to ambient air. This crate models that
//! path as a lumped RC network (the same abstraction as the finite-element
//! and Therminator-style models the paper cites, collapsed to a handful of
//! nodes per device):
//!
//! * [`network::ThermalNetwork`] — capacitive nodes (die, package, battery,
//!   case) connected by thermal resistances, plus boundary nodes (ambient)
//!   at fixed temperature, integrated by sub-stepped explicit Euler.
//! * [`probe::Probe`] — a temperature sensor with first-order lag,
//!   quantisation, and Gaussian read noise (thermistors and on-die sensors
//!   are neither instant nor exact).
//! * [`thermabox::ThermaBox`] — the paper's controlled thermal chamber: a
//!   RaspberryPi bang-bang controller power-cycling a compressor and a
//!   250 W halogen lamp to hold 26 ± 0.5 °C (§III, Fig 3).
//!
//! # Examples
//!
//! ```
//! use pv_thermal::network::ThermalNetworkBuilder;
//! use pv_units::{Celsius, Seconds, ThermalCapacitance, ThermalResistance, Watts};
//!
//! let mut b = ThermalNetworkBuilder::new();
//! let die = b.add_node("die", ThermalCapacitance(4.0), Celsius(26.0))?;
//! let ambient = b.add_boundary("ambient", Celsius(26.0))?;
//! b.connect(die, ambient, ThermalResistance(8.0))?;
//! let mut net = b.build()?;
//!
//! // 2 W into the die for a while: it approaches 26 + 2·8 = 42 °C.
//! for _ in 0..20_000 {
//!     net.step(Seconds(0.1), &[(die, Watts(2.0))])?;
//! }
//! assert!((net.temperature(die).value() - 42.0).abs() < 0.1);
//! # Ok::<(), pv_thermal::ThermalError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod network;
pub mod probe;
pub mod thermabox;

use core::fmt;

/// Error type for thermal-model construction and stepping.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// A node index did not refer to a node of this network.
    UnknownNode(usize),
    /// A physical parameter was out of domain (non-positive R/C, NaN, …).
    InvalidParameter(&'static str),
    /// An edge connected a node to itself.
    SelfLoop,
    /// The network has no capacitive nodes to integrate.
    NoCapacitiveNodes,
    /// Heat was injected into a boundary node.
    HeatIntoBoundary(usize),
    /// A temperature probe produced no reading (injected sensor dropout).
    /// Transient: retrying after the fault window passes succeeds.
    ProbeDropout,
    /// The chamber's bang-bang controller is stalled and cannot regulate
    /// (injected controller hang). Transient: clears when the fault window
    /// passes.
    ChamberStalled,
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::UnknownNode(i) => write!(f, "unknown node index {i}"),
            ThermalError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            ThermalError::SelfLoop => write!(f, "edge connects a node to itself"),
            ThermalError::NoCapacitiveNodes => {
                write!(f, "network has no capacitive nodes to integrate")
            }
            ThermalError::HeatIntoBoundary(i) => {
                write!(f, "heat injected into boundary node {i}")
            }
            ThermalError::ProbeDropout => {
                write!(f, "temperature probe returned no reading (dropout)")
            }
            ThermalError::ChamberStalled => {
                write!(f, "chamber controller stalled; regulation suspended")
            }
        }
    }
}

impl std::error::Error for ThermalError {}
