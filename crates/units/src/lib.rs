//! Typed electrical and temporal quantities for the CapMaestro suite.
//!
//! Power-management code juggles many `f64`s with different meanings: AC
//! watts, DC watts, amperes, ratios, seconds. Mixing them up is exactly the
//! kind of bug that trips a breaker in production, so this crate wraps each
//! quantity in a newtype ([`Watts`], [`Amperes`], [`Volts`], [`Ratio`],
//! [`Seconds`]) with checked construction and explicit conversions.
//!
//! All quantities are thin wrappers around `f64`, are `Copy`, and implement
//! the arithmetic operators that make physical sense (adding watts to watts,
//! scaling watts by a ratio) while omitting the ones that do not (there is no
//! `Watts * Watts`).
//!
//! # Examples
//!
//! ```
//! use capmaestro_units::{Watts, Ratio};
//!
//! let rating = Watts::new(6_900.0);
//! let derated = rating * Ratio::new(0.8);
//! assert_eq!(derated, Watts::new(5_520.0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod power;
mod quantities;
mod three_phase;

pub use power::Watts;
pub use quantities::{Amperes, Ratio, Seconds, Volts};
pub use three_phase::{three_phase_power, PHASE_VOLTAGE_V};
