//! Baseline Sybil defenses and evaluation constructs from the paper.
//!
//! * [`variants`] — named constructors for everything in the plots: ERGO,
//!   CCOM, ERGO-CH1, ERGO-CH2, ERGO-SF(92/98);
//! * [`sybilcontrol`] — the SybilControl baseline (uncoordinated recurring
//!   tests every 0.5 s);
//! * [`remp`] — the REMP baseline (constant `(1−κ)Tmax/κ` spend rate);
//! * [`lower_bound`] — the Theorem 3 B1–B3 algorithm family and the
//!   adversary that forces `Ω(√(T·J) + J)` spending.
//!
//! # Example
//!
//! ```
//! use sybil_defenses::lower_bound::{run_lower_bound, CostFunction};
//!
//! let out = run_lower_bound(CostFunction::RatioTotalGood, 1e6, 2.0, 10_000, 1.0 / 11.0, 1000.0);
//! // Theorem 3: no B1-B3 algorithm beats Ω(√(T·J) + J).
//! assert!(out.spend_rate >= 0.5 * out.bound);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod lower_bound;
pub mod remp;
pub mod sybilcontrol;
pub mod variants;

pub use lower_bound::{run_lower_bound, CostFunction, LowerBoundOutcome};
pub use remp::{Remp, RempConfig};
pub use sybilcontrol::{SybilControl, SybilControlConfig};
pub use variants::{ccom, ergo, ergo_ch1, ergo_ch2, ergo_sf, ergo_sf_full};
