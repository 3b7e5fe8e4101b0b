//! Thread-throttling policies (Sections 2.5 and 4.2).
//!
//! * [`dynmg::DynMg`] — the paper's two-level dynamic multi-gear
//!   controller (the throttling contribution).
//! * [`dyncta::Dyncta`] — the DYNCTA baseline (per-core ±1, no spatial
//!   dimension).
//! * [`lcs::Lcs`] — the LCS baseline (static decision from the first
//!   thread block).

pub mod dyncta;
pub mod dynmg;
pub mod lcs;

pub use dyncta::{Dyncta, DynctaConfig};
pub use dynmg::{Contention, DynMg, DynMgConfig, InCoreConfig};
pub use lcs::Lcs;

use llamcat_sim::arb::{NoThrottle, ThrottleController, ThrottleInputs};
use llamcat_sim::types::Cycle;

/// Closed-world enum over every throttle controller this crate knows
/// (the monomorphization counterpart of
/// [`crate::arbiter::ArbiterKind`]).
#[derive(Clone)]
pub enum ThrottleKind {
    None(NoThrottle),
    Dyncta(Dyncta),
    Lcs(Lcs),
    DynMg(DynMg),
}

macro_rules! each_throttle {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            ThrottleKind::None($inner) => $body,
            ThrottleKind::Dyncta($inner) => $body,
            ThrottleKind::Lcs($inner) => $body,
            ThrottleKind::DynMg($inner) => $body,
        }
    };
}

impl ThrottleController for ThrottleKind {
    #[inline]
    fn tick(&mut self, inputs: &ThrottleInputs<'_>, max_tb: &mut [usize]) {
        each_throttle!(self, t => t.tick(inputs, max_tb))
    }

    #[inline]
    fn reset(&mut self, num_cores: usize) {
        each_throttle!(self, t => t.reset(num_cores))
    }

    #[inline]
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        each_throttle!(self, t => t.next_event(now))
    }
}
