//! Analytical cycle/resource pricing of the fast nonlinear VPU unit —
//! the LUT/polynomial GELU–exp–rsqrt pipeline the paper's future-work
//! section motivates ("the vector processing unit is also being optimized
//! to improve non-linear function performance", §V).
//!
//! The simulation side of that unit lives in `bfp-transformer`'s
//! `vpu::fast` module; this module prices its hardware op mix on the U280
//! platform model. Its multiplies run on DSP fp32 lanes (~3 DSP48E2 per
//! lane, Vivado's full-precision fp32 multiplier), exact to IEEE rounding.
//!
//! `bfp-core::vpucost` cross-checks this model against the live engine's
//! op census: the cycles priced here for an analytical census equal the
//! cycles priced for the measured one.

use crate::resources::ResourceVec;
use crate::u280::U280;

/// Hardware op mix of a nonlinear workload, one field per resource class
/// of the unit. Mirrors (field for field) the transformer crate's VPU
/// `OpCount`, but lives here so the platform model depends on no
/// simulation code; `bfp-core` converts between the two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VpuOpMix {
    /// fp32 multiplies (DSP lanes).
    pub fp_mul: u64,
    /// fp32 additions/subtractions.
    pub fp_add: u64,
    /// Exponent-unit integer exponent adjustments (2^k scales).
    pub exp_adjust: u64,
    /// Comparator operations (max reductions).
    pub cmp: u64,
    /// ROM lookups (exp2 table, NR seeds).
    pub lut: u64,
    /// Divisions escaping to the host CPU.
    pub host_div: u64,
    /// Square roots escaping to the host CPU.
    pub host_sqrt: u64,
}

impl VpuOpMix {
    /// On-array operations (everything that does not round-trip the host).
    pub fn array_ops(&self) -> u64 {
        self.fp_mul + self.fp_add + self.exp_adjust + self.cmp + self.lut
    }

    /// Host round-trips.
    pub fn host_ops(&self) -> u64 {
        self.host_div + self.host_sqrt
    }
}

/// Cycles one host division/square-root round-trip costs the array. The
/// paper offloads fp32 division to the host CPU (§III-B); at PCIe/driver
/// batch granularity the amortised per-op cost is hundreds of kernel
/// cycles — the reason Table IV's nonlinear rows dominate latency and the
/// host-free NR kernels exist at all.
pub const HOST_ROUNDTRIP_CYCLES: f64 = 240.0;

/// The fast nonlinear unit: a fixed-function pipeline of multiplier
/// lanes, adder lanes, the exponent unit, comparators, and the `2^(j/64)`
/// ROM + NR seed tables.
#[derive(Debug, Clone, Copy)]
pub struct NonlinearUnit {
    /// Parallel lanes per op class (the unit issues this many of each
    /// class per cycle when the pipeline is full).
    pub lanes: usize,
    /// Kernel clock in Hz.
    pub freq_hz: f64,
}

impl NonlinearUnit {
    /// The recommended serving configuration: 4 exact DSP fp32 lanes (the
    /// fp32 mode of the multi-mode array drives 4 FPU columns) at the
    /// paper's 300 MHz kernel clock.
    pub fn recommended() -> Self {
        NonlinearUnit {
            lanes: 4,
            freq_hz: U280::FREQ_HZ,
        }
    }

    /// Utilisation of the whole unit: multiplier lanes (3 DSP + LUT/FF
    /// glue each, the standard Vivado full fp32 multiplier), adder lanes,
    /// the exponent unit (Table II row), comparators, and the ROMs. The
    /// 64-entry × 32-bit exp2 table plus NR seeds fit distributed LUTRAM
    /// (no BRAM), one copy per lane.
    pub fn usage(&self) -> ResourceVec {
        let lanes = self.lanes as f64;
        let mul = ResourceVec::new(84.0, 183.0, 0.0, 3.0) * lanes;
        // fp32 adder lane: align/add/normalise in fabric, ~2 DSP-free
        // configurations are common; the paper's adder is fabric-only.
        let add = ResourceVec::new(210.0, 227.0, 0.0, 0.0) * lanes;
        // Exponent unit (Table II) + comparator tree + per-lane ROMs.
        let eu = ResourceVec::new(269.0, 195.0, 0.0, 0.0);
        let cmp_rom = ResourceVec::new(96.0, 40.0, 0.0, 0.0) * lanes;
        mul + add + eu + cmp_rom
    }

    /// Pipeline cycles to drain `mix`. Each op class has its own lanes,
    /// so on-array classes overlap: the pipeline is limited by its widest
    /// class, not their sum. Host escapes serialise the array and charge
    /// the full round-trip each.
    pub fn cycles(&self, mix: &VpuOpMix) -> f64 {
        let lanes = self.lanes as f64;
        let widest = [mix.fp_mul, mix.fp_add, mix.exp_adjust, mix.cmp, mix.lut]
            .into_iter()
            .max()
            .unwrap_or(0) as f64;
        widest / lanes + mix.host_ops() as f64 * HOST_ROUNDTRIP_CYCLES
    }

    /// Wall-clock seconds to drain `mix` at the unit's kernel clock.
    pub fn latency_s(&self, mix: &VpuOpMix) -> f64 {
        self.cycles(mix) / self.freq_hz
    }

    /// Effective FLOPS when draining `mix` (adds + muls per second).
    pub fn effective_flops(&self, mix: &VpuOpMix) -> f64 {
        let s = self.latency_s(mix);
        if s == 0.0 {
            0.0
        } else {
            (mix.fp_mul + mix.fp_add) as f64 / s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fast-GELU per-element mix (mirrors `vpu::fast::cost::gelu`).
    fn fast_gelu() -> VpuOpMix {
        VpuOpMix {
            fp_mul: 13,
            fp_add: 12,
            exp_adjust: 6,
            cmp: 0,
            lut: 2,
            host_div: 0,
            host_sqrt: 0,
        }
    }

    /// The exact-path GELU mix with the host division (mirrors
    /// `vpu::cost::gelu`).
    fn exact_gelu() -> VpuOpMix {
        VpuOpMix {
            fp_mul: 13,
            fp_add: 13,
            exp_adjust: 1,
            cmp: 0,
            lut: 0,
            host_div: 1,
            host_sqrt: 0,
        }
    }

    #[test]
    fn host_escapes_dominate_the_exact_kernel_cycles() {
        let u = NonlinearUnit::recommended();
        let fast = u.cycles(&fast_gelu());
        let exact = u.cycles(&exact_gelu());
        assert!(
            exact > 50.0 * fast,
            "one host division outweighs the whole fast pipeline: {exact} vs {fast}"
        );
    }

    #[test]
    fn on_array_classes_overlap_in_the_pipeline() {
        let u = NonlinearUnit::recommended();
        let mix = fast_gelu();
        let c = u.cycles(&mix);
        // Bounded by the widest class / lanes, not the sum of classes.
        assert!((c - 13.0 / 4.0).abs() < 1e-12, "cycles {c}");
        assert!(c < mix.array_ops() as f64 / 4.0);
    }

    #[test]
    fn latency_scales_with_clock_and_mix() {
        let u = NonlinearUnit::recommended();
        let slow = NonlinearUnit {
            freq_hz: u.freq_hz / 2.0,
            ..u
        };
        let mix = fast_gelu();
        assert!((slow.latency_s(&mix) / u.latency_s(&mix) - 2.0).abs() < 1e-9);
        assert!(u.effective_flops(&mix) > 1e9, "GFLOPS-scale unit");
    }

    #[test]
    fn op_mix_totals() {
        let m = fast_gelu();
        assert_eq!(m.array_ops(), 13 + 12 + 6 + 2);
        assert_eq!(m.host_ops(), 0);
        assert_eq!(exact_gelu().host_ops(), 1);
    }
}
