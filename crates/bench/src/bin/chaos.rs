//! chaos — deterministic fault-injection campaign over the protected
//! GEMM stack, the quantitative backbone of DESIGN.md's detection
//! ladder.
//!
//! The campaign sweeps **fault site × injection rate × protection
//! scheme** over DeiT-S GEMM shapes. Every trial installs a seeded
//! [`FaultPlan`](bfp_faults::FaultPlan) (SplitMix64 expansion — the same seed always replays
//! the same campaign bit-for-bit), runs one GEMM through the scheme
//! under test, and classifies the result against a fault-free golden
//! run:
//!
//! * `benign`    — the upset never reached the output bits
//! * `corrected` — output bit-exact *and* the scheme did repair work
//! * `detected`  — output wrong but flagged (discardable: safe)
//! * `silent`    — output wrong and nothing noticed (the failure mode
//!   the whole ladder exists to drive to zero)
//!
//! Schemes are protection *stacks*, not layers: every scheme except
//! `ecc` reads through **unprotected** (raw) BRAM so the campaign
//! measures that scheme's own coverage rather than SECDED's. That is
//! what exposes the classic blind spots — ECC cannot see datapath
//! upsets (DSP48/PSU sites), and TMR/cross-check replicas agree with
//! each other on *persistent* storage faults, which only the ABFT
//! checksum invariant catches.
//!
//! Detection latency and throughput overhead are modelled in array
//! cycles (the paper's currency); host wall-clock overhead of the
//! checked kernel is reported alongside as a software observation.
//!
//! Usage: `cargo run --release -p bfp-bench --features faults --bin
//! chaos [-- --quick] [--seed N] [--out PATH]`. Writes
//! `BENCH_FAULTS.json` and asserts the headline acceptance numbers
//! (ABFT coverage ≥ 99%, zero ABFT silent corruptions, modelled
//! overhead < 10%) and the tally identities (each scheme's outcome
//! classes and cells sum to its trials), so CI can run it as a gate.

#[cfg(not(feature = "faults"))]
fn main() {
    eprintln!("chaos: the fault-injection hooks are compiled out of this build.");
    eprintln!("rebuild with: cargo run --release -p bfp-bench --features faults --bin chaos");
    std::process::exit(2);
}

#[cfg(feature = "faults")]
fn main() {
    campaign::run();
}

#[cfg(feature = "faults")]
mod campaign {
    use std::fmt::Write as _;
    use std::time::Instant;

    use bfp_arith::matrix::MatF32;
    use bfp_arith::quant::Quantizer;
    use bfp_arith::{AbftOptions, AbftPacked};
    use bfp_core::scheduler::gemm_cycles_one_array;
    use bfp_core::{abft_overhead_cycles, resilient_matmul, RecoveryPolicy};
    use bfp_faults::{FaultPlan, FaultSpec};
    use bfp_platform::MemParams;

    /// SplitMix64: the repo-wide deterministic seed expander.
    struct Split(u64);

    impl Split {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// Where the upset lands in the modelled device.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Site {
        /// DSP48 P-register commit in the tile-product datapath.
        Dsp48,
        /// Stored mantissa byte in the operand BRAM pool.
        Bram,
        /// Partial-sum accumulator word read at chain drain.
        Psu,
    }

    impl Site {
        const ALL: [Site; 3] = [Site::Dsp48, Site::Bram, Site::Psu];

        fn name(self) -> &'static str {
            match self {
                Site::Dsp48 => "dsp48",
                Site::Bram => "bram",
                Site::Psu => "psu",
            }
        }
    }

    /// The protection stack a trial runs under.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Scheme {
        /// Unprotected baseline: nothing watches the output.
        None,
        /// SECDED on the BRAMs only (the storage rung of the ladder).
        Ecc,
        /// Triple modular redundancy: run three times, majority-vote bits.
        Tmr,
        /// Run twice, compare bits: a duplication check, priced as one
        /// full re-execution.
        Crosscheck,
        /// ABFT checksum invariant, single GEMM, in-place correction.
        Abft,
        /// The full resilient ladder: ABFT + retry + fp32 fallback.
        AbftRetry,
    }

    impl Scheme {
        const ALL: [Scheme; 6] = [
            Scheme::None,
            Scheme::Ecc,
            Scheme::Tmr,
            Scheme::Crosscheck,
            Scheme::Abft,
            Scheme::AbftRetry,
        ];

        fn name(self) -> &'static str {
            match self {
                Scheme::None => "none",
                Scheme::Ecc => "ecc",
                Scheme::Tmr => "tmr",
                Scheme::Crosscheck => "crosscheck",
                Scheme::Abft => "abft",
                Scheme::AbftRetry => "abft_retry",
            }
        }

        /// Only the `ecc` scheme reads through SECDED-protected BRAM;
        /// every other scheme is measured over raw (unprotected)
        /// storage so the numbers isolate its own coverage.
        fn secded_bram(self) -> bool {
            self == Scheme::Ecc
        }
    }

    /// What one trial did to the output, judged against the golden bits.
    #[derive(Clone, Copy)]
    enum Outcome {
        Benign,
        Corrected,
        Detected,
        Silent,
    }

    fn classify(bits_equal: bool, detected: bool, corrected_work: bool) -> Outcome {
        if bits_equal {
            if corrected_work {
                Outcome::Corrected
            } else {
                Outcome::Benign
            }
        } else if detected {
            Outcome::Detected
        } else {
            Outcome::Silent
        }
    }

    #[derive(Clone, Copy, Default)]
    struct Tally {
        trials: u64,
        benign: u64,
        corrected: u64,
        detected: u64,
        silent: u64,
    }

    impl Tally {
        fn add(&mut self, o: Outcome) {
            self.trials += 1;
            match o {
                Outcome::Benign => self.benign += 1,
                Outcome::Corrected => self.corrected += 1,
                Outcome::Detected => self.detected += 1,
                Outcome::Silent => self.silent += 1,
            }
        }

        fn merge(&mut self, t: &Tally) {
            self.trials += t.trials;
            self.benign += t.benign;
            self.corrected += t.corrected;
            self.detected += t.detected;
            self.silent += t.silent;
        }

        /// Of the trials where the fault reached (or would have
        /// reached) the output, how many were caught or repaired.
        fn coverage(&self) -> f64 {
            let affected = self.corrected + self.detected + self.silent;
            if affected == 0 {
                1.0
            } else {
                (self.corrected + self.detected) as f64 / affected as f64
            }
        }

        /// Of the caught faults, how many ended bit-exact.
        fn correction_success(&self) -> f64 {
            let caught = self.corrected + self.detected;
            if caught == 0 {
                0.0
            } else {
                self.corrected as f64 / caught as f64
            }
        }
    }

    /// One DeiT-S GEMM shape with its packed operands, golden bits, and
    /// the site-extent bounds fault plans must stay inside.
    struct ShapeCtx {
        dims: (usize, usize, usize),
        a: MatF32,
        b: MatF32,
        pa: AbftPacked,
        pb: AbftPacked,
        golden: Vec<u32>,
        /// DSP48 P-register commits in one checked GEMM.
        commits: u64,
        /// Output chains (= PSU reads per accumulator cell).
        chains: u64,
        /// BRAM lines guaranteed present on every BRAM of both planes.
        bram_lines: u64,
    }

    fn bits_of(m: &MatF32) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// A smooth activation-like operand (bounded, no outliers),
    /// deterministic in `seed` so every run regenerates identically.
    fn smooth_matrix(rows: usize, cols: usize, seed: u32) -> MatF32 {
        let s = seed as f32;
        MatF32::from_fn(rows, cols, |i, j| {
            ((i as f32 * 0.31 + j as f32 * 0.17 + s * 0.01).sin()) * 1.5
        })
    }

    fn shape_ctx(q: &Quantizer, dims: (usize, usize, usize), seed: u32) -> ShapeCtx {
        let (m, k, n) = dims;
        let a = smooth_matrix(m, k, seed);
        let b = smooth_matrix(k, n, seed ^ 0x5A5A);
        let pa = AbftPacked::quantize_pack_lhs(q, &a).expect("quantize lhs");
        let pb = AbftPacked::quantize_pack_rhs(q, &b).expect("quantize rhs");
        let (gold, r) = pa.matmul(&pb).expect("golden gemm");
        assert!(r.clean(), "golden run must be fault-free");
        let (mb, kb, nb) = (m.div_ceil(8), k.div_ceil(8), n.div_ceil(8));
        ShapeCtx {
            dims,
            a,
            b,
            pa,
            pb,
            golden: bits_of(&gold),
            commits: (mb * nb * kb * 64) as u64,
            chains: (mb * nb) as u64,
            // Tiles stripe across 16 BRAMs in 64-byte lines
            // (`bfp_arith::abft::plane_site`); bound addresses by the
            // smaller plane so every (bram, addr) exists in both.
            bram_lines: ((mb * kb).min(kb * nb) / 16) as u64,
        }
    }

    /// Expand `rate` seeded faults aimed at `site`, bounded to indices
    /// the workload actually exercises (so plans cannot whiff).
    fn build_plan(
        site: Site,
        scheme: Scheme,
        rate: u64,
        ctx: &ShapeCtx,
        rng: &mut Split,
    ) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for _ in 0..rate {
            let spec = match site {
                Site::Dsp48 => FaultSpec::DspPRegFlip {
                    nth: rng.below(ctx.commits),
                    bit: rng.below(40) as u8,
                },
                Site::Psu => FaultSpec::PsuFlip {
                    nth: rng.below(ctx.chains),
                    row: rng.below(8) as usize,
                    col: rng.below(8) as usize,
                    bit: rng.below(44) as u8,
                },
                Site::Bram => {
                    let bram = rng.below(16) as usize;
                    let addr = (rng.below(ctx.bram_lines) * 64 + rng.below(64)) as usize;
                    if scheme.secded_bram() {
                        let lo = rng.below(13) as u8;
                        let bits = if rng.below(2) == 0 {
                            vec![lo]
                        } else {
                            vec![lo, (lo + 1 + rng.below(12) as u8) % 13]
                        };
                        FaultSpec::BramFlip { bram, addr, bits }
                    } else {
                        FaultSpec::BramRawFlip {
                            bram,
                            addr,
                            mask: 1u8 << rng.below(8),
                        }
                    }
                }
            };
            plan = plan.with(spec);
        }
        plan
    }

    /// Majority-vote three replicas elementwise by bit pattern. Returns
    /// the voted bits and whether any replica disagreed (TMR's
    /// detection signal).
    fn vote3(b1: &[u32], b2: &[u32], b3: &[u32]) -> (Vec<u32>, bool) {
        let mut disagree = false;
        let voted = b1
            .iter()
            .zip(b2)
            .zip(b3)
            .map(|((&x, &y), &z)| {
                if x == y && y == z {
                    x
                } else {
                    disagree = true;
                    if x == y || x == z {
                        x
                    } else if y == z {
                        y
                    } else {
                        x
                    }
                }
            })
            .collect();
        (voted, disagree)
    }

    /// One trial: install the plan, run the scheme, classify against
    /// golden. `(bits_equal, detected, corrected_work)` feed
    /// [`classify`].
    fn run_trial(scheme: Scheme, ctx: &ShapeCtx, q: &Quantizer, plan: FaultPlan) -> Outcome {
        let _guard = bfp_faults::install(plan);
        let unverified = || -> Vec<u32> {
            let (out, _) = ctx
                .pa
                .matmul_with(&ctx.pb, &mut AbftOptions::unverified())
                .expect("gemm");
            bits_of(&out)
        };
        let (equal, detected, corrected) = match scheme {
            Scheme::None => (unverified() == ctx.golden, false, false),
            Scheme::Ecc => {
                let equal = unverified() == ctx.golden;
                let c = bfp_faults::counters();
                (equal, c.uncorrected() > 0, c.ecc_corrected > 0)
            }
            Scheme::Tmr => {
                let (r1, r2, r3) = (unverified(), unverified(), unverified());
                let (voted, disagree) = vote3(&r1, &r2, &r3);
                (voted == ctx.golden, disagree, disagree)
            }
            Scheme::Crosscheck => {
                let (r1, r2) = (unverified(), unverified());
                let c = bfp_faults::counters();
                let detected = r1 != r2 || c.uncorrected() > 0;
                (r1 == ctx.golden, detected, false)
            }
            Scheme::Abft => {
                let (out, r) = ctx
                    .pa
                    .matmul_with(&ctx.pb, &mut AbftOptions::default())
                    .expect("gemm");
                let c = bfp_faults::counters();
                let detected = r.detections > 0 || c.uncorrected() > 0;
                (
                    bits_of(&out) == ctx.golden,
                    detected,
                    r.corrected_elements > 0,
                )
            }
            Scheme::AbftRetry => {
                let o = resilient_matmul(&ctx.a, &ctx.b, q, &RecoveryPolicy::default())
                    .expect("resilient gemm");
                let r = &o.report;
                let corrected = r.abft_corrections > 0 || r.retries > 0;
                (bits_of(&o.out) == ctx.golden, r.detected > 0, corrected)
            }
        };
        classify(equal, detected, corrected)
    }

    /// Modelled mean detection latency for one shape, in array cycles.
    /// `None` means the scheme never detects anything.
    fn latency_cycles(scheme: Scheme, dims: (usize, usize, usize), mem: &MemParams) -> Option<f64> {
        let (m, k, n) = dims;
        let pass = gemm_cycles_one_array(m, k, n, mem);
        let chains = (m.div_ceil(8) * n.div_ceil(8)) as f64;
        match scheme {
            Scheme::None => None,
            // SECDED flags on the faulted read itself.
            Scheme::Ecc => Some(1.0),
            // The vote resolves only after the third replica finishes.
            Scheme::Tmr => Some(3.0 * pass),
            // The comparison lands after the second pass.
            Scheme::Crosscheck => Some(2.0 * pass),
            // Checkpoints bound detection to one output chain.
            Scheme::Abft | Scheme::AbftRetry => Some(pass / chains),
        }
    }

    fn mean(vals: impl Iterator<Item = f64>) -> f64 {
        let v: Vec<f64> = vals.collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    }

    struct CellRow {
        site: Site,
        rate: u64,
        shape: (usize, usize, usize),
        tally: Tally,
    }

    fn flag_val<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|s| s.as_str())
    }

    pub fn run() {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick");
        let seed: u64 = flag_val(&args, "--seed")
            .map(|s| s.parse().expect("--seed takes a u64"))
            .unwrap_or(0xC0FFEE);
        let out_path = flag_val(&args, "--out").unwrap_or("BENCH_FAULTS.json");

        // DeiT-S encoder GEMMs: attention projection, MLP expand, and
        // the per-head score product.
        let shapes: &[(usize, usize, usize)] = if quick {
            &[(197, 64, 197)]
        } else {
            &[(197, 384, 384), (197, 384, 1536), (197, 64, 197)]
        };
        let rates: [u64; 2] = [1, 4];
        let trials_per_cell: u64 = if quick { 2 } else { 4 };

        let q = Quantizer::paper();
        let mem = MemParams::paper_calibrated();

        eprintln!(
            "chaos: seed {seed:#x}, {} shapes x {} sites x {} rates x {} schemes x {} trials",
            shapes.len(),
            Site::ALL.len(),
            rates.len(),
            Scheme::ALL.len(),
            trials_per_cell,
        );

        let ctxs: Vec<ShapeCtx> = shapes
            .iter()
            .enumerate()
            .map(|(i, &dims)| shape_ctx(&q, dims, 0x1234 + i as u32))
            .collect();

        let mut totals: Vec<Tally> = vec![Tally::default(); Scheme::ALL.len()];
        let mut cells: Vec<Vec<CellRow>> = Scheme::ALL.iter().map(|_| Vec::new()).collect();
        let campaign_t = Instant::now();
        for (si, &scheme) in Scheme::ALL.iter().enumerate() {
            for (site_i, &site) in Site::ALL.iter().enumerate() {
                for &rate in &rates {
                    for (shape_i, ctx) in ctxs.iter().enumerate() {
                        let mut tally = Tally::default();
                        for trial in 0..trials_per_cell {
                            // Per-trial stream: deterministic in the
                            // campaign seed and the cell coordinates.
                            let mut rng = Split(
                                seed ^ ((si as u64) << 40)
                                    ^ ((site_i as u64) << 32)
                                    ^ (rate << 24)
                                    ^ ((shape_i as u64) << 16)
                                    ^ trial,
                            );
                            let plan = build_plan(site, scheme, rate, ctx, &mut rng);
                            tally.add(run_trial(scheme, ctx, &q, plan));
                        }
                        totals[si].merge(&tally);
                        cells[si].push(CellRow {
                            site,
                            rate,
                            shape: ctx.dims,
                            tally,
                        });
                    }
                }
            }
            eprintln!(
                "chaos: scheme {:<10} coverage {:>6.1}%  silent {:>2}  ({:.1}s)",
                scheme.name(),
                totals[si].coverage() * 100.0,
                totals[si].silent,
                campaign_t.elapsed().as_secs_f64(),
            );
        }

        // Throughput overhead. Modelled: the checked kernel's extra
        // array cycles over the plain packed pass (checksum lanes ride
        // in an augmented PE row/column, so the per-step MACs are area,
        // not time — see `bfp_core::abft_overhead_cycles`). Host: wall
        // clock of the checked vs unchecked software kernel, no fault
        // session installed.
        let reps = if quick { 3 } else { 5 };
        let modelled_overhead_pct = mean(shapes.iter().map(|&(m, k, n)| {
            100.0 * abft_overhead_cycles(m, k, n) / gemm_cycles_one_array(m, k, n, &mem)
        }));
        let host_overhead_pct = mean(ctxs.iter().map(|ctx| {
            let base = best_secs(reps, || {
                std::hint::black_box(ctx.pa.packed().matmul(ctx.pb.packed()).expect("gemm"));
            });
            let checked = best_secs(reps, || {
                std::hint::black_box(
                    ctx.pa
                        .matmul_with(&ctx.pb, &mut AbftOptions::default())
                        .expect("gemm"),
                );
            });
            100.0 * (checked / base - 1.0)
        }));
        let scheme_overhead_pct = |scheme: Scheme| -> (f64, f64) {
            match scheme {
                Scheme::None => (0.0, 0.0),
                // SECDED rides the BRAM read port; no added cycles.
                Scheme::Ecc => (0.0, 0.0),
                Scheme::Tmr => (200.0, 200.0),
                Scheme::Crosscheck => (100.0, 100.0),
                Scheme::Abft | Scheme::AbftRetry => (modelled_overhead_pct, host_overhead_pct),
            }
        };

        println!(
            "\n{:<11} {:>7} {:>7} {:>9} {:>9} {:>7} {:>10} {:>12} {:>12}",
            "scheme",
            "trials",
            "benign",
            "corrected",
            "detected",
            "silent",
            "coverage",
            "latency(cyc)",
            "overhead(%)"
        );
        for (si, &scheme) in Scheme::ALL.iter().enumerate() {
            let t = &totals[si];
            let lat = mean(
                shapes
                    .iter()
                    .filter_map(|&d| latency_cycles(scheme, d, &mem)),
            );
            let lat_s = if latency_cycles(scheme, shapes[0], &mem).is_some() {
                format!("{lat:.0}")
            } else {
                "-".to_string()
            };
            println!(
                "{:<11} {:>7} {:>7} {:>9} {:>9} {:>7} {:>9.1}% {:>12} {:>12.2}",
                scheme.name(),
                t.trials,
                t.benign,
                t.corrected,
                t.detected,
                t.silent,
                t.coverage() * 100.0,
                lat_s,
                scheme_overhead_pct(scheme).0,
            );
        }
        println!("host overhead of the checked kernel: {host_overhead_pct:.1}% (software, informational)");

        // ---- JSON artifact ------------------------------------------
        let mut j = String::new();
        let _ = writeln!(j, "{{");
        let _ = writeln!(j, "  \"schema\": \"bench_faults/v1\",");
        let _ = writeln!(j, "  \"quick\": {quick},");
        let _ = writeln!(j, "  \"seed\": {seed},");
        let _ = writeln!(j, "  \"trials_per_cell\": {trials_per_cell},");
        let _ = write!(j, "  \"shapes\": [");
        for (i, (m, k, n)) in shapes.iter().enumerate() {
            let _ = write!(j, "{}[{m}, {k}, {n}]", if i > 0 { ", " } else { "" });
        }
        let _ = writeln!(j, "],");
        let _ = writeln!(j, "  \"sites\": [\"dsp48\", \"bram\", \"psu\"],");
        let _ = writeln!(j, "  \"rates\": [{}, {}],", rates[0], rates[1]);
        let _ = writeln!(j, "  \"schemes\": [");
        for (si, &scheme) in Scheme::ALL.iter().enumerate() {
            let t = &totals[si];
            let (mo, ho) = scheme_overhead_pct(scheme);
            let _ = writeln!(j, "    {{");
            let _ = writeln!(j, "      \"scheme\": \"{}\",", scheme.name());
            let _ = writeln!(j, "      \"trials\": {},", t.trials);
            let _ = writeln!(j, "      \"benign\": {},", t.benign);
            let _ = writeln!(j, "      \"corrected\": {},", t.corrected);
            let _ = writeln!(j, "      \"detected\": {},", t.detected);
            let _ = writeln!(j, "      \"silent\": {},", t.silent);
            let _ = writeln!(j, "      \"detection_coverage\": {:.6},", t.coverage());
            let _ = writeln!(
                j,
                "      \"silent_rate\": {:.6},",
                t.silent as f64 / t.trials.max(1) as f64
            );
            let _ = writeln!(
                j,
                "      \"correction_success_rate\": {:.6},",
                t.correction_success()
            );
            let lat = if latency_cycles(scheme, shapes[0], &mem).is_some() {
                format!(
                    "{:.1}",
                    mean(
                        shapes
                            .iter()
                            .filter_map(|&d| latency_cycles(scheme, d, &mem))
                    )
                )
            } else {
                "null".to_string()
            };
            let _ = writeln!(j, "      \"mean_detection_latency_cycles\": {lat},");
            let _ = writeln!(j, "      \"modelled_overhead_pct\": {mo:.3},");
            let _ = writeln!(j, "      \"host_overhead_pct\": {ho:.3},");
            let _ = writeln!(j, "      \"cells\": [");
            for (ci, c) in cells[si].iter().enumerate() {
                let (m, k, n) = c.shape;
                let _ = writeln!(
                    j,
                    "        {{\"site\": \"{}\", \"rate\": {}, \"shape\": [{m}, {k}, {n}], \
                     \"trials\": {}, \"benign\": {}, \"corrected\": {}, \"detected\": {}, \
                     \"silent\": {}}}{}",
                    c.site.name(),
                    c.rate,
                    c.tally.trials,
                    c.tally.benign,
                    c.tally.corrected,
                    c.tally.detected,
                    c.tally.silent,
                    if ci + 1 < cells[si].len() { "," } else { "" },
                );
            }
            let _ = writeln!(j, "      ]");
            let _ = writeln!(
                j,
                "    }}{}",
                if si + 1 < Scheme::ALL.len() { "," } else { "" }
            );
        }
        let _ = writeln!(j, "  ],");
        let abft = &totals[4];
        let abft_retry = &totals[5];
        let _ = writeln!(j, "  \"acceptance\": {{");
        let _ = writeln!(
            j,
            "    \"abft_detection_coverage\": {:.6},",
            abft.coverage()
        );
        let _ = writeln!(j, "    \"abft_silent_corruptions\": {},", abft.silent);
        let _ = writeln!(
            j,
            "    \"abft_retry_silent_corruptions\": {},",
            abft_retry.silent
        );
        let _ = writeln!(
            j,
            "    \"abft_modelled_overhead_pct\": {modelled_overhead_pct:.3},"
        );
        let _ = writeln!(j, "    \"abft_host_overhead_pct\": {host_overhead_pct:.3}");
        let _ = writeln!(j, "  }}");
        let _ = writeln!(j, "}}");
        std::fs::write(out_path, &j).expect("write BENCH_FAULTS.json");
        println!("wrote {out_path}");

        // ---- acceptance gates (CI runs --quick and trusts these) ----
        for ((t, cells), scheme) in totals.iter().zip(&cells).zip(Scheme::ALL) {
            let name = scheme.name();
            let outcomes = t.benign + t.corrected + t.detected + t.silent;
            assert_eq!(outcomes, t.trials, "{name}: outcome classes");
            let cell_trials: u64 = cells.iter().map(|c| c.tally.trials).sum();
            assert_eq!(cell_trials, t.trials, "{name}: cell trials");
        }
        assert!(
            abft.coverage() >= 0.99,
            "ABFT detection coverage {:.4} < 0.99",
            abft.coverage()
        );
        assert_eq!(abft.silent, 0, "ABFT let a corruption through silently");
        assert_eq!(
            abft_retry.silent, 0,
            "the resilient ladder let a corruption through silently"
        );
        assert!(
            modelled_overhead_pct < 10.0,
            "modelled ABFT overhead {modelled_overhead_pct:.2}% >= 10%"
        );
        println!(
            "acceptance: coverage {:.1}% >= 99%, 0 silent, modelled overhead {:.1}% < 10%",
            abft.coverage() * 100.0,
            modelled_overhead_pct
        );
    }
}
