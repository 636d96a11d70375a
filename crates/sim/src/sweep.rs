//! Cache-capacity sweep harness — the paper's §5.4 locality methodology.
//!
//! The paper estimates instruction/data footprints by sweeping the L1 size
//! of a MARSSx86 Atom-like core from 16 KiB to 8192 KiB and plotting the
//! miss ratio at each point (Figures 6–9); the capacity where the curve
//! flattens is the footprint.
//!
//! The production sweep runs the workload **once**, extracting its L1
//! event streams as it goes, and computes every point from them (see
//! [`crate::fused`]); [`assemble_sweep`] turns the points into curves.
//! The result is byte-identical to the reference oracle
//! [`sweep_per_point`], which re-runs the workload on a full
//! [`crate::MachineConfig::atom_sweep`] machine per capacity.

use crate::cache::CacheStats;
use crate::fused::SweepFamily;
use crate::machine::Machine;
use bdb_trace::TraceSink;

/// The paper's sweep points, in KiB (Figures 6–9 x-axis).
pub const PAPER_SWEEP_KIB: [u64; 10] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// Which miss ratio a curve tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMetric {
    /// L1 instruction-cache miss ratio (Figures 6 and 9).
    Instruction,
    /// L1 data-cache miss ratio (Figure 7).
    Data,
    /// Combined L1 miss ratio over all accesses (Figure 8).
    Unified,
}

/// One miss-ratio-versus-capacity curve.
#[derive(Debug, Clone, PartialEq)]
pub struct MissRatioCurve {
    /// Label (workload or workload-group name).
    pub label: String,
    /// Metric tracked.
    pub metric: SweepMetric,
    /// `(capacity_kib, miss_ratio)` points in ascending capacity order.
    pub points: Vec<(u64, f64)>,
}

impl MissRatioCurve {
    /// Miss ratio at `capacity_kib`, if that point was swept.
    pub fn at(&self, capacity_kib: u64) -> Option<f64> {
        self.points
            .iter()
            .find(|(c, _)| *c == capacity_kib)
            .map(|(_, r)| *r)
    }

    /// Estimated footprint: the smallest swept capacity at which the miss
    /// ratio has dropped within `epsilon` of its final (largest-capacity)
    /// value *and stays there* — every larger-capacity point must also be
    /// within `epsilon` of the floor. This is how the paper reads "the
    /// footprint of PARSEC is about 128 KB" off Figure 6. Requiring the
    /// suffix to stay flat keeps a non-monotonic (bumpy) curve from being
    /// read at the first transient dip.
    ///
    /// Returns `None` for an empty curve.
    pub fn footprint_kib(&self, epsilon: f64) -> Option<u64> {
        let (_, floor) = *self.points.last()?;
        // Walk backwards from the flat tail: the footprint is the earliest
        // point of the longest suffix that stays within `epsilon` of the
        // floor.
        let mut footprint = None;
        for (c, r) in self.points.iter().rev() {
            if r - floor <= epsilon {
                footprint = Some(*c);
            } else {
                break;
            }
        }
        footprint
    }
}

/// The per-point reference sweep: re-runs `workload` once per capacity on
/// a full machine, the way the paper runs one MARSSx86 simulation per L1
/// size. It is the oracle the fused path is contract-tested against bit
/// for bit; the engine never calls it.
///
/// The workload closure must regenerate identical work on every call (all
/// generators in this workspace are seeded, so this holds by construction).
///
/// # Panics
///
/// Panics if `capacities_kib` is empty.
pub fn sweep_per_point(
    family: &SweepFamily,
    label: &str,
    capacities_kib: &[u64],
    mut workload: impl FnMut(&mut dyn TraceSink),
) -> SweepResult {
    assert!(
        !capacities_kib.is_empty(),
        "sweep needs at least one capacity"
    );
    let points = capacities_kib
        .iter()
        .map(|&kib| {
            let mut machine = Machine::new(family.machine_config(kib));
            workload(&mut machine);
            let report = machine.report();
            point_ratios(report.l1i, report.l1d)
        })
        .collect();
    assemble_sweep(label, capacities_kib, points)
}

/// `(instruction, data, unified)` miss ratios from the two L1 stat
/// blocks. Both sweep paths funnel through this one arithmetic so their
/// outputs can be compared byte for byte.
pub(crate) fn point_ratios(l1i: CacheStats, l1d: CacheStats) -> (f64, f64, f64) {
    let total_acc = l1i.accesses + l1d.accesses;
    let total_miss = l1i.misses + l1d.misses;
    let unified = if total_acc == 0 {
        0.0
    } else {
        total_miss as f64 / total_acc as f64
    };
    (l1i.miss_ratio(), l1d.miss_ratio(), unified)
}

/// Assembles per-capacity `(i, d, u)` miss ratios (in `capacities_kib`
/// order) into the three labelled curves of a [`SweepResult`].
pub fn assemble_sweep(
    label: &str,
    capacities_kib: &[u64],
    points: Vec<(f64, f64, f64)>,
) -> SweepResult {
    assert_eq!(
        capacities_kib.len(),
        points.len(),
        "one (i, d, u) point per swept capacity"
    );
    let curve = |metric, pick: fn(&(f64, f64, f64)) -> f64| MissRatioCurve {
        label: label.to_owned(),
        metric,
        points: capacities_kib
            .iter()
            .zip(&points)
            .map(|(&kib, p)| (kib, pick(p)))
            .collect(),
    };
    SweepResult {
        instruction: curve(SweepMetric::Instruction, |p| p.0),
        data: curve(SweepMetric::Data, |p| p.1),
        unified: curve(SweepMetric::Unified, |p| p.2),
    }
}

/// The three curves produced by one capacity sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// L1I miss ratio curve.
    pub instruction: MissRatioCurve,
    /// L1D miss ratio curve.
    pub data: MissRatioCurve,
    /// Combined curve.
    pub unified: MissRatioCurve,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{fused_points, SweepStreams};
    use bdb_trace::{CodeLayout, ExecCtx};

    /// The fused sweep on the Atom-like family, as the engine computes it.
    fn sweep(label: &str, capacities_kib: &[u64], workload: fn(&mut dyn TraceSink)) -> SweepResult {
        let streams = SweepStreams::record(workload);
        let points = fused_points(&SweepFamily::atom(), capacities_kib, &streams);
        assemble_sweep(label, capacities_kib, points)
    }

    /// Synthetic workload with ~256 KiB instruction footprint and ~32 KiB
    /// data footprint.
    fn synthetic(sink: &mut dyn TraceSink) {
        let mut layout = CodeLayout::new();
        let regions: Vec<_> = (0..64)
            .map(|i| layout.region(format!("r{i}"), 4096))
            .collect();
        let mut ctx = ExecCtx::new(&layout, sink);
        let data = ctx.heap_alloc(32 * 1024, 64);
        ctx.frame(regions[0], |ctx| {
            for round in 0..40u64 {
                for &r in &regions {
                    ctx.frame(r, |ctx| {
                        for j in 0..256u64 {
                            if j % 4 == 0 {
                                let off = (round * 64 + j) * 64 % data.len();
                                ctx.read(data.addr(off & !7), 8);
                            } else {
                                ctx.int_other(1);
                            }
                        }
                    });
                }
            }
        });
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let result = sweep("synthetic", &[16, 64, 256, 1024], synthetic);
        for curve in [&result.instruction, &result.data, &result.unified] {
            for w in curve.points.windows(2) {
                assert!(
                    w[1].1 <= w[0].1 + 1e-9,
                    "{:?} not monotone: {:?}",
                    curve.metric,
                    curve.points
                );
            }
        }
    }

    #[test]
    fn footprint_estimate_matches_construction() {
        let result = sweep("synthetic", &PAPER_SWEEP_KIB, synthetic);
        let ifoot = result.instruction.footprint_kib(0.002).unwrap();
        assert!(
            (256..=512).contains(&ifoot),
            "expected ~256 KiB instruction footprint, got {ifoot} ({:?})",
            result.instruction.points
        );
        let dfoot = result.data.footprint_kib(0.002).unwrap();
        assert!(dfoot <= 64, "expected small data footprint, got {dfoot}");
    }

    #[test]
    fn footprint_skips_transient_dips_on_bumpy_curves() {
        // Non-monotonic curve: dips to the floor at 32 KiB, bounces back
        // up, and only settles from 256 KiB on. The old first-match read
        // reported 32; the footprint is where the curve *stays* flat.
        let bumpy = MissRatioCurve {
            label: "bumpy".into(),
            metric: SweepMetric::Data,
            points: vec![
                (16, 0.30),
                (32, 0.1004), // within epsilon of the floor, but transient
                (64, 0.25),
                (128, 0.18),
                (256, 0.1007),
                (512, 0.1002),
                (1024, 0.10),
            ],
        };
        assert_eq!(bumpy.footprint_kib(0.002), Some(256));
        // A monotone curve still reads at the first settled point.
        let monotone = MissRatioCurve {
            label: "monotone".into(),
            metric: SweepMetric::Data,
            points: vec![(16, 0.3), (32, 0.101), (64, 0.1005), (128, 0.10)],
        };
        assert_eq!(monotone.footprint_kib(0.002), Some(32));
        // Curves that never settle report the last capacity; empty -> None.
        assert_eq!(monotone.footprint_kib(-1.0), None);
        let empty = MissRatioCurve {
            label: "empty".into(),
            metric: SweepMetric::Data,
            points: vec![],
        };
        assert_eq!(empty.footprint_kib(0.002), None);
    }

    #[test]
    fn fused_sweep_is_byte_identical_to_per_point() {
        let fused = sweep("synthetic", &PAPER_SWEEP_KIB, synthetic);
        let family = SweepFamily::atom();
        let per_point = sweep_per_point(&family, "synthetic", &PAPER_SWEEP_KIB, synthetic);
        assert_eq!(fused, per_point);
        for (curve, reference) in [
            (&fused.instruction, &per_point.instruction),
            (&fused.data, &per_point.data),
            (&fused.unified, &per_point.unified),
        ] {
            for ((ck, cr), (rk, rr)) in curve.points.iter().zip(&reference.points) {
                assert_eq!(ck, rk);
                assert_eq!(cr.to_bits(), rr.to_bits(), "ratio bits differ at {ck} KiB");
            }
        }
    }

    #[test]
    fn at_returns_swept_points_only() {
        let result = sweep("synthetic", &[16, 32], synthetic);
        assert!(result.instruction.at(16).is_some());
        assert!(result.instruction.at(999).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one capacity")]
    fn empty_per_point_sweep_panics() {
        let _ = sweep_per_point(&SweepFamily::atom(), "x", &[], |_| {});
    }
}
