//! Property-based tests spanning crates: format round trips, model
//! inequalities, and legalizer post-conditions on arbitrary inputs.

use eplace_repro::bookshelf::{read_aux, write_aux};
use eplace_repro::geometry::{Point, Rect};
use eplace_repro::legalize::{check_legal, legalize};
use eplace_repro::netlist::{CellKind, Design, DesignBuilder};
use eplace_repro::spectral::{reference, DctPlan, DctScratch, FftPlan};
use eplace_repro::wirelength::{LseModel, SmoothWirelength, WaModel};
use eplace_testkit::{check, Gen};

const CASES: u64 = 32;

/// An arbitrary small design: cells on rows, a couple of pads, random nets.
fn arb_design(g: &mut Gen) -> Design {
    let n_cells = g.usize_range(2, 19);
    let n_nets = g.usize_range(1, 11);
    let cells: Vec<(u32, f64, f64)> = (0..n_cells)
        .map(|_| {
            (
                g.usize_range(3, 19) as u32,
                g.f64_range(0.0, 1.0),
                g.f64_range(0.0, 1.0),
            )
        })
        .collect();
    let nets: Vec<Vec<usize>> = (0..n_nets)
        .map(|_| g.vec(2, 4, |g| g.usize_range(0, n_cells - 1)))
        .collect();

    let region = Rect::new(0.0, 0.0, 400.0, 120.0);
    let mut b = DesignBuilder::new("prop", region);
    b.uniform_rows(12.0, 1.0);
    let ids: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(i, &(w, fx, fy))| {
            let id = b.add_cell(format!("c{i}"), w as f64, 12.0, CellKind::StdCell);
            (id, fx, fy)
        })
        .collect();
    let pad = b.add_cell("io", 2.0, 2.0, CellKind::Terminal);
    for (k, members) in nets.iter().enumerate() {
        let mut pins: Vec<_> = members.iter().map(|&m| (ids[m].0, Point::ORIGIN)).collect();
        pins.dedup_by_key(|(id, _)| *id);
        if pins.len() < 2 {
            pins.push((pad, Point::ORIGIN));
        }
        b.add_net(format!("n{k}"), pins);
    }
    let mut d = b.build();
    for (id, fx, fy) in ids {
        let c = &mut d.cells[id.index()];
        c.pos = Point::new(
            region.xl + fx * region.width(),
            region.yl + fy * region.height(),
        );
    }
    d.cells[pad.index()].pos = Point::new(1.0, 119.0);
    d
}

#[test]
fn bookshelf_round_trip_preserves_design() {
    check("bookshelf_round_trip_preserves_design", CASES, |g| {
        let design = arb_design(g);
        let dir = std::env::temp_dir().join(format!("eplace_prop_{}", std::process::id()));
        let aux = write_aux(&design, &dir, "prop").unwrap();
        let back = read_aux(&aux).unwrap();
        assert_eq!(back.cells.len(), design.cells.len());
        assert_eq!(back.nets.len(), design.nets.len());
        let h0 = design.hpwl();
        let h1 = back.hpwl();
        assert!((h0 - h1).abs() <= 1e-6 * h0.max(1.0));
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn wa_hpwl_lse_sandwich() {
    check("wa_hpwl_lse_sandwich", CASES, |g| {
        let design = arb_design(g);
        let gamma = g.f64_range(0.1, 20.0);
        let pos: Vec<Point> = design.cells.iter().map(|c| c.pos).collect();
        let mut wa = WaModel::new(&design);
        let mut lse = LseModel::new(&design);
        let exact = design.hpwl_with_positions(&pos);
        let lo = wa.evaluate(&design, &pos, gamma);
        let hi = lse.evaluate(&design, &pos, gamma);
        assert!(
            lo <= exact + 1e-6 * exact.max(1.0),
            "WA {lo} > HPWL {exact}"
        );
        assert!(
            hi >= exact - 1e-6 * exact.max(1.0),
            "LSE {hi} < HPWL {exact}"
        );
    });
}

#[test]
fn legalization_postconditions() {
    check("legalization_postconditions", CASES, |g| {
        let mut d = arb_design(g);
        // Capacity is ample by construction (≤ 20 cells × ≤ 20 wide in a
        // 400×120 region).
        legalize(&mut d).unwrap();
        assert!(check_legal(&d).is_ok(), "{:?}", check_legal(&d));
    });
}

#[test]
fn fft_round_trip() {
    check("fft_round_trip", CASES, |g| {
        let values: Vec<f64> = (0..128).map(|_| g.f64_range(-100.0, 100.0)).collect();
        let plan = FftPlan::new(64).unwrap();
        let input: Vec<_> = values
            .chunks(2)
            .map(|c| eplace_repro::spectral::Complex::new(c[0], c[1]))
            .collect();
        let mut data = input.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        for (a, b) in data.iter().zip(&input) {
            assert!((*a - *b).norm() < 1e-9);
        }
    });
}

#[test]
fn dct_matches_naive_on_arbitrary_signals() {
    check("dct_matches_naive_on_arbitrary_signals", CASES, |g| {
        let values: Vec<f64> = (0..32).map(|_| g.f64_range(-50.0, 50.0)).collect();
        let plan = DctPlan::new(32).unwrap();
        let mut scratch = DctScratch::new(32);
        let mut fast = values.clone();
        plan.dct2_strided(&mut fast, 0, 1, &mut scratch);
        let slow = reference::naive_dct2(&values);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-8);
        }
        // The inverse DCT-II is the DCT-III scaled by 2/N.
        let mut back = fast;
        plan.dct3_strided(&mut back, 0, 1, 2.0 / 32.0, &mut scratch);
        for (a, b) in back.iter().zip(&values) {
            assert!((a - b).abs() < 1e-9);
        }
    });
}

#[test]
fn wa_gradient_is_finite_and_conservative() {
    check("wa_gradient_is_finite_and_conservative", CASES, |g| {
        let design = arb_design(g);
        let gamma = g.f64_range(0.5, 10.0);
        let pos: Vec<Point> = design.cells.iter().map(|c| c.pos).collect();
        let mut wa = WaModel::new(&design);
        let mut grad = vec![Point::ORIGIN; pos.len()];
        wa.gradient(&design, &pos, gamma, &mut grad);
        let mut sum = Point::ORIGIN;
        for gv in &grad {
            assert!(gv.is_finite());
            sum += *gv;
        }
        // Internal forces cancel (terminals are included in grad, so the
        // movable+fixed total is zero).
        assert!(sum.norm() < 1e-6);
    });
}
