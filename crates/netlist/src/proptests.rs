//! Property-based tests of the circuit model.

use crate::{CellKind, DesignBuilder};
use eplace_geometry::{Point, Rect};
use eplace_testkit::{check, Gen};

const CASES: u64 = 256;

fn arb_positions(g: &mut Gen, n: usize) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(g.f64_range(0.0, 500.0), g.f64_range(0.0, 500.0)))
        .collect()
}

#[test]
fn hpwl_is_translation_invariant() {
    check("hpwl_is_translation_invariant", CASES, |g| {
        let pos = arb_positions(g, 6);
        let dx = g.f64_range(-100.0, 100.0);
        let dy = g.f64_range(-100.0, 100.0);
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 1000.0, 1000.0));
        let ids: Vec<_> = (0..6)
            .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::StdCell))
            .collect();
        b.add_net(
            "a",
            vec![
                (ids[0], Point::ORIGIN),
                (ids[1], Point::ORIGIN),
                (ids[2], Point::ORIGIN),
            ],
        );
        b.add_net(
            "b",
            vec![
                (ids[3], Point::ORIGIN),
                (ids[4], Point::ORIGIN),
                (ids[5], Point::ORIGIN),
            ],
        );
        let mut d = b.build();
        for (id, p) in ids.iter().zip(&pos) {
            d.cells[id.index()].pos = *p;
        }
        let h1 = d.hpwl();
        for id in &ids {
            d.cells[id.index()].pos += Point::new(dx, dy);
        }
        let h2 = d.hpwl();
        assert!((h1 - h2).abs() < 1e-9 * h1.max(1.0));
    });
}

#[test]
fn hpwl_scales_linearly() {
    check("hpwl_scales_linearly", CASES, |g| {
        let pos = arb_positions(g, 5);
        let k = g.f64_range(0.1, 10.0);
        let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 10_000.0, 10_000.0));
        let ids: Vec<_> = (0..5)
            .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::StdCell))
            .collect();
        b.add_net("n", ids.iter().map(|&id| (id, Point::ORIGIN)).collect());
        let mut d = b.build();
        for (id, p) in ids.iter().zip(&pos) {
            d.cells[id.index()].pos = *p;
        }
        let h1 = d.hpwl();
        for id in &ids {
            let p = d.cells[id.index()].pos;
            d.cells[id.index()].pos = Point::new(p.x * k, p.y * k);
        }
        assert!((d.hpwl() - k * h1).abs() < 1e-6 * (k * h1).max(1.0));
    });
}

#[test]
fn hpwl_monotone_under_degree_growth() {
    check("hpwl_monotone_under_degree_growth", CASES, |g| {
        // Adding a pin to a net can only grow (or keep) its HPWL.
        let pos = arb_positions(g, 6);
        let build = |extra: bool| {
            let mut b = DesignBuilder::new("t", Rect::new(0.0, 0.0, 1000.0, 1000.0));
            let ids: Vec<_> = (0..6)
                .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::StdCell))
                .collect();
            let mut pins: Vec<_> = ids[..5].iter().map(|&id| (id, Point::ORIGIN)).collect();
            if extra {
                pins.push((ids[5], Point::ORIGIN));
            }
            b.add_net("n", pins);
            let mut d = b.build();
            for (id, p) in ids.iter().zip(&pos) {
                d.cells[id.index()].pos = *p;
            }
            d.hpwl()
        };
        assert!(build(true) >= build(false) - 1e-9);
    });
}

#[test]
fn validate_accepts_all_builder_outputs() {
    check("validate_accepts_all_builder_outputs", CASES, |g| {
        let n_cells = g.usize_range(1, 11);
        let net_spec: Vec<Vec<usize>> = g.vec(0, 7, |g| g.vec(2, 4, |g| g.usize_range(0, 11)));
        let mut b = DesignBuilder::new("v", Rect::new(0.0, 0.0, 100.0, 100.0));
        let ids: Vec<_> = (0..n_cells)
            .map(|i| b.add_cell(format!("c{i}"), 1.0, 2.0, CellKind::StdCell))
            .collect();
        for (k, members) in net_spec.iter().enumerate() {
            let pins: Vec<_> = members
                .iter()
                .map(|&m| (ids[m % n_cells], Point::ORIGIN))
                .collect();
            b.add_net(format!("n{k}"), pins);
        }
        let d = b.build();
        assert!(d.validate().is_ok(), "{:?}", d.validate());
        // Degree bookkeeping is consistent with the nets.
        let total_incidences: usize = (0..d.cells.len()).map(|c| d.nets_of(c).len()).sum();
        let distinct_per_net: usize = (0..d.nets.len())
            .map(|n| {
                let mut cells: Vec<_> = d.net_pins(n).iter().map(|p| p.cell).collect();
                cells.sort();
                cells.dedup();
                cells.len()
            })
            .sum();
        assert_eq!(total_incidences, distinct_per_net);
    });
}
