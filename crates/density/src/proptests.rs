//! Property-based tests of the electrostatic system: conservation laws and
//! solver invariants on arbitrary object soups.

use crate::{DensityGrid, DensityObject};
use eplace_geometry::{Point, Rect, Size};
use eplace_testkit::{check, Gen};

const CASES: u64 = 48;

fn arb_objects(g: &mut Gen) -> Vec<(DensityObject, Point)> {
    g.vec(1, 24, |g| {
        let size = Size::new(g.f64_range(1.0, 20.0), g.f64_range(1.0, 20.0));
        let pos = Point::new(g.f64_range(0.0, 128.0), g.f64_range(0.0, 128.0));
        let obj = if g.bool(0.5) {
            DensityObject::filler(size)
        } else {
            DensityObject::movable(size)
        };
        (obj, pos)
    })
}

fn grid_with(objs: &[(DensityObject, Point)]) -> DensityGrid {
    let mut grid = DensityGrid::new(Rect::new(0.0, 0.0, 128.0, 128.0), 16, 16, 1.0);
    let (objects, pos): (Vec<_>, Vec<_>) = objs.iter().cloned().unzip();
    grid.deposit(&objects, &pos);
    grid
}

#[test]
fn charge_is_conserved() {
    check("charge_is_conserved", CASES, |g| {
        let objs = arb_objects(g);
        let grid = grid_with(&objs);
        let total: f64 = grid.charge_map().iter().sum();
        let expect: f64 = objs.iter().map(|(o, _)| o.charge()).sum();
        assert!((total - expect).abs() < 1e-6 * expect.max(1.0));
    });
}

#[test]
fn potential_is_zero_mean() {
    check("potential_is_zero_mean", CASES, |g| {
        let objs = arb_objects(g);
        let mut grid = grid_with(&objs);
        grid.solve();
        let mean: f64 =
            grid.potential_map().iter().sum::<f64>() / grid.potential_map().len() as f64;
        let scale: f64 = grid
            .potential_map()
            .iter()
            .map(|v| v.abs())
            .fold(0.0, f64::max)
            .max(1.0);
        assert!(mean.abs() < 1e-9 * scale, "mean {mean}");
    });
}

#[test]
fn mirror_symmetry_negates_x_forces() {
    check("mirror_symmetry_negates_x_forces", CASES, |g| {
        // Reflecting the whole configuration about the vertical midline
        // negates every x-force and preserves every y-force (the cosine
        // eigenbasis is mirror-symmetric). Note plain force-sum-to-zero does
        // NOT hold here: the zero-frequency removal introduces a uniform
        // background charge that absorbs the reaction.
        let objs = arb_objects(g);
        let mut g1 = grid_with(&objs);
        g1.solve();
        let mirrored: Vec<_> = objs
            .iter()
            .map(|(o, p)| (*o, Point::new(128.0 - p.x, p.y)))
            .collect();
        let mut g2 = grid_with(&mirrored);
        g2.solve();
        for ((o, p), (om, pm)) in objs.iter().zip(&mirrored) {
            let f1 = g1.gradient(o, *p);
            let f2 = g2.gradient(om, *pm);
            let scale = f1.norm().max(f2.norm()).max(1e-9);
            assert!((f1.x + f2.x).abs() < 1e-6 * scale + 1e-12, "{f1} vs {f2}");
            assert!((f1.y - f2.y).abs() < 1e-6 * scale + 1e-12, "{f1} vs {f2}");
        }
    });
}

#[test]
fn overflow_in_unit_range() {
    check("overflow_in_unit_range", CASES, |g| {
        let grid = grid_with(&arb_objects(g));
        let tau = grid.overflow();
        assert!((0.0..=1.0 + 1e-9).contains(&tau), "tau {tau}");
    });
}

#[test]
fn energy_is_finite_and_gradient_defined() {
    check("energy_is_finite_and_gradient_defined", CASES, |g| {
        let objs = arb_objects(g);
        let mut grid = grid_with(&objs);
        grid.solve();
        assert!(grid.total_energy().is_finite());
        for (o, p) in &objs {
            let grad = grid.gradient(o, *p);
            assert!(grad.is_finite());
            assert!(grid.energy(o, *p).is_finite());
        }
    });
}

#[test]
fn overfill_consistent_with_overflow() {
    check("overfill_consistent_with_overflow", CASES, |g| {
        let objs = arb_objects(g);
        let grid = grid_with(&objs);
        let movable: f64 = objs
            .iter()
            .filter(|(o, _)| o.counts_in_overflow)
            .map(|(o, _)| o.charge())
            .sum();
        if movable > 0.0 {
            let tau = grid.overflow();
            let area = grid.overfill_area();
            assert!((tau - area / movable).abs() < 1e-9, "tau {tau} area {area}");
        }
    });
}

#[test]
fn mirror_reflection_preserves_energy() {
    check("mirror_reflection_preserves_energy", CASES, |g| {
        // Energy is NOT translation invariant in a bounded Neumann domain
        // (the wall images move with the configuration), but it is exactly
        // invariant under reflection about the domain midline.
        let objs = arb_objects(g);
        let mut g1 = grid_with(&objs);
        g1.solve();
        let e1 = g1.total_energy();
        let mirrored: Vec<_> = objs
            .iter()
            .map(|(o, p)| (*o, Point::new(128.0 - p.x, p.y)))
            .collect();
        let mut g2 = grid_with(&mirrored);
        g2.solve();
        let e2 = g2.total_energy();
        let scale = e1.abs().max(e2.abs()).max(1e-9);
        assert!((e1 - e2).abs() < 1e-6 * scale, "e1 {e1} vs e2 {e2}");
    });
}

// --- CongestionMap (RUDY) properties ------------------------------------

use crate::CongestionMap;
use eplace_netlist::{CellKind, Design, DesignBuilder};

/// Random multi-net design with all pins strictly inside the region (so
/// none of the RUDY wire volume is clipped away at the edges).
fn arb_congestion_design(g: &mut Gen) -> Design {
    let mut b = DesignBuilder::new("rudy", Rect::new(0.0, 0.0, 128.0, 128.0));
    let n_cells = g.usize_range(2, 24);
    let ids: Vec<_> = (0..n_cells)
        .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::StdCell))
        .collect();
    let n_nets = g.usize_range(1, 12);
    for k in 0..n_nets {
        let degree = g.usize_range(2, 4.min(n_cells));
        let pins: Vec<_> = (0..degree)
            .map(|_| (*g.choose(&ids), Point::ORIGIN))
            .collect();
        b.add_net(format!("n{k}"), pins);
    }
    let mut d = b.build();
    for id in &ids {
        d.cells[id.index()].pos = Point::new(g.f64_range(1.0, 127.0), g.f64_range(1.0, 127.0));
    }
    for net in &mut d.nets {
        net.weight = g.f64_range(0.5, 3.0);
    }
    d
}

#[test]
fn rudy_total_demand_equals_weighted_wire_volume() {
    check(
        "rudy_total_demand_equals_weighted_wire_volume",
        CASES,
        |g| {
            // Conservation: with no clipping, the deposited volume is exactly
            // Σ_nets weight · wire_width · HPWL.
            let d = arb_congestion_design(g);
            let wire_width = g.f64_range(0.5, 2.0);
            let map = CongestionMap::rudy(&d, 16, 16, wire_width);
            let bin_area = (128.0 / 16.0) * (128.0 / 16.0);
            let total: f64 = map.demand_map().iter().sum::<f64>() * bin_area;
            let expect: f64 = d.nets.iter().map(|n| wire_width * d.net_hpwl(n)).sum();
            assert!(
                (total - expect).abs() < 1e-6 * expect.max(1.0),
                "total {total} vs expected {expect}"
            );
        },
    );
}

#[test]
fn rudy_peak_dominates_mean() {
    check("rudy_peak_dominates_mean", CASES, |g| {
        let d = arb_congestion_design(g);
        let map = CongestionMap::rudy(&d, 16, 16, 1.0);
        assert!(map.peak() >= map.mean(), "{} < {}", map.peak(), map.mean());
        assert!(map.peak().is_finite());
        assert!(map.hotspot_ratio() >= 1.0 - 1e-12);
    });
}

#[test]
fn rudy_is_bitwise_deterministic() {
    check("rudy_is_bitwise_deterministic", CASES, |g| {
        let d = arb_congestion_design(g);
        let bits = |m: &CongestionMap| -> Vec<u64> {
            m.demand_map().iter().map(|v| v.to_bits()).collect()
        };
        let a = CongestionMap::rudy(&d, 16, 16, 1.0);
        let b = CongestionMap::rudy(&d, 16, 16, 1.0);
        assert_eq!(bits(&a), bits(&b));
    });
}

#[test]
fn rudy_clips_at_region_edges_without_losing_finiteness() {
    check("rudy_clips_at_region_edges", CASES, |g| {
        // Push some cells outside the region: clipped nets deposit at most
        // their full volume, never produce non-finite demand, and never
        // write outside the grid (the map constructor would panic).
        let mut d = arb_congestion_design(g);
        for c in d.cells.iter_mut() {
            if g.bool(0.4) {
                c.pos = Point::new(g.f64_range(-64.0, 192.0), g.f64_range(-64.0, 192.0));
            }
        }
        let map = CongestionMap::rudy(&d, 16, 16, 1.0);
        let bin_area = (128.0 / 16.0) * (128.0 / 16.0);
        let total: f64 = map.demand_map().iter().sum::<f64>() * bin_area;
        let full: f64 = d.nets.iter().map(|n| d.net_hpwl(n)).sum();
        assert!(total.is_finite());
        assert!(map.demand_map().iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(
            total <= full * (1.0 + 1e-9) + 1e-9,
            "clipping must not create volume: {total} > {full}"
        );
    });
}

#[test]
fn rudy_with_identity_positions_matches_rudy() {
    check("rudy_with_identity_positions_matches_rudy", CASES, |g| {
        // The position-override constructor behind the journal's RUDY
        // fields must agree bit-for-bit with the plain one when fed the
        // design's own positions.
        let d = arb_congestion_design(g);
        let movable: Vec<usize> = (0..d.cells.len()).collect();
        let positions: Vec<Point> = d.cells.iter().map(|c| c.pos).collect();
        let a = CongestionMap::rudy(&d, 16, 16, 1.0);
        let b = CongestionMap::rudy_with_positions(&d, 16, 16, 1.0, &movable, &positions);
        let bits = |m: &CongestionMap| -> Vec<u64> {
            m.demand_map().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&a), bits(&b));
    });
}
