//! The HPWL oracle. `Design::hpwl`, `Design::net_hpwl` and
//! `Design::hpwl_with_positions` share one kernel, which takes each net's
//! extremes by comparison so that a NaN coordinate makes the length NaN.
//! Before, it took them with `f64::min`/`f64::max`, which skip a NaN. That
//! kernel is kept here as the reference: on finite input the two must agree
//! bit for bit, at benchmark placements and on crafted ±0.0 ties and
//! coincident pins.

use eplace_benchgen::BenchmarkConfig;
use eplace_core::{initial_placement, EplaceConfig, Placer};
use eplace_geometry::{Point, Rect};
use eplace_netlist::{CellKind, Design, DesignBuilder, Net};

/// The kernel before NaN propagation: the weighted half perimeter of `net`
/// with cell `i` at `pos[i]`.
fn reference_net_hpwl(design: &Design, net: &Net, pos: &[Point]) -> f64 {
    let pins = &design.pins[net.pins.clone()];
    if pins.len() < 2 {
        return 0.0;
    }
    let mut min_x = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for pin in pins {
        let p = pos[pin.cell.index()] + pin.offset;
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    net.weight * ((max_x - min_x) + (max_y - min_y))
}

/// Asserts that every net's length and the three totals equal the
/// reference's bits at the design's current placement.
fn assert_matches_reference(design: &Design, what: &str) {
    let pos: Vec<Point> = design.cells.iter().map(|c| c.pos).collect();
    assert!(
        pos.iter().all(|p| p.is_finite()),
        "{what}: non-finite input"
    );
    for (n, net) in design.nets.iter().enumerate() {
        let want = reference_net_hpwl(design, net, &pos);
        let got = design.net_hpwl(net);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}: net {n}: {got} vs {want}"
        );
    }
    let want: f64 = design
        .nets
        .iter()
        .map(|net| reference_net_hpwl(design, net, &pos))
        .sum();
    let hpwl = design.hpwl();
    assert_eq!(
        hpwl.to_bits(),
        want.to_bits(),
        "{what}: hpwl {hpwl} vs {want}"
    );
    let with = design.hpwl_with_positions(&pos);
    assert_eq!(
        with.to_bits(),
        want.to_bits(),
        "{what}: with positions {with} vs {want}"
    );
}

#[test]
fn hpwl_is_bitwise_the_reference_on_benchmark_placements() {
    for seed in 0..3 {
        for (family, cfg) in [
            (
                "ispd05_like",
                BenchmarkConfig::ispd05_like("hpwl", 11 + seed),
            ),
            (
                "ispd06_like",
                BenchmarkConfig::ispd06_like("hpwl", 21 + seed, 0.8),
            ),
            (
                "mms_like",
                BenchmarkConfig::mms_like("hpwl", 31 + seed, 0.8, 6),
            ),
            ("peko_like", BenchmarkConfig::peko_like("hpwl", 41 + seed)),
        ] {
            let what = |stage: &str| format!("{family} seed {seed}, {stage}");
            let generated = cfg.scale(400).generate();
            assert_matches_reference(&generated, &what("generated"));
            let mut mip = generated.clone();
            initial_placement(&mut mip);
            assert_matches_reference(&mip, &what("mIP"));
            let mut placer = Placer::new(generated, EplaceConfig::fast());
            let report = placer.run();
            assert!(report.is_ok(), "{}: {report:?}", what("flow"));
            assert_matches_reference(placer.design(), &what("final"));
        }
    }
}

/// A design of one net per entry of `nets`, each pin on its own cell at the
/// given coordinate with a `-0.0` offset (so a `-0.0` coordinate survives
/// the offset sum), with weights cycling through 1, 2.5 and 0.
fn crafted(nets: &[Vec<(f64, f64)>]) -> Design {
    let mut b = DesignBuilder::new("crafted", Rect::new(-10.0, -10.0, 10.0, 10.0));
    let mut pos = Vec::new();
    for (n, pins) in nets.iter().enumerate() {
        let mut net = Vec::new();
        for &(x, y) in pins {
            let id = b.add_cell(format!("c{}", pos.len()), 1.0, 1.0, CellKind::StdCell);
            pos.push(Point::new(x, y));
            net.push((id, Point::new(-0.0, -0.0)));
        }
        b.add_weighted_net(format!("n{n}"), net, [1.0, 2.5, 0.0][n % 3]);
    }
    let mut d = b.build();
    for (cell, p) in d.cells.iter_mut().zip(pos) {
        cell.pos = p;
    }
    d
}

#[test]
fn hpwl_is_bitwise_the_reference_on_ties_and_coincident_pins() {
    // Every sign pattern of ±0.0 over two and three pins, on both axes at
    // once, so both spans are zero and only the extremes' signs decide the
    // sign of the length.
    let zero = |bit: usize| if bit == 0 { 0.0 } else { -0.0 };
    let mut nets = Vec::new();
    for k in [2usize, 3] {
        for signs in 0..1usize << (2 * k) {
            nets.push(
                (0..k)
                    .map(|j| (zero(signs >> (2 * j) & 1), zero(signs >> (2 * j + 1) & 1)))
                    .collect::<Vec<_>>(),
            );
        }
    }
    let signed = crafted(&nets);
    assert_matches_reference(&signed, "±0.0 ties");
    // The same nets one at a time, so no other net hides a total's sign.
    for (n, pins) in nets.iter().enumerate() {
        assert_matches_reference(
            &crafted(std::slice::from_ref(pins)),
            &format!("±0.0 net {n}"),
        );
    }
    // Coincident pins, ties at either extreme, and coordinates from a set
    // of five values, so most extremes are tied.
    let mut nets = vec![
        vec![(3.0, 4.0), (3.0, 4.0), (3.0, 4.0)],
        vec![(5.0, 1.0), (5.0, 9.0), (5.0, 2.0)],
        vec![(1.0, 2.0), (2.0, 1.0), (2.0, 1.0), (0.5, 3.0)],
        vec![(-0.0, 0.0), (0.0, -0.0), (1.0, -0.0)],
        vec![(1.0, 1.0)],
        vec![],
    ];
    let values = [-1.0, -0.0, 0.0, 1.0, 2.0];
    let mut state = 7u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for _ in 0..200 {
        let k = 2 + next() % 4;
        nets.push(
            (0..k)
                .map(|_| (values[next() % 5], values[next() % 5]))
                .collect(),
        );
    }
    assert_matches_reference(&crafted(&nets), "ties");
}
