//! Property tests of the PEKO known-optima generator: for any size/seed the
//! certificate must be a *legal optimum certificate* — overlap-free,
//! in-region, row/site-aligned, bit-reproducible HPWL, and every net at its
//! provable lower bound — and `scale(n)` must re-derive it, never reuse a
//! stale one.

use eplace_benchgen::{peko_net_lower_bound, BenchmarkConfig, PEKO_MIN_CELLS};
use eplace_testkit::check;

fn arbitrary_peko(g: &mut eplace_testkit::Gen) -> (BenchmarkConfig, usize) {
    let n = g.usize_range(PEKO_MIN_CELLS, 400);
    let seed = g.usize_range(0, 1 << 20) as u64;
    (BenchmarkConfig::peko_like("prop", seed), n)
}

#[test]
fn certificate_is_legal_and_bit_reproducible() {
    check("peko certificate verifies", 24, |g| {
        let (cfg, n) = arbitrary_peko(g);
        let (design, optimum) = cfg.scale(n).generate_known_optimum();
        // verify() checks one position per cell, outlines inside the
        // region, row/site alignment, zero pairwise overlap, and that
        // re-evaluating the placement reproduces `hpwl` bit for bit.
        optimum.verify(&design).unwrap();
        assert_eq!(optimum.placement.len(), n);
        assert!(optimum.hpwl > 0.0 && optimum.hpwl.is_finite());
    });
}

#[test]
fn every_net_achieves_its_legal_lower_bound() {
    check("peko nets at bound", 16, |g| {
        let (cfg, n) = arbitrary_peko(g);
        let (mut design, optimum) = cfg.scale(n).generate_known_optimum();
        optimum.apply(&mut design);
        for net in &design.nets {
            let bound = peko_net_lower_bound(net.degree());
            let hpwl = design.net_hpwl(net);
            assert!(
                (hpwl - bound).abs() < 1e-9,
                "net {} (degree {}) has HPWL {hpwl}, bound {bound}",
                net.name,
                net.degree()
            );
        }
    });
}

#[test]
fn every_cell_is_connected() {
    // The coverage pass must leave no floating cells: a disconnected cell
    // would make the "optimum" trivially padded with dead area.
    check("peko cells connected", 16, |g| {
        let (cfg, n) = arbitrary_peko(g);
        let (design, _) = cfg.scale(n).generate_known_optimum();
        let mut connected = vec![false; design.cells.len()];
        for pin in &design.pins {
            connected[pin.cell.index()] = true;
        }
        for (i, c) in connected.iter().enumerate() {
            assert!(*c, "cell {i} ({}) is on no net", design.cells[i].name);
        }
    });
}

#[test]
fn scale_rederives_the_certificate() {
    // `scale(n)` produces a config, not a design: the certificate is
    // derived inside `generate_known_optimum` for the *final* size, so
    // chaining scales can never leak a stale certificate from an
    // intermediate size.
    check("peko scale re-derives", 12, |g| {
        let n1 = g.usize_range(PEKO_MIN_CELLS, 250);
        let n2 = g.usize_range(PEKO_MIN_CELLS, 250);
        let seed = g.usize_range(0, 1 << 20) as u64;
        let cfg = BenchmarkConfig::peko_like("prop_scale", seed);

        let (_, direct) = cfg.clone().scale(n1).generate_known_optimum();
        let (design, chained) = cfg.clone().scale(n2).scale(n1).generate_known_optimum();
        assert_eq!(chained.placement.len(), n1, "stale certificate for {n2}");
        chained.verify(&design).unwrap();
        assert_eq!(direct.placement, chained.placement);
        assert_eq!(direct.hpwl.to_bits(), chained.hpwl.to_bits());
    });
}
