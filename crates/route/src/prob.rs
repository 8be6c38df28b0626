//! Probabilistic L/Z-shape routing.
//!
//! A two-pin segment between gcells `(x0,y0)` and `(x1,y1)` with
//! `dx = |x1−x0|`, `dy = |y1−y0|` admits a family of shortest (monotone,
//! single-jog) rectilinear routes:
//!
//! * **HVH** — horizontal at `y0`, one vertical run at column `c`,
//!   horizontal at `y1`, for each `c` between the endpoints (`dx + 1`
//!   candidates; `c = x0` and `c = x1` are the two L-shapes);
//! * **VHV** — vertical at `x0`, one horizontal run at row `r`, vertical at
//!   `x1`, for each *interior* `r` (`dy − 1` candidates — the boundary rows
//!   duplicate the two L-shapes already counted in HVH).
//!
//! Every candidate has the same length `dx·bin_w + dy·bin_h`. The
//! probabilistic pass deposits each segment's demand spread uniformly over
//! its candidate set (each route weighted `1/N`), which is the expected
//! congestion of a router choosing uniformly among shortest paths — the
//! classic placement-time estimate (Westra-style), sharper than RUDY
//! because demand concentrates on the boundary rows/columns exactly as
//! L-biased routers do. When the candidate count exceeds
//! [`MAX_CANDIDATES`], the set is thinned deterministically by a fixed
//! stride so the work per segment stays bounded.

use crate::decompose::Segment;
use crate::grid::RouteSink;

/// Cap on the candidate routes enumerated per segment.
pub const MAX_CANDIDATES: usize = 32;

/// One candidate route of a segment, described by its jog.
#[derive(Debug, Clone, Copy)]
enum Candidate {
    /// Horizontal–vertical–horizontal with the vertical run at column `c`.
    Hvh { c: usize },
    /// Vertical–horizontal–vertical with the horizontal run at row `r`.
    Vhv { r: usize },
}

/// Enumerates the (possibly thinned) candidate set of `seg` and calls
/// `emit` for each, returning the per-candidate probability weight.
fn for_each_candidate(seg: &Segment, mut emit: impl FnMut(Candidate)) -> f64 {
    let (x0, y0) = seg.from;
    let (x1, y1) = seg.to;
    let (xa, xb) = (x0.min(x1), x0.max(x1));
    let (ya, yb) = (y0.min(y1), y0.max(y1));
    let dx = xb - xa;
    let dy = yb - ya;
    if dx == 0 && dy == 0 {
        return 0.0;
    }
    // Straight segments have exactly one shortest route.
    if dx == 0 {
        emit(Candidate::Hvh { c: x0 });
        return 1.0;
    }
    if dy == 0 {
        emit(Candidate::Vhv { r: y0 });
        return 1.0;
    }
    let total = (dx + 1) + dy.saturating_sub(1);
    let stride = total.div_ceil(MAX_CANDIDATES);
    let mut count = 0usize;
    let mut k = 0usize;
    while k < total {
        count += 1;
        k += stride;
    }
    let w = 1.0 / count as f64;
    let mut k = 0usize;
    while k < total {
        if k <= dx {
            emit(Candidate::Hvh { c: xa + k });
        } else {
            emit(Candidate::Vhv { r: ya + (k - dx) });
        }
        k += stride;
    }
    w
}

/// Deposits `seg`'s expected demand (spread over its candidate routes,
/// scaled by `scale × seg.weight`) into `sink`, returning the segment's
/// (signed) shortest-route wirelength contribution. `scale = 1.0` deposits,
/// `scale = −1.0` lifts a previous deposit: it adds the same terms with
/// flipped sign. On an empty grid that cancels bit for bit, but a bin
/// holding other demand rounds each addition, so a lift and a re-deposit
/// can leave a bin a rounding error from where it started. Nothing relies
/// on an exact lift: the router's rip-up pass recomputes `total_overflow`
/// after every undo, and every step stays deterministic.
pub fn deposit_probabilistic(
    seg: &Segment,
    sink: &mut impl RouteSink,
    bin_w: f64,
    bin_h: f64,
    scale: f64,
) -> f64 {
    let (x0, y0) = seg.from;
    let (x1, y1) = seg.to;
    let dx = x0.abs_diff(x1);
    let dy = y0.abs_diff(y1);
    if dx == 0 && dy == 0 {
        return 0.0;
    }
    let w_candidate = for_each_candidate(seg, |_| {});
    let w = w_candidate * seg.weight * scale;
    for_each_candidate(seg, |cand| match cand {
        Candidate::Hvh { c } => {
            sink.h_run(x0, c, y0, w);
            sink.v_run(y0, y1, c, w);
            sink.h_run(c, x1, y1, w);
        }
        Candidate::Vhv { r } => {
            sink.v_run(y0, r, x0, w);
            sink.h_run(x0, x1, r, w);
            sink.v_run(r, y1, x1, w);
        }
    });
    scale * seg.weight * (dx as f64 * bin_w + dy as f64 * bin_h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{CapacityGrid, DemandSink};
    use eplace_geometry::Rect;

    fn sink() -> (CapacityGrid, DemandSink) {
        let g = CapacityGrid::new(Rect::new(0.0, 0.0, 80.0, 80.0), 8, 8, 10.0, 10.0);
        let s = DemandSink::for_grid(&g);
        (g, s)
    }

    fn seg(from: (usize, usize), to: (usize, usize)) -> Segment {
        Segment {
            from,
            to,
            weight: 1.0,
            net: 0,
        }
    }

    #[test]
    fn straight_segment_routes_once() {
        let (g, mut s) = sink();
        let wl = deposit_probabilistic(&seg((1, 2), (5, 2)), &mut s, g.bin_w(), g.bin_h(), 1.0);
        // 4 moves × 1.0 weight, all horizontal.
        assert!((s.h.iter().sum::<f64>() - 4.0).abs() < 1e-12);
        assert_eq!(s.v.iter().sum::<f64>(), 0.0);
        assert_eq!(wl, 40.0);
    }

    #[test]
    fn total_demand_is_candidate_independent() {
        // Every candidate has the same length, so the total deposited
        // demand equals dx + dy moves regardless of the spread.
        let (g, mut s) = sink();
        let wl = deposit_probabilistic(&seg((0, 0), (5, 3)), &mut s, g.bin_w(), g.bin_h(), 1.0);
        let total: f64 = s.h.iter().sum::<f64>() + s.v.iter().sum::<f64>();
        assert!((total - 8.0).abs() < 1e-9, "total {total}");
        assert_eq!(wl, 80.0);
    }

    #[test]
    fn corner_bins_carry_more_expectation_than_center() {
        // The two L-shapes each appear once, but the endpoints' rows and
        // columns participate in many candidates: expected demand is
        // highest near the corners of the bounding box.
        let (g, mut s) = sink();
        deposit_probabilistic(&seg((0, 0), (6, 6)), &mut s, g.bin_w(), g.bin_h(), 1.0);
        let h_at = |x: usize, y: usize| s.h[y * 8 + x];
        assert!(h_at(1, 0) > h_at(3, 3), "boundary row beats interior");
    }

    #[test]
    fn lift_cancels_deposit_bitwise() {
        let (g, mut s) = sink();
        let sg = seg((1, 1), (6, 4));
        let w1 = deposit_probabilistic(&sg, &mut s, g.bin_w(), g.bin_h(), 1.0);
        let w2 = deposit_probabilistic(&sg, &mut s, g.bin_w(), g.bin_h(), -1.0);
        assert!(s.h.iter().all(|&d| d == 0.0));
        assert!(s.v.iter().all(|&d| d == 0.0));
        assert_eq!(w1 + w2, 0.0);
    }

    #[test]
    fn candidate_cap_bounds_work() {
        // A 200-gcell-long diagonal would have 200+ candidates without the
        // cap; the thinned set must stay ≤ MAX_CANDIDATES and still sum to
        // probability one.
        let big = CapacityGrid::new(Rect::new(0.0, 0.0, 4000.0, 4000.0), 400, 400, 10.0, 10.0);
        let mut s = DemandSink::for_grid(&big);
        let sg = seg((0, 0), (300, 200));
        let mut n = 0;
        let w = for_each_candidate(&sg, |_| n += 1);
        assert!(n <= MAX_CANDIDATES, "{n} candidates");
        assert!((w * n as f64 - 1.0).abs() < 1e-12);
        deposit_probabilistic(&sg, &mut s, big.bin_w(), big.bin_h(), 1.0);
        let total: f64 = s.h.iter().sum::<f64>() + s.v.iter().sum::<f64>();
        assert!((total - 500.0).abs() < 1e-6);
    }
}
