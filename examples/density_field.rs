//! Visualizes the electrostatic system of §IV: deposits two clusters of
//! cells, solves the Poisson equation, and renders the potential ψ and the
//! field directions as ASCII maps — the intuition behind Figure 3's
//! spreading animation.
//!
//! ```sh
//! cargo run --release --example density_field
//! ```

use eplace_repro::density::{DensityGrid, DensityObject};
use eplace_repro::geometry::{Point, Rect, Size};

const N: usize = 32;

fn main() {
    let region = Rect::new(0.0, 0.0, 128.0, 128.0);
    let mut grid = DensityGrid::new(region, N, N, 1.0);

    // Two unequal clusters of charge.
    let mut objects = Vec::new();
    let mut positions = Vec::new();
    for i in 0..40 {
        objects.push(DensityObject::movable(Size::new(6.0, 6.0)));
        positions.push(Point::new(
            40.0 + (i % 5) as f64 * 2.0,
            40.0 + (i / 5) as f64 * 2.0,
        ));
    }
    for i in 0..12 {
        objects.push(DensityObject::movable(Size::new(6.0, 6.0)));
        positions.push(Point::new(
            96.0 + (i % 3) as f64 * 2.0,
            90.0 + (i / 3) as f64 * 2.0,
        ));
    }
    grid.deposit(&objects, &positions);
    grid.solve();

    println!("charge density (utilization):");
    render(grid.charge_map(), |v| shade(v / (16.0 * 4.0)));

    println!("\npotential psi (zero mean; peaks at the clusters):");
    let psi = grid.potential_map();
    let max = psi.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
    render(psi, |v| shade(v / max));

    println!("\nfield direction (arrows point down the potential — the spreading force):");
    let (fx, fy) = grid.field_maps();
    for iy in (0..N).rev() {
        let mut line = String::new();
        for ix in 0..N {
            let idx = iy * N + ix;
            // Descent direction = −∇ψ.
            let (dx, dy) = (-fx[idx], -fy[idx]);
            line.push(arrow(dx, dy));
        }
        println!("{line}");
    }
    println!(
        "\noverflow tau = {:.3}; total energy N(v) = {:.4e}",
        grid.overflow(),
        grid.total_energy()
    );
}

fn render(map: &[f64], f: impl Fn(f64) -> char) {
    for iy in (0..N).rev() {
        let line: String = (0..N).map(|ix| f(map[iy * N + ix])).collect();
        println!("{line}");
    }
}

fn shade(v: f64) -> char {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let k = ((v.clamp(0.0, 1.0)) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[k] as char
}

fn arrow(dx: f64, dy: f64) -> char {
    let mag = dx.hypot(dy);
    if mag < 1e-9 {
        return '.';
    }
    let angle = dy.atan2(dx);
    const DIRS: [char; 8] = ['>', '/', '^', '\\', '<', '/', 'v', '\\'];
    let sector = ((angle + std::f64::consts::PI) / (std::f64::consts::PI / 4.0)).round() as usize;
    DIRS[(sector + 4) % 8]
}
