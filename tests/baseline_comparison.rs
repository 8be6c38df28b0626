//! The headline result as a CI check: on one small circuit under the shared
//! protocol (every baseline finished by `run_cdp`, the ePlace flow's own
//! cDP), ePlace's wirelength beats every non-eDensity baseline family (the
//! Tables I–III shape, with generous margins for the reduced scale).

use eplace_repro::baselines::{BellshapePlacer, GlobalPlacer, MincutPlacer, QuadraticPlacer};
use eplace_repro::benchgen::BenchmarkConfig;
use eplace_repro::core::{run_cdp, EplaceConfig, Placer};

#[test]
fn eplace_beats_every_non_edensity_family() {
    let config = BenchmarkConfig::ispd05_like("headline", 777).scale(300);

    let eplace_hpwl = {
        let mut placer = Placer::new(config.generate(), EplaceConfig::fast());
        let report = placer.run().unwrap();
        assert!(report.legalization.is_some());
        report.final_hpwl
    };

    let baselines: Vec<(&str, Box<dyn GlobalPlacer>)> = vec![
        ("mincut", Box::new(MincutPlacer)),
        ("quadratic", Box::new(QuadraticPlacer)),
        ("bellshape", Box::new(BellshapePlacer)),
    ];
    for (name, placer) in baselines {
        let mut design = config.generate();
        placer.global_place(&mut design);
        run_cdp(&mut design, &EplaceConfig::fast()).expect("legalizable");
        let hpwl = design.hpwl();
        assert!(
            eplace_hpwl < hpwl * 1.02,
            "{name} unexpectedly beat ePlace: {hpwl:.4e} vs {eplace_hpwl:.4e}"
        );
    }
}
