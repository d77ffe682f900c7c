//! Cross-crate placement flows.
//!
//! The paper's conclusion defers routability-driven placement to future
//! work; this module provides the classic cell-inflation realization of
//! it on top of the framework's extension points: place, estimate
//! congestion (RUDY), inflate the cells sitting in congested gcells, and
//! re-place — repeating until the congestion target is met or the
//! inflation budget is spent.

use xplace_core::{GlobalPlacer, PlaceError, XplaceConfig};
use xplace_db::netlist::NetlistBuilder;
use xplace_db::{CellKind, DbError, Design, Point};
use xplace_route::{
    estimate_congestion, pin_density_map, top_fraction_mean, CongestionMap, RouteConfig,
};

/// Configuration of the routability-driven flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutabilityConfig {
    /// Maximum place→inflate passes (the first pass is the plain
    /// placement).
    pub max_passes: usize,
    /// Per-cell inflation cap (a cell grows at most this factor per pass).
    pub max_inflation: f64,
    /// Stop once the top-5% gcell utilization falls below this (x100,
    /// same units as [`CongestionMap::top_overflow`]).
    pub target_top5: f64,
    /// Congestion-estimation parameters.
    pub route: RouteConfig,
    /// Total movable-area headroom: inflation never pushes utilization
    /// beyond this fraction of the target density.
    pub utilization_cap: f64,
}

impl Default for RoutabilityConfig {
    fn default() -> Self {
        RoutabilityConfig {
            max_passes: 3,
            max_inflation: 1.6,
            target_top5: 60.0,
            route: RouteConfig::default(),
            utilization_cap: 0.95,
        }
    }
}

/// Metrics of one routability pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutabilityPass {
    /// Top-5% gcell utilization after this pass's placement.
    pub top5_overflow: f64,
    /// Mean pin count of the 5% most pin-dense gcells (the local
    /// interconnect hotspot measure inflation directly relieves).
    pub peak_pin_density: f64,
    /// HPWL after this pass's placement.
    pub hpwl: f64,
    /// Mean inflation factor applied *going into the next* pass (1.0 on
    /// the final pass).
    pub mean_inflation: f64,
}

/// Outcome of [`routability_driven_place`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoutabilityReport {
    /// Per-pass metrics, in order.
    pub passes: Vec<RoutabilityPass>,
}

impl RoutabilityReport {
    /// Top-5% utilization of the first (plain) placement.
    pub fn initial_top5(&self) -> f64 {
        self.passes.first().map(|p| p.top5_overflow).unwrap_or(0.0)
    }

    /// Top-5% utilization of the final placement.
    pub fn final_top5(&self) -> f64 {
        self.passes.last().map(|p| p.top5_overflow).unwrap_or(0.0)
    }
}

/// Flow errors: placement or design-rebuild failures.
#[derive(Debug)]
pub enum FlowError {
    /// Global placement failed.
    Place(PlaceError),
    /// Rebuilding the inflated design failed.
    Db(DbError),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Place(e) => write!(f, "placement failed: {e}"),
            FlowError::Db(e) => write!(f, "design rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<PlaceError> for FlowError {
    fn from(e: PlaceError) -> Self {
        FlowError::Place(e)
    }
}

impl From<DbError> for FlowError {
    fn from(e: DbError) -> Self {
        FlowError::Db(e)
    }
}

/// Routability-driven global placement by congestion-aware cell inflation.
///
/// The design's movable-cell positions are updated in place; cell sizes
/// are never modified on the caller's design (inflation happens on an
/// internal copy, exactly like the temporary inflation of Ripple/eh?Placer
/// style routability flows).
///
/// # Errors
///
/// Propagates placement failures; the inflated rebuild cannot fail for a
/// valid input design.
pub fn routability_driven_place(
    design: &mut Design,
    placer_config: XplaceConfig,
    config: &RoutabilityConfig,
) -> Result<RoutabilityReport, FlowError> {
    let mut passes = Vec::new();
    let mut working = design.clone();
    let mut inflation: Vec<f64> = vec![1.0; design.netlist().num_cells()];
    let base_stop = placer_config.schedule.stop_overflow;

    for pass in 0..config.max_passes.max(1) {
        // Each inflation pass tightens the overflow target: a small
        // inflated hotspot raises global overflow only slightly, and
        // without a tighter target the re-place would stop immediately
        // instead of spreading the grown cells.
        let mut pass_config = placer_config.clone();
        pass_config.schedule.stop_overflow = (base_stop * 0.7f64.powi(pass as i32)).max(0.02);
        GlobalPlacer::new(pass_config).place(&mut working)?;
        // Copy positions back to the caller's (uninflated) design.
        design.set_positions(working.positions().to_vec());
        let congestion = estimate_congestion(design, &config.route);
        let pins = pin_density_map(design, &config.route);
        let top5 = congestion.top_overflow(0.05);
        let peak_pin_density = top_fraction_mean(&pins, 0.05);
        let hpwl = design.total_hpwl();

        let last = pass + 1 == config.max_passes || top5 <= config.target_top5;
        let mean_inflation = if last {
            1.0
        } else {
            update_inflation(design, &congestion, &pins, &mut inflation, config)
        };
        passes.push(RoutabilityPass {
            top5_overflow: top5,
            peak_pin_density,
            hpwl,
            mean_inflation,
        });
        if last {
            break;
        }
        working = inflated_design(design, &inflation)?;
    }
    Ok(RoutabilityReport { passes })
}

/// Grows the inflation factor of every movable cell by the wire
/// utilization and relative pin density of its gcell, clamped per cell and
/// renormalized so the total movable area respects the utilization cap.
/// Returns the mean factor.
fn update_inflation(
    design: &Design,
    congestion: &CongestionMap,
    pins: &xplace_fft::Grid2,
    inflation: &mut [f64],
    config: &RoutabilityConfig,
) -> f64 {
    let nl = design.netlist();
    let region = design.region();
    let (gx, gy) = (congestion.demand_h.nx(), congestion.demand_h.ny());
    // Pin threshold over *occupied* gcells: the grid is mostly empty, so
    // the raw mean would flag every cell-bearing gcell as a hotspot and
    // inflate uniformly (a no-op after renormalization).
    let occupied = pins.as_slice().iter().filter(|&&v| v > 0.0).count().max(1);
    let mean_pins = (pins.sum() / occupied as f64).max(1e-9);
    let mut inflated_area = 0.0;
    let mut base_area = 0.0;
    for id in nl.cell_ids() {
        let c = nl.cell(id);
        if !c.is_movable() {
            continue;
        }
        let p = design.position(id);
        let bx = (((p.x - region.lx) / congestion.gcell_w) as usize).min(gx - 1);
        let by = (((p.y - region.ly) / congestion.gcell_h) as usize).min(gy - 1);
        let wire_u = congestion.demand_h[(bx, by)].max(congestion.demand_v[(bx, by)]);
        // Pin pressure: gcells holding >1.5x the average pin count are
        // local-congestion hotspots regardless of wire demand.
        let pin_u = pins[(bx, by)] / (1.5 * mean_pins);
        let factor = wire_u.max(pin_u).max(1.0).min(config.max_inflation);
        inflation[id.index()] = (inflation[id.index()] * factor).min(config.max_inflation);
        base_area += c.area();
        inflated_area += c.area() * inflation[id.index()];
    }
    // Respect the area budget: scale factors back toward 1 if needed.
    let free = design.region_area() - design.fixed_area_in_region();
    let budget = free * design.target_density() * config.utilization_cap;
    if inflated_area > budget && inflated_area > base_area {
        let s = ((budget - base_area) / (inflated_area - base_area)).clamp(0.0, 1.0);
        for f in inflation.iter_mut() {
            *f = 1.0 + (*f - 1.0) * s;
        }
        inflated_area = base_area + (inflated_area - base_area) * s;
    }
    if base_area > 0.0 {
        inflated_area / base_area
    } else {
        1.0
    }
}

/// Rebuilds the design with movable-cell widths scaled by `inflation`,
/// preserving connectivity, fences, rows and positions.
fn inflated_design(design: &Design, inflation: &[f64]) -> Result<Design, DbError> {
    let nl = design.netlist();
    let mut b = NetlistBuilder::with_capacity(nl.num_cells(), nl.num_nets(), nl.num_pins());
    let region_w = design.region().width();
    for id in nl.cell_ids() {
        let c = nl.cell(id);
        let w = if c.kind() == CellKind::Movable {
            (c.width() * inflation[id.index()]).min(region_w)
        } else {
            c.width()
        };
        b.add_cell(c.name(), w, c.height(), c.kind())?;
    }
    for net in nl.nets() {
        let pins: Vec<(xplace_db::CellId, Point)> = net
            .pins()
            .map(|p| (nl.pin(p).cell, nl.pin(p).offset))
            .collect();
        b.add_net_weighted(net.name(), pins, net.weight())?;
    }
    let netlist = b.finish()?;
    let mut out = Design::new(
        design.name(),
        netlist,
        design.region(),
        design.rows().to_vec(),
        design.target_density(),
        design.positions().to_vec(),
    )?;
    out.set_fences(design.fences().to_vec())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::synthesis::{synthesize, SynthesisSpec};

    fn congested_design(seed: u64) -> Design {
        synthesize(&SynthesisSpec::new("rd", 600, 620).with_seed(seed)).expect("synthesis")
    }

    fn quick_placer() -> XplaceConfig {
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 1000;
        cfg
    }

    #[test]
    fn flow_runs_and_reports_passes() {
        let mut d = congested_design(3);
        let cfg = RoutabilityConfig {
            max_passes: 2,
            target_top5: 0.0, // force the inflation pass
            route: RouteConfig {
                capacity: 2.0,
                ..RouteConfig::default()
            },
            ..Default::default()
        };
        let report = routability_driven_place(&mut d, quick_placer(), &cfg).expect("flow runs");
        assert_eq!(report.passes.len(), 2);
        assert!(
            report.passes[0].mean_inflation > 1.0,
            "inflation must be applied"
        );
        assert_eq!(report.passes[1].mean_inflation, 1.0);
        // Cell sizes in the caller's design are untouched.
        let check = congested_design(3);
        for (a, b) in d.netlist().cells().iter().zip(check.netlist().cells()) {
            assert_eq!(a.width(), b.width());
        }
    }

    /// A design with a genuine hotspot: a clique of "hub" cells whose
    /// dense mutual connectivity makes the placer pull them into one tight
    /// pin-dense blob (uniform synthetic netlists place near-uniformly and
    /// leave inflation nothing to fix).
    fn hub_design() -> Design {
        use xplace_db::Rect;
        let mut b = NetlistBuilder::new();
        let n_bg = 300usize;
        let n_hub = 40usize;
        let mut ids = Vec::new();
        for i in 0..n_bg + n_hub {
            ids.push(
                b.add_cell(format!("c{i}"), 2.0, 12.0, CellKind::Movable)
                    .unwrap(),
            );
        }
        // Background: loose chain.
        for i in 0..n_bg - 1 {
            b.add_net(
                format!("bg{i}"),
                vec![(ids[i], Point::default()), (ids[i + 1], Point::default())],
            )
            .expect("net");
        }
        // Hubs: dense clique (each hub tied to the next six).
        for i in 0..n_hub {
            for d in 1..=6usize {
                let j = (i + d) % n_hub;
                b.add_net(
                    format!("hub{i}_{d}"),
                    vec![
                        (ids[n_bg + i], Point::default()),
                        (ids[n_bg + j], Point::default()),
                    ],
                )
                .expect("net");
            }
        }
        let nl = b.finish().expect("netlist");
        let width = 140.0;
        let rows: Vec<xplace_db::Row> = (0..10)
            .map(|r| xplace_db::Row {
                y: r as f64 * 12.0,
                height: 12.0,
                x_min: 0.0,
                x_max: width,
                site_width: 1.0,
            })
            .collect();
        let center = Point::new(width * 0.5, 60.0);
        Design::new(
            "hubs",
            nl,
            Rect::new(0.0, 0.0, width, 120.0),
            rows,
            0.9,
            vec![center; n_bg + n_hub],
        )
        .expect("design")
    }

    #[test]
    fn inflation_relieves_pin_hotspots() {
        let mut plain = hub_design();
        GlobalPlacer::new(quick_placer())
            .place(&mut plain)
            .expect("plain placement");
        let route = RouteConfig::default();
        // The hotspot is ~40 hub gcells; measure the sharpest 1% so the
        // uniform background does not dilute it.
        let hot = |d: &Design| {
            top_fraction_mean(
                &pin_density_map(
                    d,
                    &RouteConfig {
                        gcells: 32,
                        ..route
                    },
                ),
                0.01,
            )
        };
        let plain_peak = hot(&plain);

        let mut driven = hub_design();
        let cfg = RoutabilityConfig {
            max_passes: 3,
            target_top5: 0.0,
            max_inflation: 2.0,
            route,
            ..Default::default()
        };
        let report = routability_driven_place(&mut driven, quick_placer(), &cfg).expect("flow");
        // The flow's own metrics must improve pass over pass: wire
        // congestion and pin hotspots both relax as the hubs inflate.
        let first = report.passes.first().expect("passes");
        let last = report.passes.last().expect("passes");
        assert!(
            last.top5_overflow < first.top5_overflow * 0.95,
            "top5 should relax: {} -> {}",
            first.top5_overflow,
            last.top5_overflow
        );
        assert!(
            last.peak_pin_density < first.peak_pin_density,
            "peak pin density should relax: {} -> {}",
            first.peak_pin_density,
            last.peak_pin_density
        );
        // And the driven result is no worse than the plain one on the
        // sharp single-gcell hotspot metric.
        let driven_peak = hot(&driven);
        assert!(
            driven_peak <= plain_peak * 1.02,
            "sharp hotspot must not worsen: plain {plain_peak:.2} vs driven {driven_peak:.2}"
        );
        // The wirelength cost of the relief is bounded.
        let plain_hpwl = plain.total_hpwl();
        assert!(
            report.passes.last().expect("passes").hpwl < plain_hpwl * 1.4,
            "HPWL cost too high: {} vs {plain_hpwl}",
            report.passes.last().expect("passes").hpwl
        );
    }

    #[test]
    fn flow_error_wraps_both_sources_with_context() {
        let place: FlowError = PlaceError::InvalidConfig("max_iterations is zero".into()).into();
        assert!(place.to_string().contains("placement failed"), "{place}");
        assert!(matches!(place, FlowError::Place(_)));
        let db: FlowError = DbError::InvalidSpec("num_cells must be positive".into()).into();
        assert!(db.to_string().contains("design rebuild failed"), "{db}");
        assert!(matches!(db, FlowError::Db(_)));
        // FlowError is a real std error so `?` contexts can box it.
        let _: &dyn std::error::Error = &place;
    }

    #[test]
    fn empty_report_accessors_are_total() {
        let report = RoutabilityReport { passes: Vec::new() };
        assert_eq!(report.initial_top5(), 0.0);
        assert_eq!(report.final_top5(), 0.0);
    }

    #[test]
    fn invalid_placer_config_propagates_as_flow_error() {
        let mut d = congested_design(11);
        let mut cfg = quick_placer();
        cfg.schedule.max_iterations = 0;
        let err = routability_driven_place(&mut d, cfg, &RoutabilityConfig::default());
        assert!(matches!(err, Err(FlowError::Place(_))), "{err:?}");
    }

    #[test]
    fn zero_max_passes_still_runs_one_pass() {
        let mut d = congested_design(5);
        let cfg = RoutabilityConfig {
            max_passes: 0,
            target_top5: 1e9, // any placement satisfies it
            ..Default::default()
        };
        let report = routability_driven_place(&mut d, quick_placer(), &cfg).expect("flow");
        assert_eq!(report.passes.len(), 1);
        assert_eq!(report.passes[0].mean_inflation, 1.0);
    }

    #[test]
    fn early_exit_when_target_met() {
        let mut d = congested_design(7);
        let cfg = RoutabilityConfig {
            max_passes: 5,
            target_top5: 1e9, // any placement satisfies it
            ..Default::default()
        };
        let report = routability_driven_place(&mut d, quick_placer(), &cfg).expect("flow");
        assert_eq!(report.passes.len(), 1);
        assert_eq!(report.initial_top5(), report.final_top5());
    }

    #[test]
    fn area_budget_caps_inflation() {
        // A dense design (utilization 0.85) leaves almost no headroom:
        // inflation must renormalize rather than exceed the density cap.
        let mut d = synthesize(
            &SynthesisSpec::new("dense", 400, 420)
                .with_seed(9)
                .with_utilization(0.85)
                .with_target_density(0.92),
        )
        .expect("synthesis");
        let cfg = RoutabilityConfig {
            max_passes: 2,
            target_top5: 0.0,
            route: RouteConfig {
                capacity: 0.5,
                ..RouteConfig::default()
            },
            max_inflation: 3.0,
            ..Default::default()
        };
        let report = routability_driven_place(&mut d, quick_placer(), &cfg).expect("flow");
        // Mean inflation stays within the headroom 0.92*0.95/0.85 ~ 1.03.
        assert!(
            report.passes[0].mean_inflation < 1.1,
            "area budget violated: mean inflation {}",
            report.passes[0].mean_inflation
        );
    }
}
