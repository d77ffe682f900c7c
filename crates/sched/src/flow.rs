//! The placement flow: global placement → legalization → detailed
//! placement → legality check → congestion estimate, and the
//! [`RunReport`] it yields.
//!
//! This is the one place a run's report is assembled. `xplace place`, a
//! batch job, the population winner and the table binaries all go
//! through it, so their reports cannot drift apart. Errors carry the
//! stage they came from as a prefix (`global placement: `,
//! `legalization: `, `legality check: `), which is the text a failed
//! batch job records.

use xplace_core::{CheckpointOptions, GlobalPlacer, PlacementReport, XplaceConfig};
use xplace_db::Design;
use xplace_legal::{check_legality, detailed_place, legalize, DpConfig};
use xplace_route::{estimate_congestion, RouteConfig};
use xplace_telemetry::{DpMetrics, LgMetrics, RouteMetrics, RunReport, TelemetrySink};

/// Runs the whole flow on `design` in place: `placer` does global
/// placement (streaming its events into `sink`, under the checkpoint
/// control `ckpt`), then [`finish_flow`] does the rest.
///
/// # Errors
///
/// Returns the stage-prefixed failure text of global placement,
/// legalization or the legality check.
pub fn run_flow(
    design: &mut Design,
    mut placer: GlobalPlacer,
    sink: &mut dyn TelemetrySink,
    ckpt: CheckpointOptions<'_>,
) -> Result<RunReport, String> {
    let gp = placer
        .place_traced_opts(design, sink, ckpt)
        .map_err(|e| format!("global placement: {e}"))?;
    finish_flow(design, placer.config(), &gp)
}

/// The back half of the flow, for a design whose global placement `gp`
/// already ran under `config`: legalize, detailed-place, check legality,
/// estimate congestion, and assemble the report.
///
/// # Errors
///
/// Returns the stage-prefixed failure text of legalization or the
/// legality check.
pub fn finish_flow(
    design: &mut Design,
    config: &XplaceConfig,
    gp: &PlacementReport,
) -> Result<RunReport, String> {
    let lg = legalize(design).map_err(|e| format!("legalization: {e}"))?;
    let dp = detailed_place(design, &DpConfig::default());
    check_legality(design).map_err(|e| format!("legality check: {e}"))?;
    let congestion = estimate_congestion(design, &RouteConfig::default());
    Ok(RunReport {
        design: design.name().to_string(),
        cells: design.netlist().num_cells(),
        nets: design.netlist().num_nets(),
        config: config.echo(),
        threads: config.threads,
        gp: gp.gp_metrics(),
        lg: Some(LgMetrics {
            initial_hpwl: lg.initial_hpwl,
            final_hpwl: lg.final_hpwl,
            mean_displacement: lg.mean_displacement,
            max_displacement: lg.max_displacement,
            wall_seconds: lg.wall_seconds,
        }),
        dp: Some(DpMetrics {
            initial_hpwl: dp.initial_hpwl,
            final_hpwl: dp.final_hpwl,
            slides: dp.slides,
            reorders: dp.reorders,
            swaps: dp.swaps,
            wall_seconds: dp.wall_seconds,
        }),
        route: Some(RouteMetrics {
            top5_overflow: congestion.top_overflow(0.05),
            max_utilization: congestion.max_utilization(),
        }),
        spectral: None,
        scaling: None,
        explore: None,
        trace_error: None,
    })
}
