//! The traced half of the wall-clock benchmark (see `README.md`).
//!
//! ```text
//! wallbench <design.aux> --threads N [--multilevel] --out DIR --micro-seconds S
//! ```
//!
//! Runs the `xplace place` flow in-process, calling each layer's public
//! functions in the order the CLI calls them, with a span recorded around
//! every call. Nothing inside the program is instrumented: the spans live
//! in this file. After the flow it times the GP kernels per call on the
//! design's final GP placement. The result is one JSON object on the last
//! line of standard output; `run.py` turns it into per-layer metrics.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use xplace::core::{
    Framework, GlobalPlacer, GradientEngine, NesterovOptimizer, OperatorConfig, Parameters,
    XplaceConfig,
};
use xplace::db::{bookshelf, build_hierarchy, Design, HierarchyOptions};
use xplace::device::Device;
use xplace::fft::{plan_cache_stats, ElectrostaticSolver, FieldSolution};
use xplace::legal::{check_legality, detailed_place, legalize, DpConfig};
use xplace::ops::density::DensityOp;
use xplace::ops::wirelength::{self, WaWorkspace};
use xplace::ops::{precond, PlacementModel};
use xplace::route::{estimate_congestion, RouteConfig};
use xplace::telemetry::{DpMetrics, Json, LgMetrics, RouteMetrics, RunReport, ToJson};

type BoxError = Box<dyn std::error::Error>;

/// One timed call into a layer: name, the span that caused it, and its
/// start/end in seconds since the tracer was created.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// In-memory span recorder; the spans are written out once, at the end.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    fn span<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| (p as u64).to_json()),
                        ),
                        ("start_s", s.start.to_json()),
                        ("end_s", s.end.to_json()),
                    ])
                })
                .collect(),
        )
    }
}

struct Args {
    aux: PathBuf,
    threads: usize,
    multilevel: bool,
    out: PathBuf,
    micro_seconds: f64,
}

fn parse_args() -> Result<Args, BoxError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, BoxError> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}").into())
    };
    Ok(Args {
        aux: PathBuf::from(args.first().ok_or("usage: wallbench <design.aux> ...")?),
        threads: value("--threads")?.parse()?,
        multilevel: args.iter().any(|a| a == "--multilevel"),
        out: PathBuf::from(value("--out")?),
        micro_seconds: value("--micro-seconds")?.parse()?,
    })
}

/// Bytes of every file the `.aux` names, plus the `.aux` itself: what
/// `bookshelf::read_aux` parses.
fn input_bytes(aux: &Path) -> Result<u64, BoxError> {
    let text = std::fs::read_to_string(aux)?;
    let dir = aux.parent().unwrap_or(Path::new("."));
    let mut total = std::fs::metadata(aux)?.len();
    if let Some((_, files)) = text.split_once(':') {
        for file in files.split_whitespace() {
            total += std::fs::metadata(dir.join(file))?.len();
        }
    }
    Ok(total)
}

/// The configuration `xplace place` builds from its default flags.
fn cli_config(threads: usize, multilevel: bool) -> XplaceConfig {
    let mut config = XplaceConfig::xplace();
    config.schedule.max_iterations = 1500;
    config.seed = 0x5eed;
    config.threads = threads;
    config.multilevel.enabled = multilevel;
    config
}

/// Median per-call milliseconds of `f`, called until `budget` is spent
/// (at least three calls, after one untimed warm-up call).
fn per_call_ms(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times the GP kernels per call on `design` (the final GP placement),
/// each with an equal share of `seconds`.
fn micro_loop(design: &Design, config: &XplaceConfig, seconds: f64) -> Result<Json, BoxError> {
    let budget = Duration::from_secs_f64(seconds / 6.0);
    let threads = config.threads;
    let mut model = PlacementModel::from_design_with(design, config.grid, true, config.seed)?;
    model.clamp_to_region();
    let device = Device::new(config.device);
    let bin = 0.5 * (model.bin_w() + model.bin_h());
    let schedule = config.schedule;
    let mut params = Parameters::new(&schedule, bin);
    // Past the operator-skipping window, so every evaluation solves.
    params.iteration = 1000;

    let mut engine1 = GradientEngine::new(Framework::Xplace, OperatorConfig::all(), &model)?;
    engine1.set_threads(1);
    let mut engine = GradientEngine::new(Framework::Xplace, OperatorConfig::all(), &model)?;
    engine.set_threads(threads);
    let first = engine.evaluate(&device, &model, &params, 0.0)?;
    params.initialize_lambda(&schedule, first.wl_grad_l1, first.density_grad_l1);
    let omega = precond::omega(&model, params.lambda);

    let n = model.num_nodes();
    let (mut gx, mut gy) = (vec![0.0; n], vec![0.0; n]);
    let mut ws = WaWorkspace::new();
    let wirelength_ms = per_call_ms(budget, || {
        std::hint::black_box(wirelength::wa_fused_mt_ws(
            &device,
            &model,
            params.gamma,
            &mut gx,
            &mut gy,
            threads,
            xplace::parallel::global(),
            &mut ws,
        ));
    });

    let mut density = DensityOp::new(&model)?;
    density.set_threads(threads);
    let density_ms = per_call_ms(budget, || {
        density.accumulate_movable(&device, &model);
        density.accumulate_fillers(&device, &model);
        density.combine_total(&device);
        std::hint::black_box(density.overflow(&device, &model));
    });

    let (nx, ny) = model.grid_dims();
    let mut solver = ElectrostaticSolver::new(nx, ny)?;
    solver.set_threads(threads);
    let mut solution = FieldSolution::new(nx, ny);
    let mut solve_result = Ok(());
    let solve_ms = per_call_ms(budget, || {
        if let Err(e) = solver.solve_into(&density.total_map, &mut solution) {
            solve_result = Err(e);
        }
    });
    solve_result?;

    let mut eval_result = Ok(());
    let mut eval = |engine: &mut GradientEngine| {
        per_call_ms(budget, || {
            if let Err(e) = engine.evaluate(&device, &model, &params, omega) {
                eval_result = Err(e);
            }
        })
    };
    let eval_ms_w1 = eval(&mut engine1);
    let eval_ms = eval(&mut engine);
    eval_result?;

    let (gx, gy) = {
        let (a, b) = engine.grads();
        (a.to_vec(), b.to_vec())
    };
    let max_g = gx.iter().chain(&gy).fold(0.0f64, |m, g| m.max(g.abs()));
    let step0 = if max_g > 0.0 { 0.5 * bin / max_g } else { 1.0 };
    let mut optimizer = NesterovOptimizer::new(&model, step0, 5.0 * bin);
    let mut stepped = model.clone();
    let step_ms = per_call_ms(budget, || {
        optimizer.step(&device, &mut stepped, &gx, &gy, true);
    });

    // Computed bytes and flops per call, from the kernel descriptors the
    // device model charges (`wa_fused`; the density accumulation, combine
    // and overflow kernels; the two spectral kernels), not measured.
    let bins = (nx * ny) as u64;
    let pins = model.num_pins() as u64;
    let (wirelength_bytes, wirelength_flops) = (pins * 56, pins * 68);
    let density_bytes = n as u64 * 176 + bins * 24 + bins * 8;
    let density_flops = n as u64 * 100 + bins + bins * 3;
    let spectral = DensityOp::spectral_kernels(nx, ny);
    let solve_bytes: u64 = spectral.iter().map(|k| k.bytes_accessed()).sum();
    let solve_flops: u64 = spectral.iter().map(|k| k.flop_count()).sum();
    Ok(Json::obj([
        ("wirelength_ms", wirelength_ms.to_json()),
        ("density_ms", density_ms.to_json()),
        ("solve_ms", solve_ms.to_json()),
        ("eval_ms_w1", eval_ms_w1.to_json()),
        ("eval_ms", eval_ms.to_json()),
        ("step_ms", step_ms.to_json()),
        ("grid_bins", bins.to_json()),
        ("wirelength_bytes", wirelength_bytes.to_json()),
        ("density_bytes", density_bytes.to_json()),
        ("solve_bytes", solve_bytes.to_json()),
        ("wirelength_flops", wirelength_flops.to_json()),
        ("density_flops", density_flops.to_json()),
        ("solve_flops", solve_flops.to_json()),
    ]))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), BoxError> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.out)?;
    let config = cli_config(args.threads, args.multilevel);
    let mut tracer = Tracer::new();

    // The flow, in the order `xplace place` runs it.
    let flow = tracer.open("flow", None);
    let mut design = tracer.span("db.read_aux", flow, || bookshelf::read_aux(&args.aux, 0.9))?;
    let (plan_hits0, plan_misses0) = plan_cache_stats();
    let gp = tracer.span("core.gp", flow, || {
        GlobalPlacer::new(config.clone()).place(&mut design)
    })?;
    let (plan_hits1, plan_misses1) = plan_cache_stats();
    let gp_design = design.clone();
    let lg = tracer.span("legal.lg", flow, || legalize(&mut design))?;
    let dp = tracer.span("legal.dp", flow, || {
        detailed_place(&mut design, &DpConfig::default())
    });
    tracer.span("legal.check", flow, || check_legality(&design))?;
    let congestion = tracer.span("route.congestion", flow, || {
        estimate_congestion(&design, &RouteConfig::default())
    });
    let report_path = args.out.join("traced_report.json");
    tracer.span("telemetry.report", flow, || {
        let report = RunReport {
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
        };
        std::fs::write(&report_path, report.to_json_string())
    })?;
    tracer.span("db.write_pl", flow, || {
        bookshelf::write_pl(&design, &args.out.join("traced.pl"))
    })?;
    tracer.close(flow);

    // Coarsening as the multilevel placer calls it, on a fresh load; kept
    // outside the flow span so the flow's coverage is not double-counted.
    let fresh = bookshelf::read_aux(&args.aux, 0.9)?;
    let ml = config.multilevel;
    let options = HierarchyOptions {
        min_cells: ml.min_cells,
        max_levels: ml.max_levels,
        stall_fraction: 0.9,
    };
    let coarsen = tracer.open("db.coarsen", None);
    let levels = build_hierarchy(&fresh, &options)?;
    tracer.close(coarsen);

    let micro_span = tracer.open("micro", None);
    let micro = micro_loop(&gp_design, &config, args.micro_seconds)?;
    tracer.close(micro_span);

    let result = Json::obj([
        ("spans", tracer.to_json()),
        ("input_bytes", input_bytes(&args.aux)?.to_json()),
        ("levels", (levels.len() as u64).to_json()),
        ("hpwl", dp.final_hpwl.to_json()),
        ("lg_hpwl", lg.final_hpwl.to_json()),
        ("gp_iterations", (gp.iterations as u64).to_json()),
        ("gp_converged", Json::Bool(gp.converged)),
        ("gp_final_overflow", gp.final_overflow.to_json()),
        ("gp_wall_seconds", gp.wall_seconds.to_json()),
        ("launches", gp.profile.launches.to_json()),
        ("syncs", gp.profile.syncs.to_json()),
        ("modeled_ns", gp.profile.modeled_ns().to_json()),
        ("kernel_body_ns", gp.profile.cpu_ns.to_json()),
        (
            "plan_cache_hits",
            (plan_hits1.saturating_sub(plan_hits0) as u64).to_json(),
        ),
        (
            "plan_cache_misses",
            (plan_misses1.saturating_sub(plan_misses0) as u64).to_json(),
        ),
        ("micro", micro),
    ]);
    println!("{}", result.render());
    Ok(())
}
