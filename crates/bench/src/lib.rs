//! Shared infrastructure for the table-regeneration binaries.
//!
//! Every table of the paper's evaluation section has a binary in
//! `src/bin` (see `DESIGN.md` for the experiment index). This library
//! provides the common pieces: the full flow on a suite entry, suite
//! scaling via the `XPLACE_SCALE` environment variable, and plain-text
//! table formatting.

#![warn(missing_docs)]

pub mod explore;
pub mod scaling;
pub mod spectral;

use xplace_core::{CheckpointOptions, GlobalPlacer, XplaceConfig};
use xplace_db::suites::SuiteEntry;
use xplace_db::synthesis::synthesize;
use xplace_db::{DbError, Design};
use xplace_telemetry::{NullSink, RunReport, ToJson};

/// Runs the full flow for one suite entry under one placer
/// configuration, optionally with a neural guidance: synthesize, then
/// the pipeline of [`xplace_sched::run_flow`]. Returns the placed,
/// legalized design and its report.
///
/// # Errors
///
/// Propagates synthesis, placement and legalization failures as boxed
/// errors with context.
pub fn run_flow(
    entry: &SuiteEntry,
    config: XplaceConfig,
    guidance: Option<Box<dyn xplace_core::DensityGuidance>>,
) -> Result<(Design, RunReport), Box<dyn std::error::Error>> {
    let mut design = synthesize(&entry.spec)?;
    let mut placer = GlobalPlacer::new(config);
    if let Some(g) = guidance {
        placer = placer.with_guidance(g);
    }
    let report = xplace_sched::run_flow(
        &mut design,
        placer,
        &mut NullSink,
        CheckpointOptions::none(),
    )?;
    Ok((design, report))
}

/// Writes a slice of [`RunReport`]s as one JSON array, creating parent
/// directories as needed (the `results/` convention of the table
/// binaries).
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn write_reports(path: &std::path::Path, reports: &[RunReport]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let array = xplace_telemetry::Json::Arr(reports.iter().map(ToJson::to_json).collect());
    std::fs::write(path, array.render())
}

/// Returns the value following `--flag` in the process arguments, `None`
/// when absent (bin helper; a following `--other-flag` is not a value).
pub fn argv_flag(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .filter(|v| !v.starts_with("--"))
        .cloned()
}

/// Parses the value of `--flag` from the process arguments, exiting with
/// a clear error on unparseable input (bin helper).
pub fn argv_parse<T>(flag: &str, default: T) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match argv_flag(flag) {
        None => default,
        Some(v) => match v.parse() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: invalid value '{v}' for {flag}: {e}");
                std::process::exit(2)
            }
        },
    }
}

/// Reads the suite scale factor from `XPLACE_SCALE` (default `default`).
/// Published contest sizes correspond to scale 1.0.
pub fn scale_from_env(default: f64) -> f64 {
    std::env::var("XPLACE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v: &f64| *v > 0.0)
        .unwrap_or(default)
}

/// Reads an iteration cap from `XPLACE_MAX_ITERS` (default `default`).
pub fn max_iters_from_env(default: usize) -> usize {
    std::env::var("XPLACE_MAX_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v: &usize| *v > 0)
        .unwrap_or(default)
}

/// Runs `f` over `items` on up to `workers` threads, returning results in
/// input order. Each item's work is independent (one design / one
/// configuration), so parallelism changes nothing but wall-clock time.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                tx.send((i, r)).expect("result channel open");
            });
        }
        drop(tx);
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in rx.iter() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every item produced a result"))
        .collect()
}

/// The default worker count: the machine's parallelism, capped at 8.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

/// A plain-text table printer with right-aligned numeric columns.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row length mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", cell, width = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with the given number of decimals.
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Synthesizes a design for quick experiments, panicking with context on
/// failure (binaries only).
pub fn must_synthesize(entry: &SuiteEntry) -> Design {
    match synthesize(&entry.spec) {
        Ok(d) => d,
        Err(e) => panic!("failed to synthesize {}: {e}", entry.name()),
    }
}

/// A uniform error wrapper for the binaries.
pub fn die(e: DbError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::suites::ispd2005_like;

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.5".into()]);
        t.row(vec!["long-name".into(), "23.25".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].starts_with("a "));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn text_table_rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn env_overrides_parse() {
        // Unset -> default.
        std::env::remove_var("XPLACE_SCALE");
        assert_eq!(scale_from_env(0.01), 0.01);
        assert_eq!(max_iters_from_env(700), 700);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..37).collect();
        let doubled = parallel_map(&items, 4, |&i| i * 2);
        assert_eq!(doubled, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_edge_worker_counts() {
        let items = vec![1, 2, 3];
        assert_eq!(parallel_map(&items, 0, |&i| i + 1), vec![2, 3, 4]);
        assert_eq!(parallel_map(&items, 100, |&i| i + 1), vec![2, 3, 4]);
        let empty: Vec<i32> = vec![];
        assert!(parallel_map(&empty, 4, |&i| i).is_empty());
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn full_flow_runs_on_a_tiny_entry() {
        let mut entry = ispd2005_like(0.002)[0].clone();
        entry.spec.num_cells = 300;
        entry.spec.num_nets = 320;
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 150;
        let (design, report) = run_flow(&entry, cfg, None).unwrap();
        assert!(report.final_hpwl() > 0.0);
        assert!(report.gp.modeled_seconds() > 0.0);
        assert!(report.lg_dp_wall_seconds() >= 0.0);
        let (lg, dp) = (report.lg.unwrap(), report.dp.unwrap());
        assert!(dp.final_hpwl <= lg.final_hpwl + 1e-9);
        assert_eq!(report.cells, design.netlist().num_cells());
    }
}
