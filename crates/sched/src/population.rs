//! Population-based exploration: parallel perturbed restarts with
//! deterministic checkpoint branching.
//!
//! `xplace place --explore K` runs `K` global-placement members
//! concurrently over the worker pool. Members pause at fixed checkpoint
//! barriers (the generation boundaries), where the driver scores every
//! member (HPWL weighted by density overflow), culls the worst, and
//! refills the culled slots by branching the best survivor's snapshot
//! under a seeded [`Perturbation`] (position jitter plus λ/ω schedule
//! offsets). The final generation runs members to completion; the winner
//! is finished through legalization and detailed placement.
//!
//! Determinism contract: the whole population is a pure function of
//! `(design, config, options)`. Members are keyed by slot index, every
//! segment is bit-identical for any pool width by the workspace
//! determinism contract, and culling ties resolve to the lower slot
//! index — so the winner's stitched trace and its report are
//! byte-identical for any `--threads`. The full lineage (who branched
//! from whom, under which perturbation seed) is recorded in the
//! report's [`ExploreMetrics`] section, which is enough to replay any
//! member from scratch.
//!
//! With `K = 1` no culling ever happens and the single member's
//! pause/resume segments stitch into exactly the uninterrupted run's
//! trace (the core checkpoint stitching contract), so `--explore 1`
//! degenerates to a plain `xplace place` run.

use xplace_core::{
    Checkpoint, CheckpointOptions, GlobalPlacer, MemoryCheckpointStore, Perturbation,
    PlacementReport, XplaceConfig,
};
use xplace_db::Design;
use xplace_telemetry::{ExploreGeneration, ExploreMember, ExploreMetrics, RunReport, VecSink};

/// How a population explores: member count, barrier schedule, and cull
/// survivor count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationOptions {
    /// Population size `K` (slot 0 carries the unperturbed base seed).
    pub members: usize,
    /// Number of generations. Barriers fall at
    /// `(g + 1) * max_iterations / generations` for every generation but
    /// the last, which runs members to completion.
    pub generations: usize,
    /// Survivors per cull (the rest are rebranched from the best
    /// survivor's snapshot).
    pub keep: usize,
    /// Worker-pool width members are spread over. Never changes the
    /// outcome — only wall-clock time.
    pub threads: usize,
}

impl PopulationOptions {
    /// Defaults for a population of `members`: 4 generations, half the
    /// population (at least one) surviving each cull.
    pub fn for_members(members: usize) -> Self {
        PopulationOptions {
            members,
            generations: 4,
            keep: (members / 2).max(1),
            threads: 1,
        }
    }
}

/// The result of a population run: the winner's report (with the
/// [`ExploreMetrics`] lineage section), its stitched trace, and its
/// finished design.
#[derive(Debug, Clone)]
pub struct PopulationOutcome {
    /// The winner's run summary; `report.explore` holds the full
    /// population history.
    pub report: RunReport,
    /// The winner's stitched JSON-lines trace: its whole lineage from
    /// iteration 0, byte-identical for any thread count.
    pub trace: String,
    /// The winner's design after legalization and detailed placement.
    pub design: Design,
}

/// One member's segment between two barriers.
struct SegmentEnd {
    report: PlacementReport,
    trace: String,
    design: Design,
    snapshot: Option<Checkpoint>,
}

/// Splitmix-style seed derivation: decorrelates member seeds (and
/// perturbation seeds) from the base seed without any shared stream.
/// Masked to 32 bits so seeds survive the JSON telemetry layer exactly
/// (integers above 2^53 do not round-trip through JSON numbers).
fn derive_seed(base: u64, lane: u64) -> u64 {
    let mut h = base ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 29;
    h & 0xffff_ffff
}

/// The perturbation seed for refilling `slot` at the barrier after
/// `generation` — unique per (base seed, generation, slot).
fn perturbation_seed(base: u64, generation: usize, slot: usize) -> u64 {
    derive_seed(base ^ ((generation as u64 + 1) << 32), slot as u64 + 1)
}

/// Selection score at a barrier: HPWL weighted by how far the member is
/// from meeting density (lower is better). Ties resolve to the lower
/// slot index.
fn score_of(hpwl: f64, overflow: f64) -> f64 {
    hpwl * (1.0 + overflow)
}

/// Runs one member segment: a GP run over `base`'s clone, optionally
/// resumed from `resume`, optionally pausing at `stop_at`.
fn run_segment(
    base: &Design,
    config: &XplaceConfig,
    resume: Option<&Checkpoint>,
    stop_at: Option<usize>,
) -> Result<SegmentEnd, String> {
    let mut design = base.clone();
    let store = MemoryCheckpointStore::new();
    let mut sink = VecSink::new();
    let ckpt = CheckpointOptions {
        every: 0,
        store: Some(&store),
        resume,
        stop_at,
    };
    let report = GlobalPlacer::new(config.clone())
        .place_traced_opts(&mut design, &mut sink, ckpt)
        .map_err(|e| format!("global placement: {e}"))?;
    let snapshot = if report.paused {
        store
            .latest()
            .map_err(|e| format!("reading pause snapshot: {e}"))?
            .map(|(_, cp)| cp)
    } else {
        None
    };
    Ok(SegmentEnd {
        report,
        trace: sink.to_jsonl(),
        design,
        snapshot,
    })
}

/// Appends a segment's trace to a member's stitched trace. Resumed
/// segments re-emit `run_start`; dropping that first line makes the
/// stitched text byte-identical to an uninterrupted run's (the core
/// checkpoint stitching contract).
fn stitch(stitched: &mut String, segment: &str, resumed: bool) {
    if !resumed {
        stitched.push_str(segment);
    } else if let Some(pos) = segment.find('\n') {
        stitched.push_str(&segment[pos + 1..]);
    }
}

/// Runs a population of perturbed GP members over the worker pool and
/// finishes the winner through legalization and detailed placement.
///
/// Slot 0 runs `config` as given; slot `i > 0` runs with a seed derived
/// from `(config.seed, i)`. All members run with kernel width 1 —
/// population parallelism replaces kernel parallelism (nested launches
/// would degrade to serial inline execution anyway), and it keeps the
/// report independent of `options.threads`.
///
/// # Errors
///
/// Returns the failure text for invalid options, placement errors, and
/// legality failures of the winner.
pub fn run_population(
    design: &Design,
    config: &XplaceConfig,
    options: &PopulationOptions,
) -> Result<PopulationOutcome, String> {
    let k = options.members;
    if k == 0 {
        return Err("population needs at least one member (--explore K, K >= 1)".into());
    }
    if options.keep == 0 || options.keep > k {
        return Err(format!(
            "population keep count must be in 1..={k}, got {}",
            options.keep
        ));
    }
    if options.generations == 0 {
        return Err("population needs at least one generation".into());
    }
    let max_iterations = config.schedule.max_iterations;
    if max_iterations < options.generations {
        return Err(format!(
            "population needs max_iterations >= generations \
             ({max_iterations} < {})",
            options.generations
        ));
    }

    // Per-slot member configs: slot 0 is the unperturbed base seed.
    let configs: Vec<XplaceConfig> = (0..k)
        .map(|i| {
            let mut c = config.clone();
            c.threads = 1;
            if i > 0 {
                c.seed = derive_seed(config.seed, i as u64);
            }
            c
        })
        .collect();

    // Per-slot state across generations.
    let mut traces: Vec<String> = vec![String::new(); k];
    let mut snapshots: Vec<Option<Checkpoint>> = vec![None; k];
    let mut reports: Vec<Option<PlacementReport>> = (0..k).map(|_| None).collect();
    let mut designs: Vec<Option<Design>> = (0..k).map(|_| None).collect();
    let mut history: Vec<Vec<usize>> = (0..k).map(|_| Vec::new()).collect();
    let mut cumulative_ns: Vec<u64> = vec![0; k];
    // `live[i]`: slot i runs a segment this generation. Culled slots go
    // dormant until refilled; converged slots stay finished.
    let mut live: Vec<bool> = vec![true; k];
    // Refills applied at the *start* of generation g, recorded into
    // generation g's member entries: (branched_from, perturbation_seed).
    let mut branch_info: Vec<Option<(usize, u64)>> = vec![None; k];

    let mut generations: Vec<ExploreGeneration> = Vec::with_capacity(options.generations);
    let mut total_modeled_ns: u64 = 0;
    let pool = xplace_parallel::global();

    for generation in 0..options.generations {
        let last = generation + 1 == options.generations;
        let barrier = ((generation + 1) * max_iterations) / options.generations;
        let stop_at = if last { None } else { Some(barrier) };

        for (slot, h) in history.iter_mut().enumerate() {
            h.push(slot);
        }

        // Run every live member's segment concurrently; results are
        // keyed by slot, so collection order is deterministic.
        let running: Vec<usize> = (0..k).filter(|&i| live[i]).collect();
        let results = pool.run_isolated(running.len(), options.threads.max(1), |idx| {
            let slot = running[idx];
            run_segment(design, &configs[slot], snapshots[slot].as_ref(), stop_at)
        });
        for (idx, result) in results.into_iter().enumerate() {
            let slot = running[idx];
            let end = result
                .map_err(|panic| format!("member {slot} crashed: {panic}"))?
                .map_err(|e| format!("member {slot}: {e}"))?;
            let resumed = snapshots[slot].is_some();
            stitch(&mut traces[slot], &end.trace, resumed);
            let modeled_ns = end.report.gp_metrics().modeled_ns;
            total_modeled_ns += modeled_ns.saturating_sub(cumulative_ns[slot]);
            cumulative_ns[slot] = modeled_ns;
            if !end.report.paused {
                // Converged (or completed) before the barrier: finished.
                live[slot] = false;
            }
            snapshots[slot] = end.snapshot;
            reports[slot] = Some(end.report);
            designs[slot] = Some(end.design);
        }

        // Score the whole population at this barrier (dormant slots keep
        // the stale score they were culled with — they stay worst).
        let scores: Vec<f64> = (0..k)
            .map(|i| {
                let r = reports[i].as_ref().expect("every slot ran at least once");
                score_of(r.final_hpwl, r.final_overflow)
            })
            .collect();
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
        let best = order[0];

        let mut culled = vec![false; k];
        if !last {
            for &slot in &order[options.keep..] {
                culled[slot] = true;
            }
        }
        generations.push(ExploreGeneration {
            generation,
            iteration: if last { max_iterations } else { barrier },
            members: (0..k)
                .map(|i| {
                    let r = reports[i].as_ref().expect("slot ran");
                    ExploreMember {
                        member: i,
                        hpwl: r.final_hpwl,
                        overflow: r.final_overflow,
                        score: scores[i],
                        culled: culled[i],
                        branched_from: branch_info[i].map(|(from, _)| from),
                        perturbation_seed: branch_info[i].map(|(_, seed)| seed),
                    }
                })
                .collect(),
            best,
        });

        if last {
            break;
        }

        // Refill culled slots by branching the best survivor that still
        // holds a barrier snapshot (a survivor that converged early has
        // none — nothing left to explore from it).
        branch_info = vec![None; k];
        let source = order[..options.keep]
            .iter()
            .copied()
            .find(|&s| snapshots[s].is_some());
        if let Some(source) = source {
            for slot in 0..k {
                if !culled[slot] {
                    continue;
                }
                let seed = perturbation_seed(config.seed, generation, slot);
                let mut cp = snapshots[source]
                    .as_ref()
                    .expect("source holds a snapshot")
                    .branch_for(&configs[slot]);
                cp.perturb(&Perturbation::with_seed(seed));
                snapshots[slot] = Some(cp);
                traces[slot] = traces[source].clone();
                history[slot] = history[source].clone();
                cumulative_ns[slot] = cumulative_ns[source];
                live[slot] = true;
                branch_info[slot] = Some((source, seed));
            }
        } else {
            for slot in 0..k {
                if culled[slot] {
                    live[slot] = false;
                }
            }
        }
    }

    // The winner: best score after the final generation (ties to the
    // lower slot, same rule as culling).
    let final_gen = generations.last().expect("at least one generation ran");
    let winner = final_gen.best;
    let winner_report = reports[winner].take().expect("winner ran");
    let mut winner_design = designs[winner].take().expect("winner ran");

    // Finish the winner through the serial back half of the flow.
    let mut report = crate::finish_flow(&mut winner_design, config, &winner_report)?;
    // Wall-clock fields are zeroed: the winner's stitched lineage never
    // ran as one wall-clock run, and dropping the only machine-dependent
    // quantities makes the population report byte-identical for any
    // thread count (the modeled-ns fields carry the deterministic cost).
    report.zero_wall_clock();
    report.threads = 1;
    report.explore = Some(ExploreMetrics {
        members: k,
        keep: options.keep,
        generations,
        winner,
        winner_lineage: history[winner].clone(),
        winner_hpwl: winner_report.final_hpwl,
        total_modeled_ns,
    });
    Ok(PopulationOutcome {
        report,
        trace: std::mem::take(&mut traces[winner]),
        design: winner_design,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::synthesis::{synthesize, SynthesisSpec};
    use xplace_telemetry::ToJson;

    fn small_design(seed: u64) -> Design {
        synthesize(&SynthesisSpec::new("pop", 300, 320).with_seed(seed))
            .expect("synthesis succeeds")
    }

    fn small_config() -> XplaceConfig {
        let mut c = XplaceConfig::xplace().with_seed(0x5eed);
        c.schedule.max_iterations = 60;
        c
    }

    #[test]
    fn population_is_deterministic_for_any_pool_width() {
        let design = small_design(5);
        let config = small_config();
        let mut opts = PopulationOptions::for_members(3);
        opts.generations = 3;
        opts.threads = 1;
        let serial = run_population(&design, &config, &opts).unwrap();
        opts.threads = 4;
        let wide = run_population(&design, &config, &opts).unwrap();
        assert_eq!(
            serial.trace, wide.trace,
            "winner trace must not depend on width"
        );
        assert_eq!(
            serial.report.to_json_string(),
            wide.report.to_json_string(),
            "winner report must not depend on width"
        );
    }

    #[test]
    fn culling_refills_slots_from_the_best_snapshot() {
        let design = small_design(5);
        let config = small_config();
        let opts = PopulationOptions {
            members: 4,
            generations: 3,
            keep: 2,
            threads: 2,
        };
        let pop = run_population(&design, &config, &opts).unwrap();
        let explore = pop.report.explore.as_ref().unwrap();
        assert_eq!(explore.generations.len(), 3);
        // Two slots are culled at each intermediate barrier...
        let culled0: Vec<usize> = explore.generations[0]
            .members
            .iter()
            .filter(|m| m.culled)
            .map(|m| m.member)
            .collect();
        assert_eq!(culled0.len(), 2);
        // ...and reappear branched in the next generation, citing their
        // source and perturbation seed.
        for m in &explore.generations[1].members {
            if culled0.contains(&m.member) {
                assert!(m.branched_from.is_some(), "culled slot must be rebranched");
                assert!(m.perturbation_seed.is_some());
            } else {
                assert!(m.branched_from.is_none());
            }
        }
        // Lineage length equals the generation count and ends at the
        // winner's own slot.
        assert_eq!(explore.winner_lineage.len(), 3);
        assert_eq!(*explore.winner_lineage.last().unwrap(), explore.winner);
        assert!(explore.total_modeled_ns > 0);
    }

    #[test]
    fn invalid_options_are_rejected() {
        let design = small_design(5);
        let config = small_config();
        for (members, generations, keep) in [(0, 4, 1), (4, 0, 2), (4, 4, 0), (4, 4, 5)] {
            let opts = PopulationOptions {
                members,
                generations,
                keep,
                threads: 1,
            };
            assert!(
                run_population(&design, &config, &opts).is_err(),
                "members={members} generations={generations} keep={keep} must be rejected"
            );
        }
        let mut tight = config.clone();
        tight.schedule.max_iterations = 2;
        let opts = PopulationOptions::for_members(2);
        let err = run_population(&design, &tight, &opts).unwrap_err();
        assert!(err.contains("max_iterations >= generations"), "{err}");
    }
}
