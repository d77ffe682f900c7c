//! End-to-end tests of population-based exploration (`--explore K`):
//! the determinism contract (byte-identical winner artifacts for any
//! pool width), the culling order (score, then member index), and the
//! `K = 1` degeneracy to a plain single run (same trace, same report).

use xplace::cli::parse_explore_args;
use xplace::core::{CheckpointOptions, GlobalPlacer, XplaceConfig};
use xplace::db::synthesis::{synthesize, SynthesisSpec};
use xplace::db::Design;
use xplace::sched::{run_flow, run_population, PopulationOptions};
use xplace::telemetry::{FromJson, RunReport, ToJson, VecSink};

fn explore_design() -> Design {
    synthesize(&SynthesisSpec::new("explore", 300, 320).with_seed(7)).expect("synthesis succeeds")
}

fn explore_config() -> XplaceConfig {
    let mut config = XplaceConfig::xplace().with_seed(0xf10e);
    config.schedule.max_iterations = 60;
    config
}

#[test]
fn explore_four_is_byte_identical_across_thread_counts() {
    // The CLI contract under test: `xplace place --explore 4 --seed S`
    // produces the same winner trace and report at --threads 1 and 4.
    let design = explore_design();
    let config = explore_config();
    let mut options = PopulationOptions {
        members: 4,
        generations: 3,
        keep: 2,
        threads: 1,
    };
    let serial = run_population(&design, &config, &options).expect("population runs");
    options.threads = 4;
    let wide = run_population(&design, &config, &options).expect("population runs");

    assert_eq!(
        serial.trace, wide.trace,
        "winner trace must be byte-identical for any pool width"
    );
    assert_eq!(
        serial.report.to_json_string(),
        wide.report.to_json_string(),
        "winner report must be byte-identical for any pool width"
    );

    // The report round-trips exactly, so the recorded lineage (who
    // branched from whom, under which perturbation seed) is replayable
    // from the report alone.
    let rendered = serial.report.to_json_string();
    let back = RunReport::from_json_str(&rendered).expect("population report parses back");
    assert_eq!(back.to_json_string(), rendered);
    let explore = back.explore.expect("population report carries lineage");
    assert_eq!(explore.members, 4);
    assert_eq!(explore.keep, 2);
    assert_eq!(explore.generations.len(), 3);
    assert_eq!(explore.winner_lineage.len(), 3);
    assert_eq!(*explore.winner_lineage.last().unwrap(), explore.winner);
}

#[test]
fn culling_ranks_by_score_then_member_index() {
    // At every barrier, survivors are the `keep` best under the
    // documented deterministic order: ascending score, ties to the
    // lower member index. The recorded generation data must be exactly
    // consistent with that rule — `best` is the order's head and the
    // culled set is its tail.
    let design = explore_design();
    let config = explore_config();
    let options = PopulationOptions {
        members: 6,
        generations: 3,
        keep: 3,
        threads: 4,
    };
    let outcome = run_population(&design, &config, &options).expect("population runs");
    let explore = outcome.report.explore.as_ref().expect("lineage recorded");
    assert_eq!(explore.generations.len(), options.generations);
    for (g, generation) in explore.generations.iter().enumerate() {
        let members = &generation.members;
        assert_eq!(members.len(), options.members);
        let mut order: Vec<usize> = (0..options.members).collect();
        order.sort_by(|&a, &b| {
            members[a]
                .score
                .total_cmp(&members[b].score)
                .then(a.cmp(&b))
        });
        assert_eq!(
            generation.best, order[0],
            "generation {g}: best must head the (score, index) order"
        );
        let culled: Vec<usize> = members
            .iter()
            .filter(|m| m.culled)
            .map(|m| m.member)
            .collect();
        let last = g + 1 == options.generations;
        let mut expected: Vec<usize> = if last {
            Vec::new()
        } else {
            order[options.keep..].to_vec()
        };
        expected.sort_unstable();
        assert_eq!(
            culled, expected,
            "generation {g}: culled set must be the (score, index) order's tail"
        );
    }
    // Winner identity follows the same rule on the final generation.
    assert_eq!(explore.winner, explore.generations.last().unwrap().best);
}

#[test]
fn explore_one_degenerates_to_the_single_run_trace() {
    // `--explore 1` never culls, so its pause/resume segments must
    // stitch into exactly one uninterrupted run: the same trace and,
    // apart from the explore section, the same report as the plain flow
    // once that report's wall clock is zeroed and its width set to 1
    // (what every population report does).
    let design = explore_design();
    let config = explore_config();
    let options = PopulationOptions {
        members: 1,
        generations: 4,
        keep: 1,
        threads: 2,
    };
    let outcome = run_population(&design, &config, &options).expect("population runs");

    let mut reference_design = design.clone();
    let mut sink = VecSink::new();
    let mut reference = run_flow(
        &mut reference_design,
        GlobalPlacer::new(config),
        &mut sink,
        CheckpointOptions::none(),
    )
    .expect("reference run places");
    reference.zero_wall_clock();
    reference.threads = 1;

    assert_eq!(
        outcome.trace,
        sink.to_jsonl(),
        "K=1 must stitch to the uninterrupted trace"
    );
    let mut report = outcome.report;
    let explore = report
        .explore
        .take()
        .expect("population report carries lineage");
    assert_eq!(
        report.to_json_string(),
        reference.to_json_string(),
        "K=1 report must equal the plain run's"
    );
    assert_eq!(explore.winner, 0);
    assert_eq!(explore.winner_lineage, vec![0; 4]);
    assert!(explore.generations.iter().all(|g| g
        .members
        .iter()
        .all(|m| !m.culled && m.branched_from.is_none())));
}

#[test]
fn cli_explore_flags_map_onto_population_options() {
    // `--explore 4` with no satellite flags takes the documented
    // defaults (4 generations, keep = K/2), matching
    // `PopulationOptions::for_members`.
    let args: Vec<String> = ["--explore", "4"].iter().map(|s| s.to_string()).collect();
    let parsed = parse_explore_args(&args)
        .unwrap()
        .expect("explore requested");
    let defaults = PopulationOptions::for_members(4);
    assert_eq!(parsed.members, defaults.members);
    assert_eq!(parsed.generations, defaults.generations);
    assert_eq!(parsed.keep, defaults.keep);

    let args: Vec<String> = [
        "--explore",
        "8",
        "--explore-generations",
        "5",
        "--explore-keep",
        "3",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let parsed = parse_explore_args(&args).unwrap().unwrap();
    assert_eq!((parsed.members, parsed.generations, parsed.keep), (8, 5, 3));
}
