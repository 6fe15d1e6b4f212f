//! CLI entry point: regenerate any figure of the paper.
//!
//! ```text
//! experiments <figure> [--full] [--threads N] [--shards N] [--seed N] [--trace-events PATH] [--reconcile-json PATH] [--metrics-out PATH] [--progress]
//! experiments all [--full] [--threads N] [--shards N] [--seed N] [--trace-events PATH] [--reconcile-json PATH] [--metrics-out PATH] [--progress]
//! ```
//!
//! The command line is validated before any figure runs: an unknown
//! flag, an unknown figure, a flag that none of the named figures
//! honours (`all` honours every flag), or an output path that cannot be
//! written exits 2 with a one-line reason.
//!
//! `--threads N` pins the Monte-Carlo worker count (default:
//! auto-detect); output tables are bit-identical for every `N`.
//! `--shards N` fans the receive and age phases of each simulation out
//! over N tile ranges on scoped threads inside a trial (default 1 =
//! none, 0 = auto-detect); tables are bit-identical for every `N` here
//! too. Honoured by the figures that build the engine themselves:
//! `fig3-3`, `fig4-6`, `fig5-3`, `ablations`, `grid-spread`, `hostile`,
//! `mega-grid`.
//! `--seed N` re-roots every figure's trial-seed derivation (default 0).
//! `--trace-events PATH` streams a JSONL event log of one representative
//! trial to PATH (`fig3-3` and `hostile`); it composes with
//! `--metrics-out` — the traced trial runs once, feeding both sinks.
//! `--reconcile-json PATH` writes the CounterSink-vs-report
//! reconciliation summary to PATH (`hostile`).
//! `--metrics-out PATH` turns on the wall-clock observability plane: a
//! metrics snapshot (engine-phase spans, per-trial timings, throughput)
//! is written to PATH as JSON and to PATH.prom as Prometheus text when
//! all figures finish. Tables and digests are byte-identical either way.
//! `--checkpoint-every N` (with optional `--checkpoint-dir PATH`,
//! default `.`) writes a resumable engine checkpoint every N rounds of
//! each `mega-grid` simulation, as
//! `<dir>/mega-grid-<side>-<regime>-round-<R>.ckpt`.
//! `--resume PATH` restores the `mega-grid` simulation whose
//! configuration digest matches the checkpoint at PATH and continues it
//! from the captured round; non-matching configurations rerun from
//! round 0, and the tables are byte-identical either way. A PATH that
//! cannot be read or does not decode is rejected with exit 2 before any
//! figure runs.
//! `--progress` emits throttled JSONL heartbeats on stderr while sweeps
//! run (trials done/total, trials/sec, ETA).

#![forbid(unsafe_code)]

use noc_experiments::{
    ablations, error_models, fig3_1, fig3_3, fig4_10, fig4_11, fig4_4, fig4_5, fig4_6, fig4_8,
    fig4_9, fig5_3, grid_spread, hostile, mega_grid, runner, Scale,
};

const FIGURES: &[&str] = &[
    "fig3-1",
    "fig3-3",
    "fig4-4",
    "fig4-5",
    "fig4-6",
    "fig4-8",
    "fig4-9",
    "fig4-10",
    "fig4-11",
    "fig5-3",
    "error-models",
    "ablations",
    "grid-spread",
    "hostile",
    "mega-grid",
];

/// Runs and prints one figure of [`FIGURES`].
fn run_figure(name: &str, scale: Scale) {
    match name {
        "fig3-1" => fig3_1::print(&fig3_1::run(scale)),
        "fig3-3" => fig3_3::print(&fig3_3::run(scale)),
        "fig4-4" => fig4_4::print(&fig4_4::run(scale)),
        "fig4-5" => fig4_5::print(&fig4_5::run(scale)),
        "fig4-6" => fig4_6::print(&fig4_6::run(scale)),
        "fig4-8" => fig4_8::print(&fig4_8::run(scale)),
        "fig4-9" => fig4_9::print(&fig4_9::run(scale)),
        "fig4-10" => fig4_10::print(&fig4_10::run(scale)),
        "fig4-11" => fig4_11::print(&fig4_11::run(scale)),
        "fig5-3" => fig5_3::print(&fig5_3::run(scale)),
        "error-models" => error_models::print(&error_models::run(scale)),
        "ablations" => ablations::print(&ablations::run(scale)),
        "grid-spread" => grid_spread::print(&grid_spread::run(scale)),
        "hostile" => hostile::print(&hostile::run(scale)),
        "mega-grid" => mega_grid::print(&mega_grid::run(scale)),
        _ => unreachable!("targets_of admits only FIGURES, and `{name}` is not one"),
    }
}

/// Summarises the runner reports a figure deposited while it ran, as
/// one `figure_done` JSONL line — the same machine-readable framing as
/// `--progress` heartbeats.
///
/// Goes to stderr so the tables on stdout stay byte-identical across
/// thread counts.
fn print_runner_summary(name: &str) {
    let reports = runner::take_reports();
    if reports.is_empty() {
        return;
    }
    let trials: u64 = reports.iter().map(|r| r.trials).sum();
    let elapsed: std::time::Duration = reports.iter().map(|r| r.elapsed).sum();
    let workers = reports.iter().map(|r| r.workers).max().unwrap_or(1);
    let secs = elapsed.as_secs_f64();
    let trials_per_sec = if secs > 0.0 {
        trials as f64 / secs
    } else {
        0.0
    };
    eprintln!(
        "{{\"event\":\"figure_done\",\"figure\":\"{name}\",\"sweeps\":{},\"trials\":{trials},\"workers\":{workers},\"elapsed_secs\":{secs:.3},\"trials_per_sec\":{trials_per_sec:.2}}}",
        reports.len(),
    );
}

/// Writes the wall-clock metrics snapshot to `path` (JSON) and
/// `path.prom` (Prometheus text exposition).
fn write_metrics_snapshot(metrics: &noc_obs::Metrics, path: &str) {
    let snapshot = metrics.snapshot();
    let prom_path = format!("{path}.prom");
    if let Err(err) = std::fs::write(path, snapshot.to_json()) {
        runner::output_failed("--metrics-out", path, &err);
    }
    if let Err(err) = std::fs::write(&prom_path, snapshot.to_prometheus()) {
        runner::output_failed("--metrics-out", &prom_path, &err);
    }
    eprintln!(
        "{{\"event\":\"metrics_written\",\"json\":\"{}\",\"prometheus\":\"{}\"}}",
        noc_obs::json_escape(path),
        noc_obs::json_escape(&prom_path),
    );
}

/// Every flag: its name, whether a value follows it, and the figures
/// that honour it (`None`: every figure does).
type Flag = (&'static str, bool, Option<&'static [&'static str]>);

const FLAGS: &[Flag] = &[
    ("--full", false, None),
    ("--progress", false, None),
    ("--threads", true, None),
    ("--seed", true, None),
    ("--metrics-out", true, None),
    (
        "--shards",
        true,
        Some(&[
            "fig3-3",
            "fig4-6",
            "fig5-3",
            "ablations",
            "grid-spread",
            "hostile",
            "mega-grid",
        ]),
    ),
    ("--trace-events", true, Some(&["fig3-3", "hostile"])),
    ("--reconcile-json", true, Some(&["hostile"])),
    ("--checkpoint-every", true, Some(&["mega-grid"])),
    ("--checkpoint-dir", true, Some(&["mega-grid"])),
    ("--resume", true, Some(&["mega-grid"])),
];

/// Opens `path` for writing, creating it empty if it is absent and
/// leaving its contents alone if it is not: what a later
/// `File::create` needs, tried now.
fn creatable(path: &str) -> std::io::Result<()> {
    let mut options = std::fs::OpenOptions::new();
    options.create(true).append(true).open(path).map(drop)
}

/// Splits `args` into the figure targets, or gives the one-line reason
/// the command line is rejected: an unknown flag, a flag missing its
/// value, an unknown figure, a flag that none of the named figures
/// honours (`all` honours every flag), or an output path that cannot
/// be written — a file that cannot be created, a checkpoint directory
/// that neither exists nor can be made. Runs before any figure does, so
/// a typo never costs a run at the wrong scale, or its results.
fn targets_of(args: &[String]) -> Result<Vec<&str>, String> {
    let mut targets = Vec::new();
    let mut given: Vec<(&Flag, &str)> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            targets.push(arg.as_str());
            continue;
        }
        let Some(flag @ &(_, takes_value, _)) = FLAGS.iter().find(|(name, ..)| name == arg) else {
            return Err(format!("unknown flag '{arg}'"));
        };
        let value = if takes_value {
            let value = rest.next();
            value.ok_or_else(|| format!("{arg} requires a value"))?
        } else {
            ""
        };
        given.push((flag, value));
    }
    if targets == ["help"] {
        return Ok(targets);
    }
    if let Some(name) = targets
        .iter()
        .find(|t| **t != "all" && !FIGURES.contains(t))
    {
        return Err(format!(
            "unknown figure '{name}'; known: {}",
            FIGURES.join(", ")
        ));
    }
    if !targets.is_empty() && !targets.contains(&"all") {
        for &(&(name, _, honoured_by), _) in &given {
            let Some(figures) = honoured_by else {
                continue;
            };
            if !targets.iter().any(|t| figures.contains(t)) {
                return Err(format!(
                    "{name} is honoured only by {}; {} would ignore it",
                    figures.join(", "),
                    targets.join(", "),
                ));
            }
        }
    }
    for (&(name, ..), path) in given {
        let checked = match name {
            "--trace-events" | "--reconcile-json" => creatable(path),
            "--metrics-out" => creatable(path).and_then(|()| creatable(&format!("{path}.prom"))),
            "--checkpoint-dir" => std::fs::create_dir_all(path),
            _ => continue,
        };
        checked.map_err(|err| format!("{name} {path}: {err}"))?;
    }
    Ok(targets)
}

fn parse_flag(args: &[String], flag: &str) -> Option<u64> {
    let value = parse_string_flag(args, flag)?;
    Some(value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} requires an unsigned integer, got '{value}'");
        std::process::exit(2);
    }))
}

/// The value after the first occurrence of `flag` ([`targets_of`] has
/// checked that one follows).
fn parse_string_flag(args: &[String], flag: &str) -> Option<String> {
    let position = args.iter().position(|a| a == flag)?;
    args.get(position + 1).cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let targets = targets_of(&args).unwrap_or_else(|reason| {
        eprintln!("{reason}");
        std::process::exit(2);
    });
    if targets.is_empty() || targets == ["help"] {
        eprintln!(
            "usage: experiments <figure>|all [--full] [--threads N] [--shards N] [--seed N] [--trace-events PATH] [--reconcile-json PATH] [--metrics-out PATH] [--checkpoint-every N] [--checkpoint-dir PATH] [--resume PATH] [--progress]"
        );
        eprintln!("figures: {}", FIGURES.join(", "));
        std::process::exit(if targets.is_empty() { 2 } else { 0 });
    }

    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    if let Some(threads) = parse_flag(&args, "--threads") {
        runner::set_default_threads(usize::try_from(threads).unwrap_or(usize::MAX));
    }
    if let Some(shards) = parse_flag(&args, "--shards") {
        runner::set_default_shards(usize::try_from(shards).unwrap_or(usize::MAX));
    }
    if let Some(seed) = parse_flag(&args, "--seed") {
        runner::set_base_seed(seed);
    }
    runner::set_trace_path(parse_string_flag(&args, "--trace-events"));
    runner::set_reconcile_json_path(parse_string_flag(&args, "--reconcile-json"));
    if let Some(every) = parse_flag(&args, "--checkpoint-every") {
        runner::set_checkpoint_every(every);
    }
    runner::set_checkpoint_dir(parse_string_flag(&args, "--checkpoint-dir"));
    // A digest that matches none of the configurations is not an error
    // (that is how one file addresses one row); a file that is no
    // checkpoint at all would resume nothing and is.
    let resume = parse_string_flag(&args, "--resume");
    if let Err(err) = runner::set_resume_path(resume.clone()) {
        eprintln!("--resume {}: {err}", resume.unwrap_or_default());
        std::process::exit(2);
    }
    let metrics_out = parse_string_flag(&args, "--metrics-out");
    let metrics = metrics_out.as_ref().map(|_| {
        let metrics = std::sync::Arc::new(noc_obs::Metrics::new());
        runner::install_metrics(Some(std::sync::Arc::clone(&metrics)));
        metrics
    });
    runner::set_progress(args.iter().any(|a| a == "--progress"));

    let list: Vec<&str> = if targets.contains(&"all") {
        FIGURES.to_vec()
    } else {
        targets
    };
    for name in list {
        run_figure(name, scale);
        print_runner_summary(name);
    }

    if let (Some(metrics), Some(path)) = (metrics, metrics_out) {
        write_metrics_snapshot(&metrics, &path);
    }
}
