//! CLI entry point: regenerate any figure of the paper.
//!
//! ```text
//! experiments <figure> [--full] [--threads N] [--seed N] [--trace-events PATH] [--reconcile-json PATH] [--metrics-out PATH] [--progress]
//! experiments all [--full] [--threads N] [--seed N] [--trace-events PATH] [--reconcile-json PATH] [--metrics-out PATH] [--progress]
//! ```
//!
//! The command line is read once, before any figure runs: an unknown
//! flag, a flag given twice or without its value, a number that is not
//! one, an unknown figure, a flag that none of the named figures honours
//! (`all` honours every flag), or an output path that cannot be written
//! exits 2 with a one-line reason.
//!
//! `--threads N` pins the Monte-Carlo worker count (default:
//! auto-detect); output tables are bit-identical for every `N`.
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

use noc_experiments::{
    ablations, error_models, fig3_1, fig3_3, fig4_10, fig4_11, fig4_4, fig4_5, fig4_6, fig4_8,
    fig4_9, fig5_3, grid_spread, hostile, mega_grid, runner, Scale,
};
use stochastic_noc::Checkpoint;

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

/// Runs and prints one figure of [`FIGURES`], handing `fig3-3`,
/// `hostile` and `mega-grid` what their flags ask of them.
fn run_figure(
    name: &str,
    scale: Scale,
    trace: Option<&str>,
    reconcile_json: Option<&str>,
    checkpoints: &mega_grid::Checkpoints,
) {
    match name {
        "fig3-1" => fig3_1::print(&fig3_1::run(scale)),
        "fig3-3" => fig3_3::print(&fig3_3::run(scale, trace)),
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
        "hostile" => hostile::print(&hostile::run(scale, trace, reconcile_json)),
        "mega-grid" => mega_grid::print(&mega_grid::run(scale, checkpoints)),
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

/// What follows a flag on the command line.
#[derive(Clone, Copy, PartialEq)]
enum Takes {
    Nothing,
    Number,
    Path,
}

/// Every flag: its name, what follows it, and the figures that honour
/// it (`None`: every figure does).
type Flag = (&'static str, Takes, Option<&'static [&'static str]>);

const FLAGS: &[Flag] = &[
    ("--full", Takes::Nothing, None),
    ("--progress", Takes::Nothing, None),
    ("--threads", Takes::Number, None),
    ("--seed", Takes::Number, None),
    ("--metrics-out", Takes::Path, None),
    ("--trace-events", Takes::Path, Some(&["fig3-3", "hostile"])),
    ("--reconcile-json", Takes::Path, Some(&["hostile"])),
    ("--checkpoint-every", Takes::Number, Some(&["mega-grid"])),
    ("--checkpoint-dir", Takes::Path, Some(&["mega-grid"])),
    ("--resume", Takes::Path, Some(&["mega-grid"])),
];

/// A flag's value, read.
#[derive(Clone, Copy)]
enum Value<'a> {
    Set,
    Number(u64),
    Path(&'a str),
}

/// A command line, read once: the figure targets and each flag given
/// with its value.
struct Command<'a> {
    targets: Vec<&'a str>,
    given: Vec<(&'static Flag, Value<'a>)>,
}

impl<'a> Command<'a> {
    fn value(&self, flag: &str) -> Option<Value<'a>> {
        let given = self.given.iter().find(|((name, ..), _)| *name == flag);
        given.map(|&(_, value)| value)
    }

    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    fn number(&self, flag: &str) -> Option<u64> {
        match self.value(flag)? {
            Value::Number(n) => Some(n),
            _ => None,
        }
    }

    fn path(&self, flag: &str) -> Option<&'a str> {
        match self.value(flag)? {
            Value::Path(path) => Some(path),
            _ => None,
        }
    }
}

/// Opens `path` for writing, creating it empty if it is absent and
/// leaving its contents alone if it is not: what a later
/// `File::create` needs, tried now.
fn creatable(path: &str) -> std::io::Result<()> {
    let mut options = std::fs::OpenOptions::new();
    options.create(true).append(true).open(path).map(drop)
}

/// The value that `takes` says follows the flag `name`, read off `rest`.
fn value_of<'a>(
    name: &str,
    takes: Takes,
    rest: &mut std::slice::Iter<'a, String>,
) -> Result<Value<'a>, String> {
    if takes == Takes::Nothing {
        return Ok(Value::Set);
    }
    let is_flag = |value: &&String| FLAGS.iter().any(|(name, ..)| name == *value);
    let value = rest.next().filter(|value| !is_flag(value));
    let value = value.ok_or_else(|| format!("{name} requires a value"))?;
    if takes == Takes::Path {
        return Ok(Value::Path(value));
    }
    match value.parse() {
        Ok(number) => Ok(Value::Number(number)),
        Err(_) => Err(format!(
            "{name} requires an unsigned integer, got '{value}'"
        )),
    }
}

/// Reads `args` into the command they spell, or gives the one-line
/// reason the command line is rejected: an unknown flag, a flag given
/// twice, a flag missing its value (another flag's name is not one), a
/// number that is not an unsigned integer, an unknown figure, a flag
/// that none of the named figures honours (`all` honours every flag), or
/// an output path that cannot be written — a file that cannot be
/// created, a checkpoint directory that neither exists nor can be made.
/// Runs before any figure does, so a typo never costs a run at the wrong
/// scale, or its results; the paths are tried last, so a rejected
/// command line creates nothing.
fn targets_of(args: &[String]) -> Result<Command<'_>, String> {
    let mut command = Command {
        targets: Vec::new(),
        given: Vec::new(),
    };
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            command.targets.push(arg.as_str());
            continue;
        }
        let Some(flag @ &(name, takes, _)) = FLAGS.iter().find(|(name, ..)| name == arg) else {
            return Err(format!("unknown flag '{arg}'"));
        };
        if command.has(name) {
            return Err(format!("{name} is given twice"));
        }
        let value = value_of(name, takes, &mut rest)?;
        command.given.push((flag, value));
    }
    let targets = &command.targets;
    if *targets == ["help"] {
        return Ok(command);
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
        for &(&(name, _, honoured_by), _) in &command.given {
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
    for &(&(name, ..), value) in &command.given {
        let Value::Path(path) = value else {
            continue;
        };
        let checked = match name {
            "--trace-events" | "--reconcile-json" => creatable(path),
            "--metrics-out" => creatable(path).and_then(|()| creatable(&format!("{path}.prom"))),
            "--checkpoint-dir" => std::fs::create_dir_all(path),
            _ => continue,
        };
        checked.map_err(|err| format!("{name} {path}: {err}"))?;
    }
    Ok(command)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = targets_of(&args).unwrap_or_else(|reason| {
        eprintln!("{reason}");
        std::process::exit(2);
    });
    let targets = &command.targets;
    if targets.is_empty() || *targets == ["help"] {
        eprintln!(
            "usage: experiments <figure>|all [--full] [--threads N] [--seed N] [--trace-events PATH] [--reconcile-json PATH] [--metrics-out PATH] [--checkpoint-every N] [--checkpoint-dir PATH] [--resume PATH] [--progress]"
        );
        eprintln!("figures: {}", FIGURES.join(", "));
        std::process::exit(if targets.is_empty() { 2 } else { 0 });
    }

    let scale = if command.has("--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    if let Some(threads) = command.number("--threads") {
        runner::set_default_threads(usize::try_from(threads).unwrap_or(usize::MAX));
    }
    if let Some(seed) = command.number("--seed") {
        runner::set_base_seed(seed);
    }
    let trace = command.path("--trace-events");
    let reconcile_json = command.path("--reconcile-json");
    // A digest that matches none of the configurations is not an error
    // (that is how one file addresses one row); a file that is no
    // checkpoint at all would resume nothing and is.
    let resume = command
        .path("--resume")
        .map(|path| match Checkpoint::load(path) {
            Ok(checkpoint) => (path.to_string(), checkpoint),
            Err(err) => {
                eprintln!("--resume {path}: {err}");
                std::process::exit(2);
            }
        });
    let checkpoints = mega_grid::Checkpoints {
        every: command.number("--checkpoint-every").unwrap_or(0),
        dir: command.path("--checkpoint-dir").map(str::to_string),
        resume,
    };
    let metrics_out = command.path("--metrics-out");
    let metrics = metrics_out.map(|_| {
        let metrics = std::sync::Arc::new(noc_obs::Metrics::new());
        runner::install_metrics(Some(std::sync::Arc::clone(&metrics)));
        metrics
    });
    runner::set_progress(command.has("--progress"));

    let list: &[&str] = if targets.contains(&"all") {
        FIGURES
    } else {
        targets
    };
    for name in list {
        run_figure(name, scale, trace, reconcile_json, &checkpoints);
        print_runner_summary(name);
    }

    if let (Some(metrics), Some(path)) = (metrics, metrics_out) {
        write_metrics_snapshot(&metrics, path);
    }
}
