//! `perf` — the repo's one benchmark.
//!
//! Two closed-loop clients drive a two-shard deployment through one of
//! four workloads (three of them gated), an untraced pass measures the five
//! end-to-end metrics, a traced pass plus an isolated layer ledger fills the
//! per-layer metrics, and outsider checks (before and after crashing and
//! recovering every shard) decide whether any of it counts.  See
//! `README.md` beside this package for what each workload isolates and
//! which layer metric should move which end-to-end one.
//!
//! ```text
//! perf [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1] [--smoke]
//! ```
//!
//! The last line on stdout per workload is one JSON object with exactly
//! `correct`, `attempted`, `failed` and `metrics`; the same result with
//! host, commit and geometry goes to `<target dir>/perf/`.

mod checks;
mod client;
mod ledger;
mod run;
mod stats;
mod store;
mod workloads;

use run::{run_pass, PassOptions, PassReport};
use stats::{json_string, metrics_json, per_layer, result_line, Values, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, UNIX_EPOCH};
use workloads::{Spec, CLIENTS, SHARDS, WORKLOADS};

/// Measured seconds per pass; equals `run_seconds` in `BENCHMARK.json`,
/// which the benchmark driver passes as `--seconds`.
const DEFAULT_SECONDS: u64 = 30;
const WARMUP: Duration = Duration::from_secs(3);
/// Set-ups per untraced pass; `setup_s` is their median.
const SETUPS: usize = 3;
/// `--smoke`: windows for tests only, never comparable.
const SMOKE_SECONDS: u64 = 2;
const SMOKE_WARMUP: Duration = Duration::from_millis(500);
/// Same geometry, different mix: the stores must not be able to tell.
const OBLIVIOUS_TOLERANCE: f64 = 0.02;
const OBLIVIOUS_PAIR: [&str; 2] = ["ycsb_read_mem", "ycsb_rw50_mem"];
const OBLIVIOUS_METRICS: [&str; 2] = ["store_bytes_per_epoch", "storage.read_slot.calls_per_epoch"];

/// Which passes an invocation runs (`--trace`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `--trace 0`, the untraced pass: the end-to-end metrics.
    E2e,
    /// `--trace 1`, the traced pass and the ledger: the per-layer metrics.
    Traced,
    /// No `--trace`: `E2e` then `Traced`.
    All,
}

impl Mode {
    /// Name in the on-disk record's file name.
    fn name(self) -> &'static str {
        match self {
            Mode::E2e => "e2e",
            Mode::Traced => "traced",
            Mode::All => "all",
        }
    }
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    workloads: Vec<Spec>,
    seed: u64,
    seconds: u64,
    smoke: bool,
    break_check: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        mode: Mode::All,
        workloads: WORKLOADS.to_vec(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        smoke: false,
        break_check: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = Spec::by_name(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?;
                parsed.workloads = vec![spec];
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                parsed.mode = match value()? {
                    "0" => Mode::E2e,
                    "1" => Mode::Traced,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => parsed.smoke = true,
            "--break-check" => parsed.break_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Where build outputs go — `$CARGO_TARGET_DIR`, or the package's own
/// `target/` — and the benchmark writes nowhere else.
fn output_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    target.join("perf")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the repository `git` (a `.git` directory),
/// read without running git: `HEAD`, then the loose ref, then
/// `packed-refs`.  A checkout that is not a repository reads as "unknown".
fn commit_at(git: &Path) -> String {
    let read = |file: &str| std::fs::read_to_string(git.join(file)).unwrap_or_default();
    let head = read("HEAD");
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => {
            let loose = read(reference).trim().to_string();
            if loose.is_empty() {
                let packed = read("packed-refs");
                let line = packed.lines().find_map(|l| l.strip_suffix(reference));
                line.map_or(String::new(), |hash| hash.trim().to_string())
            } else {
                loose
            }
        }
        None => head.to_string(),
    };
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash
    }
}

/// The commit of the repository this package was built in.
fn commit() -> String {
    commit_at(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../.git"))
}

/// Names this executable, so that a record is compared only with records
/// the same build wrote; "unknown" where the executable cannot be read.
fn build_id() -> String {
    let identify = || {
        let meta = std::fs::metadata(std::env::current_exe().ok()?).ok()?;
        let built = meta.modified().ok()?.duration_since(UNIX_EPOCH).ok()?;
        Some(format!("{}-{}", meta.len(), built.as_nanos()))
    };
    identify().unwrap_or_else(|| "unknown".into())
}

/// Everything one workload produced in this invocation.
#[derive(Default)]
struct Outcome {
    values: Values,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    latency_samples: usize,
}

impl Outcome {
    fn absorb(&mut self, report: PassReport) {
        self.values.extend(report.values);
        self.attempted += report.attempted;
        self.failed += report.failed;
        self.violations.extend(report.violations);
        self.latency_samples = self.latency_samples.max(report.latency_samples);
    }
}

fn run_workload(spec: &Spec, args: &Args, out: &Path) -> obladi_common::error::Result<Outcome> {
    let (window, warmup, setups) = if args.smoke {
        (Duration::from_secs(SMOKE_SECONDS), SMOKE_WARMUP, 1)
    } else {
        (Duration::from_secs(args.seconds), WARMUP, SETUPS)
    };
    let pass = |traced: bool| PassOptions {
        seed: args.seed,
        window,
        warmup,
        traced,
        // One set-up is enough where `setup_s` is not reported.
        setups: if traced { 1 } else { setups },
        break_check: args.break_check,
    };
    let mut outcome = Outcome::default();
    if matches!(args.mode, Mode::E2e | Mode::All) {
        outcome.absorb(run_pass(spec, &pass(false))?);
    }
    if matches!(args.mode, Mode::Traced | Mode::All) {
        let mut report = run_pass(spec, &pass(true))?;
        let spans = std::mem::take(&mut report.spans);
        let trace_path = out.join(format!("trace_{}.json", spec.name));
        if let Err(err) = std::fs::write(&trace_path, client::spans_json(&spans)) {
            eprintln!("perf: could not write {}: {err}", trace_path.display());
        }
        outcome.absorb(report);
    }
    if matches!(args.mode, Mode::Traced | Mode::All) {
        outcome.values.extend(ledger::run(spec, out)?);
        let predicted = ledger::predicted_epoch_ms(spec, &outcome.values);
        outcome
            .values
            .insert("ledger.predicted_epoch_ms".into(), predicted);
        if let Some(measured) = outcome.values.get("shard.epoch_period_ms").copied() {
            outcome.values.insert(
                "ledger.unexplained_share".into(),
                1.0 - predicted / measured,
            );
        }
    }
    Ok(outcome)
}

/// The metric table an invocation in `mode` prints.
fn table_for(mode: Mode) -> Vec<(String, &'static str)> {
    let end_to_end = END_TO_END.iter().map(|(n, u)| (n.to_string(), *u));
    match mode {
        Mode::E2e => end_to_end.collect(),
        Mode::Traced => per_layer(),
        Mode::All => end_to_end.chain(per_layer()).collect(),
    }
}

/// The full record written beside the build outputs.
fn record_json(spec: &Spec, args: &Args, outcome: &Outcome, metrics: &str, cores: usize) -> String {
    let config = spec.shard_config();
    let (oram, epoch) = (config.shard.oram, config.shard.epoch);
    let violations: Vec<String> = outcome.violations.iter().map(|v| json_string(v)).collect();
    let host = |name: &str| outcome.values.get(name).copied().unwrap_or(0.0);
    format!(
        "{{\n  \"bench\": \"perf\",\n  \"workload\": {},\n  \"why\": {},\n  \"gated\": {},\n  \"mode\": {},\n  \
         \"smoke\": {},\n  \"comparable\": {},\n  \"seed\": {},\n  \"measured_seconds\": {},\n  \
         \"host\": {{\"nproc\": {cores}, \"cpu\": {}, \"cpu_ms_per_commit\": {}, \"probe_us_p50\": {}}},\n  \
         \"commit\": {},\n  \"build\": {},\n  \
         \"deployment\": {{\"shards\": {SHARDS}, \"clients\": {CLIENTS}, \"storage\": {}, \
         \"pipeline_depth\": {}, \"durability\": {}, \"checkpoint_every\": {}, \
         \"executor_threads\": {}, \"batch_interval_ms\": {}, \"objects_per_shard\": {}, \
         \"block_size\": {}, \"z\": {}, \"s\": {}, \"a\": {}, \"levels\": {}, \
         \"read_batches\": {}, \"read_batch_size\": {}, \"write_batch_size\": {}}},\n  \
         \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"latency_samples\": {},\n  \"violations\": [{}],\n  \"metrics\": {metrics}\n}}\n",
        json_string(spec.name),
        json_string(spec.why),
        spec.gated,
        json_string(args.mode.name()),
        args.smoke,
        !args.smoke && !args.break_check,
        args.seed,
        if args.smoke {
            SMOKE_SECONDS
        } else {
            args.seconds
        },
        json_string(&cpu_model()),
        host("host.cpu_ms_per_commit"),
        host("host.probe_us_p50"),
        json_string(&commit()),
        json_string(&build_id()),
        json_string(&format!("{:?}", spec.storage).to_lowercase()),
        epoch.pipeline_depth,
        epoch.durability,
        epoch.checkpoint_every,
        epoch.executor_threads,
        epoch.batch_interval.as_secs_f64() * 1_000.0,
        oram.num_objects,
        oram.block_size,
        oram.z,
        oram.s,
        oram.a,
        oram.levels,
        epoch.read_batches,
        epoch.read_batch_size,
        epoch.write_batch_size,
        outcome.violations.is_empty(),
        outcome.attempted,
        outcome.failed,
        outcome.latency_samples,
        violations.join(", "),
    )
}

/// `metric` of `workload` as an earlier invocation of this same build
/// recorded it under `out`, if one did and its run was comparable.
fn recorded_value(out: &Path, workload: &str, metric: &str) -> Option<f64> {
    let build = format!("\"build\": {}", json_string(&build_id()));
    [Mode::E2e, Mode::Traced, Mode::All]
        .iter()
        .find_map(|mode| {
            let path = out.join(format!("perf_{workload}_{}.json", mode.name()));
            let record = std::fs::read_to_string(path).ok()?;
            if !record.contains(&build) || !record.contains("\"comparable\": true") {
                return None;
            }
            let rest = record
                .split_once(&format!("\"{metric}\": {{\"value\": "))?
                .1;
            rest[..rest.find([',', '}'])?].trim().parse().ok()
        })
}

/// The obliviousness tripwire.  `ycsb_read_mem` and `ycsb_rw50_mem` share a
/// geometry and differ in mix, so the stores must not be able to tell them
/// apart.  Each of the two is compared with the other as measured by this
/// invocation or, when it ran alone, as recorded under `out` by an earlier
/// invocation of the same build.  Violations land on the workloads compared.
fn obliviousness_tripwire(outcomes: &mut [(Spec, Outcome)], out: &Path) {
    for (mine, peer) in [(0, 1), (1, 0)].map(|(a, b)| (OBLIVIOUS_PAIR[a], OBLIVIOUS_PAIR[b])) {
        let Some(at) = outcomes.iter().position(|(spec, _)| spec.name == mine) else {
            continue;
        };
        let mut compared = 0;
        for metric in OBLIVIOUS_METRICS {
            let measured = |name: &str| {
                let (_, outcome) = outcomes.iter().find(|(spec, _)| spec.name == name)?;
                outcome.values.get(metric).copied()
            };
            let (Some(here), Some(there)) = (
                measured(mine),
                measured(peer).or_else(|| recorded_value(out, peer, metric)),
            ) else {
                continue;
            };
            compared += 1;
            if (here - there).abs() > OBLIVIOUS_TOLERANCE * here.max(there) {
                outcomes[at].1.violations.push(format!(
                    "{metric} tells the mixes apart: {here} under {mine}, {there} under {peer}"
                ));
            }
        }
        if compared == 0 {
            eprintln!(
                "perf: obliviousness tripwire SKIPPED for {mine}: no comparable {peer} run by \
                 this build in this invocation or under {}",
                out.display()
            );
        } else {
            eprintln!("perf: obliviousness tripwire held {mine} against {peer}");
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perf: {message}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < CLIENTS {
        eprintln!("perf: {cores} core(s); the load shape needs one per client ({CLIENTS})");
        return ExitCode::from(2);
    }
    let out = output_dir();
    if let Err(err) = std::fs::create_dir_all(&out) {
        eprintln!("perf: cannot create {}: {err}", out.display());
        return ExitCode::from(2);
    }
    if args.smoke {
        eprintln!("perf: SMOKE run — {SMOKE_SECONDS} s windows, not comparable with anything");
    }

    let table = table_for(args.mode);
    let mut outcomes: Vec<(Spec, Outcome)> = Vec::new();
    for spec in &args.workloads {
        eprintln!("perf: {} ({:?}, seed {})", spec.name, args.mode, args.seed);
        match run_workload(spec, &args, &out) {
            Ok(outcome) => outcomes.push((*spec, outcome)),
            Err(err) => {
                eprintln!("perf: {} did not run to its end: {err}", spec.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if !args.smoke && !args.break_check {
        obliviousness_tripwire(&mut outcomes, &out);
    }
    let mut correct = true;
    for (spec, outcome) in &outcomes {
        for violation in &outcome.violations {
            eprintln!("perf: VIOLATION {}: {violation}", spec.name);
        }
        for (name, unit) in &table {
            if let Some(value) = outcome.values.get(name) {
                eprintln!(
                    "  {:<40} {value:>16.4} {unit}",
                    format!("{}:{name}", spec.name)
                );
            }
        }
        let metrics = metrics_json(&table, &outcome.values);
        let path = out.join(format!("perf_{}_{}.json", spec.name, args.mode.name()));
        let record = record_json(spec, &args, outcome, &metrics, cores);
        if let Err(err) = std::fs::write(&path, record) {
            eprintln!("perf: could not write {}: {err}", path.display());
        }
        correct &= outcome.violations.is_empty();
        println!(
            "{}",
            result_line(
                outcome.violations.is_empty(),
                outcome.attempted,
                outcome.failed,
                &metrics
            )
        );
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_select_one_workload_and_pass() {
        let parsed = args(&[
            "--workload",
            "tpcc_mem",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.mode, Mode::Traced);
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.workloads.len(), 1);
        assert_eq!(parsed.workloads[0].name, "tpcc_mem");
        assert_eq!(args(&["--trace", "0"]).unwrap().mode, Mode::E2e);
        assert_eq!(args(&[]).unwrap().workloads.len(), WORKLOADS.len());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn commit_is_found_loose_packed_or_detached() {
        let git = output_dir().join("test_git");
        let _ = std::fs::remove_dir_all(&git);
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        assert_eq!(commit_at(&git), "unknown");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        assert_eq!(commit_at(&git), "unknown");
        std::fs::write(
            git.join("packed-refs"),
            "# pack-refs with: peeled\nbbbb refs/heads/other\naaaa refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(commit_at(&git), "aaaa");
        std::fs::write(git.join("refs/heads/main"), "cccc\n").unwrap();
        assert_eq!(commit_at(&git), "cccc");
        std::fs::write(git.join("HEAD"), "dddd\n").unwrap();
        assert_eq!(commit_at(&git), "dddd");
    }

    /// A workload that ran alone is held against its pair's record, but only
    /// one this build wrote from a comparable run.
    #[test]
    fn tripwire_reads_the_pair_from_this_builds_records() {
        let out = output_dir().join("test_tripwire");
        let _ = std::fs::remove_dir_all(&out);
        std::fs::create_dir_all(&out).unwrap();
        let alone = |bytes: f64| {
            let mut outcome = Outcome::default();
            outcome.values.insert("store_bytes_per_epoch".into(), bytes);
            let mut outcomes = [(Spec::by_name("ycsb_read_mem").unwrap(), outcome)];
            obliviousness_tripwire(&mut outcomes, &out);
            outcomes[0].1.violations.len()
        };
        assert_eq!(alone(1_000.0), 0, "nothing to compare with");
        let record = |build: &str, comparable: bool| {
            format!(
                "{{\"comparable\": {comparable}, \"build\": {}, \"metrics\": \
                 {{\"store_bytes_per_epoch\": {{\"value\": 1000.5, \"unit\": \"B\"}}}}}}",
                json_string(build)
            )
        };
        let path = out.join("perf_ycsb_rw50_mem_e2e.json");
        std::fs::write(&path, record(&build_id(), true)).unwrap();
        assert_eq!(
            recorded_value(&out, "ycsb_rw50_mem", "store_bytes_per_epoch"),
            Some(1000.5)
        );
        assert_eq!(alone(1_000.0), 0);
        assert_eq!(alone(1_100.0), 1);
        std::fs::write(&path, record("another build", true)).unwrap();
        assert_eq!(alone(1_100.0), 0);
        std::fs::write(&path, record(&build_id(), false)).unwrap();
        assert_eq!(alone(1_100.0), 0);
    }

    /// Every `"<key>": "<text>"` value in a JSON document, by key.
    fn string_values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let needle = format!("\"{key}\":");
        json.match_indices(&needle)
            .filter_map(|(at, _)| {
                let rest = json[at + needle.len()..].trim_start().strip_prefix('"')?;
                Some(&rest[..rest.find('"')?])
            })
            .collect()
    }

    /// `BENCHMARK.json` and the tables in `stats.rs` name the same
    /// workloads and metrics, with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let json = include_str!("../../../../../../BENCHMARK.json");
        let section = |from: &str, to: &str| {
            let start = json.find(from).expect(from);
            let end = json[start..].find(to).map_or(json.len(), |at| start + at);
            &json[start..end]
        };
        let workloads = section("\"workloads\"", "\"end_to_end\"");
        let end_to_end = section("\"end_to_end\"", "\"per_layer\"");
        let layers = section("\"per_layer\"", "\u{0}");
        let gated = || WORKLOADS.iter().filter(|w| w.gated);
        let names: Vec<&str> = gated().map(|w| w.name).collect();
        assert_eq!(string_values(workloads, "name"), names);
        let whys: Vec<&str> = gated().map(|w| w.why).collect();
        assert_eq!(string_values(workloads, "why"), whys);
        assert!(whys.iter().all(|why| !why.is_empty() && why.len() <= 200));
        let pairs = |part: &'static str| -> Vec<(String, String)> {
            string_values(part, "name")
                .into_iter()
                .zip(string_values(part, "unit"))
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let expect = |table: Vec<(String, &str)>| -> Vec<(String, String)> {
            table.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(pairs(end_to_end), expect(table_for(Mode::E2e)));
        assert_eq!(pairs(layers), expect(per_layer()));
        assert_eq!(
            string_values(json, "run_seconds").len(),
            0,
            "run_seconds is a number"
        );
        assert!(json.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }

    /// A smoke run of `ycsb_rw50_mem`, both passes and the ledger: its
    /// checks pass, its output carries every metric name, and the same run
    /// with one corrupted expectation is caught.
    #[test]
    fn smoke_run_passes_its_checks_and_prints_every_metric() {
        let out = output_dir().join("test_smoke");
        std::fs::create_dir_all(&out).unwrap();
        let spec = Spec::by_name("ycsb_rw50_mem").unwrap();
        let mut smoke = args(&["--smoke"]).unwrap();
        assert_eq!(smoke.mode, Mode::All);
        let outcome = run_workload(&spec, &smoke, &out).unwrap();
        assert_eq!(outcome.violations, Vec::<String>::new());
        assert!(outcome.attempted > 0 && outcome.failed == 0);
        let table = table_for(Mode::All);
        let line = result_line(
            true,
            outcome.attempted,
            outcome.failed,
            &metrics_json(&table, &outcome.values),
        );
        for (name, unit) in &table {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        for name in END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .chain(["shard.epochs", "oram.flush_us"])
        {
            assert!(outcome.values[name] > 0.0, "{name}");
        }
        let record = record_json(&spec, &smoke, &outcome, "{}", 2);
        assert!(record.contains("\"smoke\": true") && record.contains("\"comparable\": false"));
        assert!(out.join("trace_ycsb_rw50_mem.json").exists());

        smoke.break_check = true;
        smoke.mode = Mode::E2e;
        let broken = run_workload(&spec, &smoke, &out).unwrap();
        assert!(!broken.violations.is_empty());
    }
}
