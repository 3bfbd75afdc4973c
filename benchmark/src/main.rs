//! The repo's benchmark: four seeded workloads against `tsdb` through its
//! public API, end-to-end metrics from an untraced pass and per-layer
//! metrics from a traced one. See README.md.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run; last line is its JSON
//! benchmark [--seed N] [--seconds S] [--out FILE]           every workload, untraced then traced
//! benchmark --compare A.json[,A2.json…] B.json[,B2.json…]   medians of two sets of results
//! ```

mod api;
mod check;
mod gen;
mod json;
mod probe;
mod report;
mod run;
mod spec;
mod stat;
mod trace;

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use report::Outcome;
use spec::{Spec, WORKLOADS};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 10;

/// `benchmark/out`, inside the checkout: the only place the benchmark
/// writes. Cargo tells a program it runs where its manifest is.
fn out_dir() -> PathBuf {
    let manifest =
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into());
    PathBuf::from(manifest).join("out")
}

/// The trace of one workload: a line per span, a line of self time by
/// span name, and a line per per-layer metric (probe results included).
fn write_trace(path: &Path, tracer: &trace::Tracer, layers: &[report::Metric]) -> io::Result<()> {
    let mut w = io::BufWriter::new(fs::File::create(path)?);
    tracer.write_jsonl(&mut w)?;
    let own = trace::self_times(&tracer.spans);
    let own = Json::obj(
        own.into_iter()
            .map(|(name, ns)| (name, Json::Num(ns as f64))),
    );
    writeln!(w, "{}", Json::obj([("self_ns", own)]))?;
    for m in layers {
        let fields = [
            ("metric", Json::str(m.def.name)),
            ("value", Json::Num(m.value)),
            ("unit", Json::str(m.def.unit)),
        ];
        writeln!(w, "{}", Json::obj(fields))?;
    }
    w.flush()
}

fn run_one(spec: &'static Spec, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let out = out_dir();
    let mut run = run::run(spec, seed, seconds, trace, &out).map_err(|e| e.to_string())?;
    let metrics = if trace {
        let probes = probe::all(&run).map_err(|e| e.to_string())?;
        let layers = report::per_layer(&run, probes);
        let path = out.join(format!("trace-{}.jsonl", spec.name));
        write_trace(&path, &run.m.tracer, &layers)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        layers
    } else {
        report::end_to_end(&run.m)
    };
    run.clean_up();
    Ok(Outcome::new(&run, trace, metrics))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match report::compare(a, b) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(n) => {
                println!("{n} metric(s) worse than their bound");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }

    let specs: Vec<&'static Spec> = match &args.workload {
        Some(name) => match Spec::by_name(name) {
            Some(spec) => vec![spec],
            None => {
                eprintln!("benchmark: no workload {name}");
                return ExitCode::from(2);
            }
        },
        None => WORKLOADS.iter().collect(),
    };
    // One workload: the pass `--trace` names. All: untraced, then traced.
    let passes: &[bool] = if args.workload.is_some() {
        &[args.trace][..]
    } else {
        &[false, true]
    };
    let mut outcomes = Vec::new();
    for &trace in passes {
        for spec in &specs {
            match run_one(spec, args.seed, args.seconds, trace) {
                Ok(outcome) => {
                    outcome.print_table();
                    outcomes.push(outcome);
                }
                Err(e) => {
                    eprintln!("benchmark: {}: {e}", spec.name);
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let correct = outcomes.iter().all(Outcome::correct);
    if args.workload.is_some() {
        println!("{}", outcomes[0].to_json());
    } else {
        let doc = Json::obj([
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds as f64)),
            ("hosts", Json::Num(gen::HOSTS as f64)),
            ("metrics_per_host", Json::Num(gen::METRICS as f64)),
            ("cadence_s", Json::Num(gen::CADENCE as f64)),
            ("store_fs", Json::str(outcomes[0].store_fs.clone())),
            (
                "results",
                Json::Arr(
                    outcomes
                        .iter()
                        .map(|o| {
                            let mut fields = vec![
                                ("workload".to_string(), Json::str(o.workload.name)),
                                ("trace".to_string(), Json::Bool(o.trace)),
                            ];
                            fields.extend(o.to_json().as_obj().iter().cloned());
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
        ]);
        let path = args.out.unwrap_or_else(|| out_dir().join("result.json"));
        if let Err(e) = fs::write(&path, format!("{doc}\n")) {
            eprintln!("benchmark: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("result written to {}", path.display());
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
