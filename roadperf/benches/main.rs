//! `roadperf --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`. Lines before it
//! describe the run (sizes, mix, radius, the sample count behind every
//! percentile). Exits 1 when any answer was wrong or any operation failed,
//! and 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use roadperf::report::result_line;
use roadperf::run::{run, RunConfig, Workload, FULL};

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload '{value}' (valid: {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace = trace.unwrap_or(false);
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size: FULL,
        trace_out: trace
            .then(|| PathBuf::from(format!("roadperf/traces/{}.jsonl", workload.name()))),
        corrupt_one_answer: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("roadperf: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(out) => {
            for note in &out.notes {
                println!("# {note}");
            }
            println!("{}", result_line(out.correct, out.attempted, out.failed, &out.metrics));
            if out.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("roadperf: {} of {} operations failed", out.failed, out.attempted);
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("roadperf: {msg}");
            ExitCode::from(1)
        }
    }
}
