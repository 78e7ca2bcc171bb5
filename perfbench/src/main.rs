//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints human-readable lines, a provenance line and, last, one JSON result
//! line: `{"correct", "attempted", "failed", "metrics"}`. Exits 0 after a
//! run (the result says whether it was correct) and 2 on a usage error.

use cia_data::presets::Scale;
use cia_perfbench::{run, Config, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1", names.join("|"));
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(if s.is_finite() && s > 0.0 { s } else { return Err(bad()) });
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Paper,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => return usage(&msg),
    };
    // The program's worker pool size: one worker per core, recorded in the
    // provenance line. Set before any thread starts.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    std::env::set_var("CIA_THREADS", cores.to_string());
    let report = run(&cfg);
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "{}",
        cia_scenarios::json::ObjBuilder::new()
            .value("provenance", report.provenance.clone())
            .build()
            .render()
    );
    println!("{}", report.result_json().render());
    ExitCode::SUCCESS
}
