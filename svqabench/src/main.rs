//! `svqabench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric with its unit, then one JSON result line. Exits 1
//! when a correctness check failed, 2 on bad arguments.

use std::process::ExitCode;
use svqabench::run::{run, Options};
use svqabench::world::{spec, specs};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = specs().iter().map(|s| s.name).collect();
    eprintln!(
        "{msg}\nusage: svqabench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => spec(value).map(|s| workload = Some(s)).is_some(),
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .map(|v| seconds = v)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !parsed {
            return usage(&format!("bad value for {flag}: {value}"));
        }
    }
    let Some(spec) = workload else {
        return usage("--workload is required");
    };
    let report = run(&Options {
        spec,
        seed,
        seconds,
        trace,
    });
    print!("{}", report.render(trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
