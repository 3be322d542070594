//! Command-line surface:
//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`.

use crate::workloads::Workload;
use crate::DEFAULT_SEED;

/// The usage text printed with every argument error.
pub const USAGE: &str = "usage: perfbench --workload population|sync_fleet|paper \
[--seed N] [--seconds S] [--trace 0|1]";

/// Seconds one run measures when `--seconds` is absent.
pub const DEFAULT_SECONDS: u64 = 35;

/// Parsed and checked arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// How long the end-to-end run repeats its workload.
    pub seconds: u64,
    /// True for the per-layer (traced) run.
    pub trace: bool,
}

/// Parses a seed in decimal or `0x`-prefixed hexadecimal.
pub fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => text.parse().ok(),
    }
}

/// Parses `args` (without the program name).
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = parse_seed(value).ok_or_else(|| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("--seconds must be 1..=600, got {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_invocation() {
        let parsed =
            parse(&args(&["--workload", "paper", "--seed", "7", "--seconds", "3", "--trace", "1"]))
                .expect("valid arguments");
        assert_eq!(parsed, Args { workload: Workload::Paper, seed: 7, seconds: 3, trace: true });
        let hex = parse(&args(&["--workload", "population", "--seed", "0x2013_1023"]))
            .expect("valid arguments");
        assert_eq!(hex.seed, DEFAULT_SEED);
        assert!(!hex.trace);
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "paper", "--trace", "2"],
            &["--workload", "paper", "--seconds", "0"],
            &["--workload", "paper", "--seed"],
            &["--workload", "paper", "--verbose", "1"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
