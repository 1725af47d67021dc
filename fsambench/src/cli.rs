//! Command-line arguments shared by both benchmark binaries.

use std::path::PathBuf;

use crate::workload::Workload;

/// The scale every workload runs at (the scale of every checked-in
/// expected output).
pub const DEFAULT_SCALE: f64 = 0.32;

/// Parsed arguments:
/// `--workload NAME --seed N --seconds S --trace 0|1`, plus two knobs for
/// the benchmark's own tests: `--scale X` and `--expected PATH` (an
/// expected-outputs file generated at that scale).
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the workload's generated inputs.
    pub seed: u64,
    /// Measured wall time of the run.
    pub seconds: f64,
    /// Whether the traced (per-layer) run was asked for.
    pub trace: bool,
    /// Program scale.
    pub scale: f64,
    /// Expected outputs to check against instead of the checked-in file.
    pub expected: Option<PathBuf>,
}

impl Args {
    /// Parses `args` (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut scale = DEFAULT_SCALE;
        let mut expected = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(Workload::from_name(&value)?),
                "--seed" => seed = Some(parse_num::<u64>(&flag, &value)?),
                "--seconds" => seconds = Some(parse_num::<f64>(&flag, &value)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                "--scale" => scale = parse_num::<f64>(&flag, &value)?,
                "--expected" => expected = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(format!("--seconds must be positive, not {seconds}"));
        }
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(format!("--scale must be positive, not {scale}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            scale,
            expected,
        })
    }

    /// Parses the process's own arguments, or exits with code 2 and a
    /// usage line.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fsambench --workload big4|small|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        })
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a number, not {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload small --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Small);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(a.scale, DEFAULT_SCALE);
    }

    #[test]
    fn rejects_missing_and_malformed_flags() {
        assert!(parse("--workload small --seed 7 --seconds 10").is_err());
        assert!(parse("--workload huge --seed 7 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload serve --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload serve --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload serve --seed 1 --seconds 1 --trace 2").is_err());
    }
}
