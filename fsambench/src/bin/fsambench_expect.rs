//! Generates the expected outputs every benchmark operation is checked
//! against.
//!
//! ```text
//! fsambench-expect [--scale 0.32] [--out PATH]
//! ```
//!
//! Each program is analysed sequentially (`with_threads(1)`), its
//! points-to is cross-checked against the recompute oracle (x264, whose
//! oracle run takes more than ten minutes, is checked against a parallel
//! run instead), and its points-to digest and lint totals are written to
//! `PATH` (standard output by default).

use fsambench::cli::DEFAULT_SCALE;
use fsambench::expected;
use fsambench::workload::Subject;

fn main() {
    let mut scale = DEFAULT_SCALE;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_default();
        match flag.as_str() {
            "--scale" => scale = value.parse().unwrap_or_else(|_| usage()),
            "--out" => out = Some(value),
            _ => usage(),
        }
    }
    let expected = expected::generate(&Subject::all(), scale, &["x264"], |line| {
        eprintln!("{line}");
    })
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let text = expected.render();
    match out {
        Some(path) => std::fs::write(&path, text).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }),
        None => print!("{text}"),
    }
}

fn usage() -> ! {
    eprintln!("usage: fsambench-expect [--scale X] [--out PATH]");
    std::process::exit(2)
}
