//! Expected outputs: a points-to digest and the lint totals per program.
//!
//! The checked-in file (`expected/outputs-0.32.txt`) is produced by
//! `fsambench-expect` from sequential (`with_threads(1)`) runs that are
//! cross-checked against an independent solve before anything is written.
//! Every benchmark operation compares its own outputs against it; a
//! mismatch is a failed operation.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fsam::{solve_recompute, Fsam, PhaseConfig, Pipeline, SparseResult};
use fsam_ir::Module;

use crate::frontdoor;
use crate::workload::Subject;

/// The checked-in expected outputs at the default scale.
pub const CHECKED_IN: &str = include_str!("../expected/outputs-0.32.txt");

/// 64-bit FNV-1a, the benchmark's own stable hash (independent of the
/// toolchain's `DefaultHasher` and of the query crate's codec).
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a `u32` in little-endian order.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of every variable's sorted flow-sensitive points-to set, in
/// `var_ids()` order: per variable its set size, then its members.
pub fn pts_digest(module: &Module, result: &SparseResult) -> u64 {
    let mut h = Fnv1a::default();
    let mut members: Vec<u32> = Vec::new();
    for v in module.var_ids() {
        members.clear();
        members.extend(result.pt_var(v).iter().map(|m| m.raw()));
        members.sort_unstable();
        h.write_u32(members.len() as u32);
        for &m in &members {
            h.write_u32(m);
        }
    }
    h.finish()
}

/// The lint totals pinned per program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LintTriple {
    /// Confirmed race pairs.
    pub confirmed: u64,
    /// Confirmed race groups (one FL0001 diagnostic each).
    pub confirmed_groups: u64,
    /// Happens-before-refuted groups.
    pub hb_groups: u64,
}

impl LintTriple {
    /// The totals of one reducer run.
    pub fn of(stats: &fsam_lint::ReductionStats) -> LintTriple {
        LintTriple {
            confirmed: stats.confirmed,
            confirmed_groups: stats.confirmed_groups,
            hb_groups: stats.hb_groups,
        }
    }
}

/// One program's expected outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// [`pts_digest`] of the final points-to.
    pub pts: u64,
    /// Lint totals.
    pub lint: LintTriple,
}

/// Expected outputs of every program at one scale.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    /// The program scale these outputs belong to.
    pub scale: f64,
    /// Per-program entries by name.
    pub entries: BTreeMap<String, Entry>,
}

impl Expected {
    /// Parses the text format written by [`Expected::render`].
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut scale = None;
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |what: &str| format!("expected outputs line {}: {what}: {line:?}", n + 1);
            let mut words = line.split_whitespace();
            let head = words.next().unwrap_or_default();
            if head == "scale" {
                let v = words.next().ok_or_else(|| bad("no scale value"))?;
                scale = Some(v.parse::<f64>().map_err(|_| bad("bad scale"))?);
                continue;
            }
            let mut fields = BTreeMap::new();
            for w in words {
                let (k, v) = w.split_once('=').ok_or_else(|| bad("field without '='"))?;
                fields.insert(k, v);
            }
            let field = |k: &str| {
                fields
                    .get(k)
                    .copied()
                    .ok_or_else(|| bad(&format!("no {k}")))
            };
            let num = |k: &str| -> Result<u64, String> {
                field(k)?.parse().map_err(|_| bad(&format!("bad {k}")))
            };
            let entry = Entry {
                pts: u64::from_str_radix(field("pts")?, 16).map_err(|_| bad("bad pts"))?,
                lint: LintTriple {
                    confirmed: num("confirmed")?,
                    confirmed_groups: num("confirmed_groups")?,
                    hb_groups: num("hb_groups")?,
                },
            };
            if entries.insert(head.to_string(), entry).is_some() {
                return Err(bad("duplicate program"));
            }
        }
        Ok(Expected {
            scale: scale.ok_or("expected outputs carry no scale line")?,
            entries,
        })
    }

    /// The text form: a header, the scale, one line per program.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "# fsambench expected outputs; regenerate with fsambench-expect (README.md).\n",
        );
        out.push_str("# pts = FNV-1a digest of every variable's sorted points-to set.\n");
        let _ = writeln!(out, "scale {}", self.scale);
        for (name, e) in &self.entries {
            let _ = writeln!(
                out,
                "{name} pts={:016x} confirmed={} confirmed_groups={} hb_groups={}",
                e.pts, e.lint.confirmed, e.lint.confirmed_groups, e.lint.hb_groups
            );
        }
        out
    }

    /// Loads the checked-in outputs, or `path` when given, and checks they
    /// belong to `scale`.
    pub fn load(path: Option<&std::path::Path>, scale: f64) -> Result<Expected, String> {
        let text = match path {
            Some(p) => std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?,
            None => CHECKED_IN.to_string(),
        };
        let expected = Expected::parse(&text)?;
        if expected.scale != scale {
            return Err(format!(
                "expected outputs are for scale {}, the run is at scale {scale}",
                expected.scale
            ));
        }
        Ok(expected)
    }

    /// The entry of `name`, or an error naming the missing program.
    pub fn entry(&self, name: &str) -> Result<Entry, String> {
        self.entries
            .get(name)
            .copied()
            .ok_or_else(|| format!("no expected output for {name}"))
    }
}

/// Compares one program's outputs against its expected entry; `Err`
/// describes the first mismatch.
pub fn check(name: &str, want: Entry, pts: u64, lint: LintTriple) -> Result<(), String> {
    if pts != want.pts {
        return Err(format!(
            "{name}: points-to digest {pts:016x}, expected {:016x}",
            want.pts
        ));
    }
    if lint != want.lint {
        return Err(format!(
            "{name}: lint totals {lint:?}, expected {:?}",
            want.lint
        ));
    }
    Ok(())
}

/// Generates the expected outputs of `subjects` at `scale` from
/// sequential runs, cross-checking each before it is recorded: against
/// the recompute oracle (`solve_recompute`) on every program except
/// `skip_oracle`, whose sequential run is checked against a parallel run
/// instead. `progress` receives one line per program.
pub fn generate(
    subjects: &[Subject],
    scale: f64,
    skip_oracle: &[&str],
    mut progress: impl FnMut(&str),
) -> Result<Expected, String> {
    let mut entries = BTreeMap::new();
    for &s in subjects {
        let module = s.generate(scale);
        let seq = Pipeline::for_module(&module)
            .with_threads(1)
            .run(PhaseConfig::full());
        let how = if skip_oracle.contains(&s.name()) {
            let par = Pipeline::for_module(&module)
                .with_threads(fsam::thread_count().max(2))
                .run(PhaseConfig::full());
            agree(s.name(), &seq, &par.result, "the parallel solve")?;
            "sequential = parallel"
        } else {
            let oracle = solve_recompute(&module, &seq.pre, &seq.svfg);
            agree(s.name(), &seq, &oracle, "the recompute oracle")?;
            "sequential = recompute oracle"
        };
        let lint = frontdoor::lint(&module, &seq);
        let entry = Entry {
            pts: pts_digest(&module, &seq.result),
            lint,
        };
        progress(&format!("{:<20} {how}  {entry:?}", s.name()));
        entries.insert(s.name().to_string(), entry);
    }
    Ok(Expected { scale, entries })
}

fn agree(name: &str, seq: &Fsam, other: &SparseResult, what: &str) -> Result<(), String> {
    if seq.result.points_to_eq(other) {
        Ok(())
    } else {
        Err(format!(
            "{name}: the sequential points-to differs from {what}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv1a::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn render_and_parse_round_trip() {
        let mut entries = BTreeMap::new();
        let lint = LintTriple {
            confirmed: 3,
            confirmed_groups: 2,
            hb_groups: 1,
        };
        entries.insert(
            "kmeans".to_string(),
            Entry {
                pts: 0xdead_beef,
                lint,
            },
        );
        let e = Expected {
            scale: 0.32,
            entries,
        };
        assert_eq!(Expected::parse(&e.render()).unwrap(), e);
        assert!(Expected::parse("kmeans pts=zz").is_err());
        assert!(Expected::parse("scale 0.32\nkmeans pts=1 confirmed=1").is_err());
    }

    #[test]
    fn checked_in_outputs_cover_every_program() {
        let e = Expected::load(None, crate::cli::DEFAULT_SCALE).unwrap();
        for s in Subject::all() {
            e.entry(s.name()).unwrap();
        }
    }
}
