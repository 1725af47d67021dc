//! The three workloads and the programs they analyse.

use fsam_ir::Module;
use fsam_suite::{Program, Scale, SyncProgram};

/// A benchmark workload (README.md says why each was chosen).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Analyse and lint the four largest Table 1 programs.
    Big4,
    /// Analyse and lint the six small Table 1 programs and the three
    /// synchronization programs.
    Small,
    /// Serve the x264 snapshot to a seeded query stream beside reloads.
    Serve,
}

impl Workload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Result<Workload, String> {
        match name {
            "big4" => Ok(Workload::Big4),
            "small" => Ok(Workload::Small),
            "serve" => Ok(Workload::Serve),
            _ => Err(format!("unknown workload {name:?} (big4, small, serve)")),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Big4 => "big4",
            Workload::Small => "small",
            Workload::Serve => "serve",
        }
    }

    /// The programs one operation of the workload analyses, in order. The
    /// `serve` workload analyses its one program at set-up only.
    pub fn subjects(self) -> Vec<Subject> {
        use Program::*;
        let table1 = |ps: &[Program]| ps.iter().map(|&p| Subject::Table1(p)).collect::<Vec<_>>();
        match self {
            Workload::Big4 => table1(&[HttpdServer, MtDaapd, Raytrace, X264]),
            Workload::Small => {
                let mut s = table1(&[WordCount, Kmeans, Radiosity, Automount, Ferret, Bodytrack]);
                s.extend(SyncProgram::all().into_iter().map(Subject::Sync));
                s
            }
            Workload::Serve => table1(&[X264]),
        }
    }
}

/// One program of the in-repo deterministic generators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subject {
    /// A Table 1 benchmark program.
    Table1(Program),
    /// A condvar/barrier/atomic synchronization program.
    Sync(SyncProgram),
}

impl Subject {
    /// Every program with an expected output: the ten Table 1 programs,
    /// then the three synchronization programs.
    pub fn all() -> Vec<Subject> {
        let mut all: Vec<Subject> = Program::all().into_iter().map(Subject::Table1).collect();
        all.extend(SyncProgram::all().into_iter().map(Subject::Sync));
        all
    }

    /// The program's name.
    pub fn name(self) -> &'static str {
        match self {
            Subject::Table1(p) => p.name(),
            Subject::Sync(p) => p.name(),
        }
    }

    /// Generates the program at `scale`.
    pub fn generate(self, scale: f64) -> Module {
        match self {
            Subject::Table1(p) => p.generate(Scale(scale)),
            Subject::Sync(p) => p.generate(Scale(scale)),
        }
    }
}

/// Generates every program of `subjects` at `scale`, named.
pub fn generate(subjects: &[Subject], scale: f64) -> Vec<(&'static str, Module)> {
    subjects
        .iter()
        .map(|s| (s.name(), s.generate(scale)))
        .collect()
}
