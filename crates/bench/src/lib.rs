//! Shared harness code for the table/figure regenerator binaries.
//!
//! Each binary reproduces one table or figure from the paper:
//!
//! * `table1` — NAS conjugate gradient (sparse matrix-vector product)
//! * `table2` — tiled dense matrix-matrix product
//! * `fig1` — the diagonal remapping example
//! * `ablation_dram` — the designed DRAM scheduler (Section 2.2)
//! * `superpage` — the superpage/TLB experiment (Section 6)
//! * `ipc` — IPC scatter/gather (Section 6)
//!
//! Run with `--paper` for the paper's full problem sizes (slower), or
//! with the scaled defaults for a quick check. The printed tables carry
//! the paper's reported numbers alongside the measured ones so the shape
//! comparison is immediate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod harness;
pub mod out;
pub mod runner;

use impulse_sim::Report;

/// Prints the paths of every artifact a binary wrote, one per line, as
/// the last thing before exit — no bench binary writes files silently.
pub fn print_artifacts(paths: &[&str]) {
    outln!("artifacts:");
    for p in paths {
        outln!("  {p}");
    }
}

/// The four prefetch configurations every table sweeps: the paper's
/// columns "Standard", "Impulse" (controller prefetch), "L1 cache"
/// prefetch, and "both".
pub const PREFETCH_COLUMNS: [(bool, bool, &str); 4] = [
    (false, false, "standard"),
    (true, false, "impulse-pf"),
    (false, true, "L1-pf"),
    (true, true, "both"),
];

/// One section of a paper-style table: a memory-system configuration and
/// its four prefetch-column reports.
#[derive(Clone, Debug)]
pub struct TableSection {
    /// Section title (e.g. "Conventional memory system").
    pub title: String,
    /// Reports for the four prefetch columns.
    pub reports: Vec<Report>,
    /// The paper's reported values for the same section, if any:
    /// `(time_bcycles, l1, l2, mem, avg_load, speedup)` per column.
    pub paper: Option<[PaperRow; 4]>,
}

/// The paper's reported metrics for one table cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperRow {
    /// Time in billions of cycles.
    pub time: f64,
    /// L1 hit ratio (%).
    pub l1: f64,
    /// L2 hit ratio (%).
    pub l2: f64,
    /// Memory hit ratio (%).
    pub mem: f64,
    /// Average load time (cycles).
    pub avg_load: f64,
    /// Speedup over "Conventional, no prefetch".
    pub speedup: f64,
}

/// Prints a full table in the paper's layout (metrics as rows, prefetch
/// configurations as columns), with the paper's numbers interleaved when
/// available. `baseline` is the conventional/no-prefetch report that
/// speedups are computed against.
pub fn print_table(title: &str, sections: &[TableSection], baseline: &Report) {
    outln!("\n================================================================");
    outln!("{title}");
    outln!("================================================================");
    for section in sections {
        outln!("\n--- {} ---", section.title);
        out!("{:<26}", "");
        for (_, _, label) in PREFETCH_COLUMNS {
            out!("{label:>12}");
        }
        outln!();

        let row = |name: &str, f: &dyn Fn(&Report) -> String| {
            out!("{name:<26}");
            for r in &section.reports {
                out!("{:>12}", f(r));
            }
            outln!();
        };
        let paper_row = |name: &str, f: &dyn Fn(&PaperRow) -> String| {
            if let Some(p) = &section.paper {
                out!("{name:<26}");
                for pr in p {
                    out!("{:>12}", f(pr));
                }
                outln!();
            }
        };

        row("time (Mcycles)", &|r| {
            format!("{:.2}", r.cycles as f64 / 1e6)
        });
        paper_row("  paper (Gcycles)", &|p| format!("{:.2}", p.time));
        row("L1 hit ratio", &|r| {
            format!("{:.1}%", 100.0 * r.mem.l1_ratio())
        });
        paper_row("  paper", &|p| format!("{:.1}%", p.l1));
        row("L2 hit ratio", &|r| {
            format!("{:.1}%", 100.0 * r.mem.l2_ratio())
        });
        paper_row("  paper", &|p| format!("{:.1}%", p.l2));
        row("mem hit ratio", &|r| {
            format!("{:.1}%", 100.0 * r.mem.mem_ratio())
        });
        paper_row("  paper", &|p| format!("{:.1}%", p.mem));
        row("avg load time", &|r| {
            format!("{:.2}", r.mem.avg_load_time())
        });
        paper_row("  paper", &|p| format!("{:.2}", p.avg_load));
        row("speedup", &|r| format!("{:.2}", r.speedup_over(baseline)));
        paper_row("  paper", &|p| {
            if p.speedup == 0.0 {
                "—".to_string()
            } else {
                format!("{:.2}", p.speedup)
            }
        });
    }
    outln!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_columns_cover_all_combinations() {
        let set: std::collections::HashSet<(bool, bool)> =
            PREFETCH_COLUMNS.iter().map(|&(a, b, _)| (a, b)).collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn args_defaults_and_overrides() {
        let known = ["--paper", "rows=", "cols="];
        let args = ["rows=100", "--paper", "rows=200"].map(String::from);
        let a = runner::Args::parse(&args, &known).expect("on the usage line");
        assert_eq!(a.get("rows", 5), 200, "last override wins");
        assert_eq!(a.get("cols", 7), 7);
        assert!(a.paper());
    }

    #[test]
    fn args_jobs_is_typed() {
        let parse = |arg: &str| runner::Args::parse(&[arg.to_string()], &["jobs="]);
        assert_eq!(
            runner::Args::default().jobs(),
            runner::default_jobs(),
            "no jobs= runs on every hardware thread"
        );
        assert!(
            parse("jobs=0").is_err(),
            "jobs=0 must not silently become 1"
        );
        assert!(parse("jobs=four").is_err());
        assert_eq!(parse("jobs=4").expect("valid").jobs(), 4);
    }
}
