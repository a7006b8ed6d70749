//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each public function reproduces one figure/table from *Effectively
//! Prefetching Remote Memory with Leap* and returns a rendered text report
//! (the same rows/series the paper plots). [`FIGURES`] lists them by name,
//! and the `all_figures` binary runs all of them or, with `--only NAME`, one:
//!
//! ```text
//! cargo run --release -p leap-bench --bin all_figures -- --only fig09_prefetcher_cache
//! ```
//!
//! prints the corresponding table. Scales are reduced from the paper's
//! 9–38 GB working sets to tens of MiB so every experiment completes in
//! seconds; `EXPERIMENTS.md` at the repository root records the
//! paper-vs-measured comparison.

pub(crate) mod app_figures;
pub mod arena;
pub(crate) mod churn_figures;
pub(crate) mod hedging_figures;
pub(crate) mod micro_figures;
pub mod tenant_figures;
pub(crate) mod trace_source;

pub use app_figures::fig09_prefetcher_cache;
pub use churn_figures::fig_churn;
pub use tenant_figures::fig_tenants;

use app_figures::{
    fig03_pattern_windows, fig08b_slow_storage, fig10_prefetch_effectiveness, fig11_applications,
    fig12_constrained_cache, fig13_multi_app, fig13_scaleup, table1_prefetcher_comparison,
};
use hedging_figures::fig_hedging;
use micro_figures::{
    fig01_datapath_breakdown, fig02_default_datapath_cdf, fig04_lazy_eviction_wait,
    fig07_leap_datapath_cdf, fig08a_benefit_breakdown,
};
use trace_source::TraceSource;

/// Standard working-set size used by the microbenchmark figures (16 MiB keeps
/// each run to a few seconds).
pub(crate) const MICRO_WORKING_SET: u64 = 16 * leap_sim_core::units::MIB;

/// Standard number of accesses per application trace in the app figures.
pub(crate) const APP_ACCESSES: usize = 80_000;

/// Seed shared by all experiments so every figure is reproducible.
pub(crate) const EXPERIMENT_SEED: u64 = 2020;

/// One experiment of the `all_figures` binary.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The name `--only` selects it by (its report function's name).
    pub name: &'static str,
    /// The banner title of the full run.
    pub title: &'static str,
    /// Renders the report; `quick` shrinks the sweeps that have a quick
    /// variant (only `fig_tenants` does).
    pub run: fn(quick: bool) -> String,
}

/// Every experiment, in the order the full `all_figures` run prints them.
pub static FIGURES: [Figure; 17] = [
    Figure {
        name: "fig01_datapath_breakdown",
        title: "Figure 1",
        run: |_| fig01_datapath_breakdown(),
    },
    Figure {
        name: "fig02_default_datapath_cdf",
        title: "Figure 2",
        run: |_| fig02_default_datapath_cdf(),
    },
    Figure {
        name: "fig03_pattern_windows",
        title: "Figure 3",
        run: |_| fig03_pattern_windows(),
    },
    Figure {
        name: "fig04_lazy_eviction_wait",
        title: "Figure 4",
        run: |_| fig04_lazy_eviction_wait(),
    },
    Figure {
        name: "table1_prefetcher_comparison",
        title: "Table 1",
        run: |_| table1_prefetcher_comparison(),
    },
    Figure {
        name: "fig07_leap_datapath_cdf",
        title: "Figure 7",
        run: |_| fig07_leap_datapath_cdf(),
    },
    Figure {
        name: "fig08a_benefit_breakdown",
        title: "Figure 8a",
        run: |_| fig08a_benefit_breakdown(),
    },
    Figure {
        name: "fig08b_slow_storage",
        title: "Figure 8b",
        run: |_| fig08b_slow_storage(),
    },
    Figure {
        name: "fig09_prefetcher_cache",
        title: "Figure 9",
        run: |_| fig09_prefetcher_cache(),
    },
    Figure {
        name: "fig10_prefetch_effectiveness",
        title: "Figure 10",
        run: |_| fig10_prefetch_effectiveness(),
    },
    Figure {
        name: "fig11_applications",
        title: "Figure 11",
        run: |_| fig11_applications(),
    },
    Figure {
        name: "fig12_constrained_cache",
        title: "Figure 12",
        run: |_| fig12_constrained_cache(),
    },
    Figure {
        name: "fig13_multi_app",
        title: "Figure 13",
        run: |_| fig13_multi_app(),
    },
    Figure {
        name: "fig13_scaleup",
        title: "Figure 13 scale-up",
        run: |_| fig13_scaleup(),
    },
    Figure {
        name: "fig_tenants",
        title: "Tenant scale-up",
        run: |quick| {
            if quick {
                fig_tenants(&[2, 4, 8], 2_000)
            } else {
                fig_tenants(&[1, 2, 4, 8, 12, 16], 8_000)
            }
        },
    },
    Figure {
        name: "fig_churn",
        title: "Leap under churn",
        run: |_| fig_churn(),
    },
    Figure {
        name: "fig_hedging",
        title: "Tail latency under churn",
        run: |_| fig_hedging(),
    },
];

/// What the `all_figures` command line asks for.
#[derive(Debug, Clone, Copy)]
pub struct FigureArgs {
    /// The one experiment `--only NAME` selects; `None` runs them all.
    pub only: Option<&'static Figure>,
    /// `--quick`: the short sweep for `--only fig_tenants`.
    pub quick: bool,
}

/// Parses the `all_figures` argument list (without the program name),
/// naming the problem on malformed input.
pub fn parse_figure_args(args: &[String]) -> Result<FigureArgs, String> {
    let mut parsed = FigureArgs {
        only: None,
        quick: false,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only" => {
                let name = args.next().ok_or("--only needs a NAME")?;
                let fig = FIGURES.iter().find(|f| f.name == name);
                parsed.only = Some(fig.ok_or(format!("no experiment named {name:?}"))?);
            }
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FigureArgs, String> {
        parse_figure_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_arguments_run_every_figure() {
        let args = parse(&[]).unwrap();
        assert!(args.only.is_none() && !args.quick);
    }

    #[test]
    fn only_selects_the_report_function_of_that_name() {
        let args = parse(&["--only", "fig01_datapath_breakdown"]).unwrap();
        let fig = args.only.unwrap();
        assert_eq!(fig.name, "fig01_datapath_breakdown");
        assert_eq!((fig.run)(args.quick), fig01_datapath_breakdown());
        let args = parse(&["--quick", "--only", "fig_tenants"]).unwrap();
        assert_eq!(args.only.unwrap().name, "fig_tenants");
        assert!(args.quick);
    }

    #[test]
    fn malformed_arguments_name_the_problem() {
        let err = parse(&["--only", "fig99_missing"]).unwrap_err();
        assert!(err.contains("fig99_missing"), "{err}");
        assert!(parse(&["--only"]).unwrap_err().contains("NAME"));
        assert!(parse(&["--figure", "x"]).unwrap_err().contains("--figure"));
        assert!(parse(&["--only", "arena"]).is_err());
    }

    #[test]
    fn figure_names_are_unique() {
        let names: std::collections::HashSet<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len());
    }
}
