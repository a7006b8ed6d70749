//! Runs the figure/table experiments and prints their reports.
//!
//! With no arguments every experiment runs in sequence under a banner, with
//! the quick tenant sweep. `--only NAME` runs one experiment and prints its
//! bare report; `fig_tenants` then runs its full sweep unless `--quick` is
//! also given. Malformed arguments exit with status 2 and list the valid
//! names.

use leap_bench::{parse_figure_args, FIGURES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_figure_args(&args).unwrap_or_else(|problem| {
        eprintln!("all_figures: {problem}");
        eprintln!("usage: all_figures [--only NAME] [--quick]");
        eprint!("valid names:");
        for fig in &FIGURES {
            eprint!(" {}", fig.name);
        }
        eprintln!();
        std::process::exit(2);
    });
    match parsed.only {
        Some(fig) => println!("{}", (fig.run)(parsed.quick)),
        None => {
            for fig in &FIGURES {
                println!("==================== {} ====================", fig.title);
                println!("{}", (fig.run)(true));
            }
        }
    }
}
