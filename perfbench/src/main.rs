//! `perfbench`: the in-process half of the graphio benchmark. `run.py`
//! drives the shipped `graphio` binary and calls this tool for the parts
//! that need the library:
//!
//! ```text
//! perfbench prepare --workload W --seed S --seconds T --out DIR   inputs + expected bodies
//! perfbench load --plan DIR --url URL --phase warm|timed --out F  open-loop driver, raw samples
//! perfbench hop --plan DIR --url ROUTER                           router hop, ms
//! perfbench trace --plan DIR --scratch DIR --spans F [--limit N] [--backends A,B]
//! ```

mod load;
mod plan;
mod trace;
mod util;

use util::{die, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        die("usage: perfbench prepare|load|hop|trace --flag value ...")
    };
    let args = Args::parse(rest);
    match cmd.as_str() {
        "prepare" => {
            graphio_linalg::set_threads(1);
            let plan = plan::Plan::build(
                args.req("workload"),
                args.num("seed", 0),
                args.num("seconds", 10.0),
            );
            plan.write(std::path::Path::new(args.req("out")));
        }
        "load" => load::run(&args),
        "hop" => load::hop(&args),
        "trace" => trace::run(&args),
        other => die(&format!("unknown subcommand {other}")),
    }
}
