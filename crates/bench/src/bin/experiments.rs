//! Experiment harness for the RWS-with-false-sharing reproduction.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rws-bench --bin experiments -- all        # every experiment
//! cargo run --release -p rws-bench --bin experiments -- quick      # smaller instances
//! cargo run --release -p rws-bench --bin experiments -- e11        # one experiment
//! ```
//!
//! The experiment ids (`e1` … `e20`) are indexed by `rws_bench::experiments::run`; each
//! experiment's rustdoc names the result of the paper it measures.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("quick");
    let quick = args.iter().any(|a| a == "--quick") || name == "quick";
    println!("RWS with false sharing — experiment harness");
    println!("machine model defaults: M = 4096 words, B = 8 words, b = 4, s = 8 (see DESIGN.md)");
    rws_bench::experiments::run(name, quick);
}
