//! The `bdb-lint` command-line driver.
//!
//! ```text
//! bdb-lint [--deny-warnings] [--root <dir>] [--rule <id>]... [--list-rules]
//!          [--format text|json] [--baseline <file>] [--bless]
//!          [--max-millis <n>]
//! ```
//!
//! Diagnostics print as `file:line: [rule] message` (with the
//! source→sink call chain indented below for reachability rules), or as
//! a canonical JSON report with `--format json`. `--baseline <file>`
//! subtracts blessed findings so CI fails on *new* findings only;
//! `--bless` rewrites `contracts/knobs.txt` and then the baseline
//! instead of reporting ([`bdb_lint::bless`]). `--max-millis <n>` fails the run if the full analysis
//! exceeds the wall-clock budget (the CI `lint-perf` guard). Exit status
//! is 0 when clean (or findings are advisory), 1 when `--deny-warnings`
//! is set and any non-baselined diagnostic fired (or the time budget is
//! exceeded), 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    deny: bool,
    root: Option<PathBuf>,
    rules: Vec<String>,
    json: bool,
    baseline: Option<PathBuf>,
    bless: bool,
    max_millis: Option<u128>,
}

fn main() -> ExitCode {
    let mut opts = Options {
        deny: false,
        root: None,
        rules: Vec::new(),
        json: false,
        baseline: None,
        bless: false,
        max_millis: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-warnings" => opts.deny = true,
            "--bless" => opts.bless = true,
            "--root" => match args.next() {
                Some(dir) => opts.root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--rule" => match args.next() {
                Some(rule) => {
                    if !bdb_lint::RULES.iter().any(|(id, _)| *id == rule) {
                        return usage(&format!("unknown rule `{rule}` (try --list-rules)"));
                    }
                    opts.rules.push(rule);
                }
                None => return usage("--rule needs a rule id"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => opts.json = false,
                Some("json") => opts.json = true,
                Some(other) => return usage(&format!("unknown format `{other}`")),
                None => return usage("--format needs `text` or `json`"),
            },
            "--baseline" => match args.next() {
                Some(file) => opts.baseline = Some(PathBuf::from(file)),
                None => return usage("--baseline needs a file"),
            },
            "--max-millis" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => opts.max_millis = Some(n),
                None => return usage("--max-millis needs a number"),
            },
            "--list-rules" => {
                for (id, description) in bdb_lint::RULES {
                    println!("{id:28} {description}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "bdb-lint — repo-native static analysis\n\n\
                     USAGE: bdb-lint [--deny-warnings] [--root <dir>] [--rule <id>]... [--list-rules]\n\
                     \x20                [--format text|json] [--baseline <file>] [--bless] [--max-millis <n>]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let start = opts.root.clone().unwrap_or_else(|| PathBuf::from("."));
    let Some(workspace) = bdb_lint::find_workspace_root(&start) else {
        eprintln!(
            "bdb-lint: no workspace root found at or above {}",
            start.display()
        );
        return ExitCode::from(2);
    };

    if opts.bless {
        let baseline_path = opts
            .baseline
            .clone()
            .unwrap_or_else(|| workspace.join("contracts/lint_baseline.json"));
        return match bdb_lint::bless(&workspace, &opts.rules, &baseline_path) {
            Ok(blessed) => {
                println!(
                    "bdb-lint: rewrote {} and blessed {blessed} finding(s) into {}",
                    workspace.join(bdb_lint::knobs::KNOBS_TXT).display(),
                    baseline_path.display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bdb-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    // Wall-clock measurement is exactly what --max-millis is for; the
    // lint crate produces no profile bytes.
    let started = std::time::Instant::now();
    let diags = match bdb_lint::run(&workspace, &opts.rules) {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("bdb-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed().as_millis();

    let diags = match &opts.baseline {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("bdb-lint: read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let keys = match bdb_lint::report::parse_baseline(&text) {
                Ok(keys) => keys,
                Err(e) => {
                    eprintln!("bdb-lint: {e}");
                    return ExitCode::from(2);
                }
            };
            bdb_lint::report::filter_new(diags, &keys)
        }
        None => diags,
    };

    if opts.json {
        print!("{}", bdb_lint::report::to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if diags.is_empty() {
            println!("bdb-lint: clean ({} rules)", effective_rules(&opts.rules));
        } else {
            println!("bdb-lint: {} diagnostic(s)", diags.len());
        }
    }

    if let Some(budget) = opts.max_millis {
        if elapsed > budget {
            eprintln!("bdb-lint: analysis took {elapsed}ms, over the {budget}ms budget");
            return ExitCode::FAILURE;
        }
    }
    if !diags.is_empty() && opts.deny {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn effective_rules(rules: &[String]) -> usize {
    if rules.is_empty() {
        bdb_lint::RULES.len()
    } else {
        rules.len()
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("bdb-lint: {message}");
    ExitCode::from(2)
}
