//! Library backing the `fpga-rt` command-line tool (kept as a library so
//! every subcommand is unit-testable without spawning processes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod args;
pub mod commands;
pub mod io;

pub use args::Args;
use fpga_rt_exp::studies::Study;
use std::io::Write;

/// Process exit semantics of the tool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitCode {
    /// Verdict was "accepted" / simulation clean (exit 0).
    Accepted,
    /// Verdict was "rejected" / simulation missed (exit 1).
    Rejected,
    /// Usage or input error (exit 2) with a message.
    Error(String),
}

/// A command: its name, the one list of flags it accepts, and its body.
struct Command {
    name: &'static str,
    /// Flags that take a value.
    valued: &'static [&'static str],
    /// Flags that take none.
    switches: &'static [&'static str],
    /// Whether one positional argument (the study name) is allowed.
    takes_name: bool,
    run: fn(&Args, &mut dyn Write) -> commands::CmdResult,
}

/// Every command. `usage()` must mention exactly these flags per command
/// (unit-tested), so the help text and the parser cannot drift apart.
const COMMANDS: [Command; 11] = [
    Command {
        name: "check",
        valued: &["taskset", "columns", "test"],
        switches: &["exact", "verbose"],
        takes_name: false,
        run: commands::check,
    },
    Command {
        name: "simulate",
        valued: &["taskset", "columns", "scheduler", "horizon", "placement", "overhead-per-column"],
        switches: &["trace"],
        takes_name: false,
        run: commands::simulate,
    },
    Command {
        name: "size",
        valued: &["taskset", "max"],
        switches: &["exact"],
        takes_name: false,
        run: commands::size,
    },
    Command {
        name: "generate",
        valued: &["n", "seed", "figure"],
        switches: &["pretty"],
        takes_name: false,
        run: commands::generate,
    },
    Command {
        name: "tables",
        valued: &[],
        switches: &[],
        takes_name: false,
        run: |_, out| commands::tables(out),
    },
    Command {
        name: "sweep",
        valued: &["figure", "bins", "per-bin", "workers", "seed", "out", "metrics-out"],
        switches: &["deterministic"],
        takes_name: false,
        run: commands::sweep,
    },
    Command {
        name: "study",
        valued: &["figure", "per-bin", "seed", "sim-horizon", "workers", "out"],
        switches: &[],
        takes_name: true,
        run: commands::study,
    },
    Command {
        name: "conform",
        valued: &[
            "figure",
            "bins",
            "per-bin",
            "sim-horizon",
            "workers",
            "seed",
            "out",
            "metrics-out",
            "samples",
        ],
        switches: &["deterministic", "twod"],
        takes_name: false,
        run: commands::conform,
    },
    Command {
        name: "serve",
        valued: &[
            "columns",
            "shards",
            "workers",
            "batch",
            "sessions",
            "cache",
            "exact-margin",
            "listen",
            "conns",
            "input",
            "metrics-out",
        ],
        switches: &["deterministic"],
        takes_name: false,
        run: commands::serve,
    },
    Command {
        name: "client",
        valued: &["connect", "input"],
        switches: &[],
        takes_name: false,
        run: commands::client,
    },
    Command {
        name: "loadgen",
        valued: &[
            "profile",
            "ops",
            "sessions",
            "columns",
            "rounds",
            "workers",
            "seed",
            "soak",
            "cache",
            "out",
            "metrics-out",
            "target",
            "conns",
            "requests",
        ],
        switches: &["deterministic"],
        takes_name: false,
        run: commands::loadgen,
    },
];

/// Dispatch a full command line (already split, without the binary name).
pub fn run(args: &[String], out: &mut dyn Write) -> ExitCode {
    let Some((name, rest)) = args.split_first() else {
        return ExitCode::Error(usage());
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        let _ = writeln!(out, "{}", usage());
        return ExitCode::Accepted;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        return ExitCode::Error(format!("unknown command {name:?}\n{}", usage()));
    };
    let parsed = Args::from_args(rest.iter().cloned());
    let result =
        parsed.check_flags(command.name, command.valued, command.switches).and_then(|()| {
            match parsed.positional.first() {
                Some(stray) if !command.takes_name => Err(format!(
                    "{}: unexpected argument {stray:?} (options are --flags; see `fpga-rt help`)",
                    command.name
                )),
                _ => (command.run)(&parsed, out),
            }
        });
    match result {
        Ok(code) => code,
        Err(msg) => ExitCode::Error(msg),
    }
}

/// One-screen usage text.
pub fn usage() -> String {
    let studies: Vec<&str> = Study::ALL.iter().map(|s| s.name()).collect();
    format!(
        "usage: fpga-rt <command> [flags]\n\
     commands:\n\
     \x20 check     --taskset FILE --columns N [--test any|dp|gn1|gn2|nec] [--exact] [--verbose]\n\
     \x20 simulate  --taskset FILE --columns N [--scheduler nf|fkf] [--horizon P]\n\
     \x20           [--placement free|first-fit|best-fit|worst-fit] [--overhead-per-column X] [--trace]\n\
     \x20 size      --taskset FILE [--max N] [--exact]\n\
     \x20 generate  --n N [--seed S] [--figure fig3a|fig3b|fig4a|fig4b] [--pretty]\n\
     \x20 tables    (the paper's Tables 1-3: verdicts in f64 and exact arithmetic,\n\
     \x20           a simulation cross-check and the Table 3 GN2 walkthrough)\n\
     \x20 sweep     [--figure fig3a|fig3b|fig4a|fig4b] [--bins N] [--per-bin M]\n\
     \x20           [--workers W] [--seed S] [--out FILE.json|FILE.csv]\n\
     \x20           [--deterministic] [--metrics-out FILE.json|FILE.txt]\n\
     \x20           (parallel DP/GN1/GN2/AnyOf acceptance-ratio curves;\n\
     \x20           output is byte-identical for any --workers)\n\
     \x20 study     <{}>\n\
     \x20           [--figure fig3a|fig3b|fig4a|fig4b|all] [--per-bin M] [--seed S]\n\
     \x20           [--sim-horizon F] [--workers W] [--out FILE.json|FILE.csv]\n\
     \x20           (the paper's figures with both simulations, the X1-X3\n\
     \x20           ablations and the extension studies; `all` figures only\n\
     \x20           for `figures`; byte-identical for any --workers)\n\
     \x20 conform   [--figure fig3a|fig3b|fig4a|fig4b|all] [--bins N] [--per-bin M]\n\
     \x20           [--sim-horizon F] [--workers W] [--seed S] [--out FILE.json|FILE.csv]\n\
     \x20           [--deterministic] [--metrics-out FILE.json|FILE.txt]\n\
     \x20           [--twod [--samples N]]\n\
     \x20           (cross-validate DP/GN1/GN2/AnyOf against the simulator;\n\
     \x20           exit 1 on any SOUNDNESS-VIOLATION; byte-identical for any --workers)\n\
     \x20 serve     --columns N [--shards K] [--workers W] [--batch B]\n\
     \x20           [--sessions MAX] [--cache ENTRIES|off] [--exact-margin EPS]\n\
     \x20           [--listen stdio|tcp://HOST:PORT|unix://PATH] [--conns MAX]\n\
     \x20           [--input FILE] [--deterministic]\n\
     \x20           [--metrics-out FILE.json|FILE.txt]\n\
     \x20           (multi-tenant JSONL admission-control service; the default\n\
     \x20           stdio listener reads stdin/stdout, socket listeners serve\n\
     \x20           many concurrent connections byte-identically; v2 requests\n\
     \x20           carry a `session` id with create/pause/resume/snapshot/\n\
     \x20           restore/destroy lifecycle ops, v1 sessionless requests hit\n\
     \x20           the `default` session)\n\
     \x20 client    --connect tcp://HOST:PORT|unix://PATH [--input FILE]\n\
     \x20           (stream JSONL requests to a serve listener, half-close,\n\
     \x20           and print the response transcript to stdout)\n\
     \x20 loadgen   [--profile poisson|bursty|adversarial|all] [--ops N] [--sessions K]\n\
     \x20           [--columns N] [--rounds R] [--workers W] [--seed S] [--soak SECS]\n\
     \x20           [--cache ENTRIES|off] [--deterministic] [--out FILE.json|FILE.csv]\n\
     \x20           [--metrics-out FILE.json|FILE.txt]\n\
     \x20           [--target tcp://HOST:PORT|unix://PATH [--conns N] [--requests M]]\n\
     \x20           (traffic-shaped load generator with p50/p99/p999 latency\n\
     \x20           histograms; --deterministic output is byte-identical for\n\
     \x20           any --workers; --metrics-out exports the fpga-rt-obs/1\n\
     \x20           telemetry snapshot, available on sweep/conform/serve too;\n\
     \x20           --target switches to the socket client mode, driving a\n\
     \x20           running serve listener over N concurrent connections and\n\
     \x20           exiting nonzero on any dropped or reordered response)",
        studies.join("|")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(line: &[&str]) -> (ExitCode, String) {
        let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let code = run(&args, &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn no_args_is_error_with_usage() {
        let (code, _) = run_str(&[]);
        assert!(matches!(code, ExitCode::Error(msg) if msg.contains("usage")));
    }

    #[test]
    fn unknown_command_is_error() {
        let (code, _) = run_str(&["frobnicate"]);
        assert!(matches!(code, ExitCode::Error(_)));
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_str(&["help"]);
        assert_eq!(code, ExitCode::Accepted);
        assert!(out.contains("simulate"));
    }

    #[test]
    fn tables_runs() {
        let (code, out) = run_str(&["tables"]);
        assert_eq!(code, ExitCode::Accepted);
        assert!(out.contains("Table 3"));
        assert!(out.contains("accept"));
        assert!(out.contains("simulation   EDF-NF: no miss within 200·Tmax"));
        assert!(out.contains("GN2 λ walkthrough for Table 3"));
    }

    /// Each command's section of `usage()` mentions exactly the flags the
    /// parser accepts for it.
    #[test]
    fn usage_lists_exactly_the_accepted_flags() {
        use std::collections::{BTreeMap, BTreeSet};
        let mut documented: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut current = None;
        for line in usage().lines() {
            let Some(body) = line.strip_prefix("  ") else { continue };
            if body.starts_with(|c: char| c.is_ascii_alphabetic()) {
                let name = body.split_whitespace().next().unwrap().to_string();
                documented.entry(name.clone()).or_default();
                current = Some(name);
            }
            let Some(name) = &current else { continue };
            for token in body.split("--").skip(1) {
                let flag: String =
                    token.chars().take_while(|c| c.is_ascii_lowercase() || *c == '-').collect();
                documented.get_mut(name).unwrap().insert(flag);
            }
        }
        let names: BTreeSet<&str> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(documented.keys().map(String::as_str).collect::<BTreeSet<_>>(), names);
        for command in &COMMANDS {
            let accepted: BTreeSet<String> =
                command.valued.iter().chain(command.switches).map(|f| f.to_string()).collect();
            assert_eq!(documented[command.name], accepted, "usage of {}", command.name);
        }
    }

    /// The strict parser: unknown flags, values on switches and stray
    /// positional arguments exit 2 with a message naming the argument.
    #[test]
    fn unknown_flags_and_stray_arguments_are_usage_errors() {
        let cases: [(&[&str], &str); 5] = [
            (&["sweep", "fig4b", "--bins", "2", "--per-bin", "5"], "unexpected argument \"fig4b\""),
            (&["sweep", "--figure", "fig3b", "--per-bni", "500"], "unknown flag --per-bni"),
            (&["serve", "--columns", "10", "--deterministic", "yes"], "--deterministic takes no"),
            (&["tables", "--seed", "7"], "tables: unknown flag --seed"),
            (&["study", "figures", "--bins", "3"], "study: unknown flag --bins"),
        ];
        for (line, expect) in cases {
            let (code, out) = run_str(line);
            assert!(out.is_empty(), "{line:?} ran: {out}");
            assert!(
                matches!(&code, ExitCode::Error(m) if m.contains(expect)),
                "{line:?}: {code:?}"
            );
        }
    }
}
