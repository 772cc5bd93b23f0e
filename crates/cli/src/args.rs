//! The command line's one argument parser and its checked flag parsers —
//! the single implementation of the CLI's usage-error discipline.
//!
//! [`Args`] splits a command line into flags and positional arguments;
//! [`Args::check_flags`] rejects any flag the command does not accept, so
//! a typo such as `--per-bni 500` is a usage error rather than a silently
//! default-sized run. Every numeric, enum and path flag then resolves
//! through a parser here that rejects unparseable values instead of
//! falling back to the default (`--per-bin 25O` must not quietly gate a
//! different population). All parsers return `Err(String)`, which the
//! dispatcher maps to process exit code 2, so every rejected form
//! produces a uniform usage error. The rejected forms are
//! regression-tested once, centrally, below and in `commands.rs`.

use fpga_rt_exp::studies::DEFAULT_SIM_HORIZON;
use fpga_rt_obs::{Obs, Snapshot};
use fpga_rt_service::Endpoint;
use std::collections::HashMap;

/// Parsed `--key value` / `--flag` command-line options plus positional
/// arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// `--key value` pairs (a key present without a value maps to `""`).
    pub flags: HashMap<String, String>,
    /// Non-flag arguments in order.
    pub positional: Vec<String>,
    /// Flags given more than once (the last value is kept in `flags`).
    repeated: Vec<String>,
}

impl Args {
    /// Parse from any iterator of argument strings (without the binary
    /// and command names). A `--key` takes the next argument as its value
    /// unless that argument is itself a `--flag`.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().unwrap_or_default(),
                    _ => String::new(),
                };
                if out.flags.insert(key.to_string(), value).is_some() {
                    out.repeated.push(key.to_string());
                }
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    /// `true` when `--key` was present (with or without a value).
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// `--seed` as a **checked** `u64`: absent means `default`, but a
    /// present-and-unparseable value (`--seed 0x2a`, `--seed 12e3`, an
    /// empty value from `--seed --deterministic`) is a usage error —
    /// silently substituting the default would reproduce a different
    /// population than the one the operator asked for.
    pub fn seed(&self, default: u64) -> Result<u64, String> {
        match self.flags.get("seed") {
            None => Ok(default),
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| format!("--seed expects an unsigned 64-bit integer, got {v:?}")),
        }
    }

    /// Reject every flag of `command` outside `valued` (flags that take a
    /// value) and `switches` (flags that take none), a value given to a
    /// switch — `--deterministic fig4b` would otherwise swallow the stray
    /// argument — and a flag given twice. Offenders are reported in name
    /// order.
    pub(crate) fn check_flags(
        &self,
        command: &str,
        valued: &[&str],
        switches: &[&str],
    ) -> Result<(), String> {
        if let Some(key) = self.repeated.first() {
            return Err(format!("{command}: --{key} is given more than once"));
        }
        let mut keys: Vec<&String> = self.flags.keys().collect();
        keys.sort();
        for key in keys {
            let value = &self.flags[key];
            if switches.contains(&key.as_str()) {
                if !value.is_empty() {
                    return Err(format!("{command}: --{key} takes no value, got {value:?}"));
                }
            } else if !valued.contains(&key.as_str()) {
                let accepted: Vec<String> =
                    valued.iter().chain(switches).map(|f| format!("--{f}")).collect();
                return Err(format!(
                    "{command}: unknown flag --{key} (accepted: {})",
                    accepted.join(" ")
                ));
            }
        }
        Ok(())
    }
}

/// Parse `--key` as a count that must be ≥ 1 when given. Returns `None`
/// when the flag is absent (the caller's default applies — e.g. "all
/// cores" for worker counts). An explicit `0` or an unparseable value is
/// a usage error: for `--workers 0` / `--shards 0` a silent fallback used
/// to leak the internal "auto" sentinel into, or silently correct,
/// downstream sizing.
pub(crate) fn positive_count(args: &Args, key: &str) -> Result<Option<usize>, String> {
    match args.flags.get(key) {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(0) => Err(format!("--{key} must be ≥ 1 (omit the flag for the default)")),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!("--{key} expects a positive integer, got {v:?}")),
        },
    }
}

/// Parse `--cache <entries>|off` (serve and loadgen): absent keeps the
/// default 1024-entry per-session verdict cache, `off` disables caching, a
/// positive integer sizes it. `--cache 0` is a usage error rather than a
/// silent alias — it is ambiguous between "off" and "unbounded" — matching
/// the [`positive_count`] convention.
pub(crate) fn cache_entries(args: &Args) -> Result<Option<usize>, String> {
    match args.flags.get("cache").map(String::as_str) {
        None => Ok(Some(1024)),
        Some("off") => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(0) => Err("--cache must be ≥ 1 entries, or `off` to disable caching".into()),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!("--cache expects a positive entry count or `off`, got {v:?}")),
        },
    }
}

/// Parse `--exact-margin` (serve): the knife-edge threshold below which
/// the admission cascade re-checks a decision in exact arithmetic. Must be
/// finite and non-negative; the default is the service's 1e-9.
pub(crate) fn exact_margin(args: &Args) -> Result<f64, String> {
    let margin = parsed_flag(args, "exact-margin", 1e-9f64)?;
    if !(margin.is_finite() && margin >= 0.0) {
        return Err(format!("--exact-margin must be a finite non-negative value, got {margin}"));
    }
    Ok(margin)
}

/// Parse `--listen stdio|tcp://HOST:PORT|unix://PATH` (serve): the
/// transport endpoint, defaulting to stdio when absent. Delegates to
/// [`Endpoint::parse`] so the accepted forms are spelled out once, in
/// the service crate, and every rejected form is a usage error (process
/// exit code 2) naming them.
pub(crate) fn listen_endpoint(args: &Args) -> Result<Endpoint, String> {
    match args.flags.get("listen") {
        None => Ok(Endpoint::Stdio),
        Some(spec) => Endpoint::parse(spec).map_err(|e| format!("--listen: {e}")),
    }
}

/// Parse `--connect tcp://HOST:PORT|unix://PATH` (client): required, and
/// it must name a socket — `stdio` is a listener-side spelling, there is
/// nothing for a client to dial.
pub(crate) fn connect_endpoint(args: &Args) -> Result<Endpoint, String> {
    let Some(spec) = args.flags.get("connect") else {
        return Err("--connect tcp://HOST:PORT or --connect unix://PATH is required".into());
    };
    match Endpoint::parse(spec).map_err(|e| format!("--connect: {e}"))? {
        Endpoint::Stdio => {
            Err("--connect expects a socket endpoint (`tcp://HOST:PORT` or `unix://PATH`), \
                 not `stdio`"
                .into())
        }
        endpoint => Ok(endpoint),
    }
}

/// Parse `--sim-horizon` (conform, study): a finite positive multiple of
/// the largest task period, [`DEFAULT_SIM_HORIZON`] when absent.
pub(crate) fn sim_horizon(args: &Args) -> Result<f64, String> {
    let horizon = parsed_flag(args, "sim-horizon", DEFAULT_SIM_HORIZON)?;
    if !(horizon.is_finite() && horizon > 0.0) {
        return Err(format!("--sim-horizon must be a positive factor, got {horizon}"));
    }
    Ok(horizon)
}

/// An artifact encoding, dispatched on the output file's extension.
///
/// Every file-writing flag (`--out`, `--metrics-out`) resolves its path
/// through [`artifact_target`] against the subcommand's supported set.
/// Unrecognized extensions are usage errors (process exit code 2) naming
/// the accepted extensions — previously each subcommand had its own
/// fallback ("anything that isn't `.csv` is JSON"), so a typo like
/// `--out curves.cvs` silently wrote the wrong format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArtifactFormat {
    /// Pretty-printed JSON (`.json`).
    Json,
    /// Comma-separated values (`.csv`).
    Csv,
    /// Aligned plain text (`.txt`).
    Text,
}

impl ArtifactFormat {
    const fn extension(self) -> &'static str {
        match self {
            ArtifactFormat::Json => ".json",
            ArtifactFormat::Csv => ".csv",
            ArtifactFormat::Text => ".txt",
        }
    }
}

/// Resolve `--key FILE` against the formats the subcommand supports:
/// `Ok(None)` when the flag is absent (or empty), the path/format pair
/// when the extension matches, and a usage error listing the supported
/// extensions otherwise. Called before the expensive run so a typo fails
/// in milliseconds, not after the population has been evaluated.
pub(crate) fn artifact_target(
    args: &Args,
    key: &str,
    supported: &[ArtifactFormat],
) -> Result<Option<(String, ArtifactFormat)>, String> {
    let Some(path) = args.flags.get(key).filter(|p| !p.is_empty()) else {
        return Ok(None);
    };
    match supported.iter().copied().find(|f| path.ends_with(f.extension())) {
        Some(format) => Ok(Some((path.clone(), format))),
        None => {
            let accepted: Vec<&str> = supported.iter().map(|f| f.extension()).collect();
            Err(format!(
                "--{key} {path:?}: unsupported file extension (expected one of {})",
                accepted.join("|")
            ))
        }
    }
}

/// Parse `--metrics-out FILE.json|FILE.txt`, returning the resolved
/// target plus the [`Obs`] handle the subcommand should instrument with:
/// a live registry (deterministic when asked, so time-valued fields zero
/// and the artifact byte-diffs across `--workers`) when the flag is
/// given, and the no-op [`Obs::off`] otherwise — telemetry must cost
/// nothing unless requested.
pub(crate) fn metrics_target(
    args: &Args,
    deterministic: bool,
) -> Result<(Option<(String, ArtifactFormat)>, Obs), String> {
    let target =
        artifact_target(args, "metrics-out", &[ArtifactFormat::Json, ArtifactFormat::Text])?;
    let obs = if target.is_some() { Obs::on(deterministic) } else { Obs::off() };
    Ok((target, obs))
}

/// Render and write the metrics snapshot to the resolved `--metrics-out`
/// target (no-op when the flag was absent).
pub(crate) fn write_metrics(
    target: &Option<(String, ArtifactFormat)>,
    snapshot: &Snapshot,
) -> Result<(), String> {
    let Some((path, format)) = target else { return Ok(()) };
    let rendered = match format {
        ArtifactFormat::Json => snapshot.render_json(),
        ArtifactFormat::Text => snapshot.render_text(),
        // `metrics_target` only offers .json|.txt.
        ArtifactFormat::Csv => unreachable!("metrics artifacts are .json|.txt"),
    };
    std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Parse `--key` as a typed value, erroring on unparseable input instead
/// of silently using the default.
pub(crate) fn parsed_flag<T: std::str::FromStr>(
    args: &Args,
    key: &str,
    default: T,
) -> Result<T, String> {
    match args.flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse::<T>().map_err(|_| format!("--{key}: cannot parse {v:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &[&str]) -> Args {
        Args::from_args(line.iter().map(|s| s.to_string()))
    }

    /// Satellite regression: the four shared parsers reject each bad form
    /// once, centrally — subcommand tests only need to check the wiring.
    #[test]
    fn each_rejected_form_is_a_usage_error() {
        // --workers / --shards / any count flag.
        assert!(positive_count(&args(&["--workers", "0"]), "workers")
            .unwrap_err()
            .contains("must be ≥ 1"));
        assert!(positive_count(&args(&["--shards", "abc"]), "shards")
            .unwrap_err()
            .contains("positive integer"));
        assert_eq!(positive_count(&args(&[]), "workers").unwrap(), None);
        assert_eq!(positive_count(&args(&["--workers", "3"]), "workers").unwrap(), Some(3));
        // --cache.
        assert!(cache_entries(&args(&["--cache", "0"])).unwrap_err().contains("must be ≥ 1"));
        assert!(cache_entries(&args(&["--cache", "lots"]))
            .unwrap_err()
            .contains("positive entry count"));
        assert_eq!(cache_entries(&args(&[])).unwrap(), Some(1024));
        assert_eq!(cache_entries(&args(&["--cache", "off"])).unwrap(), None);
        // --seed, including `--seed --flag`, which leaves an empty value.
        for bad in [&["--seed", "12e3"][..], &["--seed", "0x2a"], &["--seed", "-1"], &["--seed"]] {
            assert!(args(bad).seed(7).unwrap_err().contains("unsigned 64-bit"), "{bad:?}");
        }
        assert_eq!(args(&[]).seed(7).unwrap(), 7);
        assert_eq!(args(&["--seed", "123"]).seed(7).unwrap(), 123);
        // --sim-horizon.
        assert!(sim_horizon(&args(&["--sim-horizon", "0"])).unwrap_err().contains("positive"));
        assert!(sim_horizon(&args(&["--sim-horizon", "inf"])).unwrap_err().contains("positive"));
        assert_eq!(sim_horizon(&args(&[])).unwrap(), DEFAULT_SIM_HORIZON);
        // --exact-margin.
        assert!(exact_margin(&args(&["--exact-margin", "-1"]))
            .unwrap_err()
            .contains("finite non-negative"));
        assert!(exact_margin(&args(&["--exact-margin", "inf"]))
            .unwrap_err()
            .contains("finite non-negative"));
        assert!(exact_margin(&args(&["--exact-margin", "wide"]))
            .unwrap_err()
            .contains("cannot parse"));
        assert_eq!(exact_margin(&args(&[])).unwrap(), 1e-9);
        assert_eq!(exact_margin(&args(&["--exact-margin", "0"])).unwrap(), 0.0);
        // --listen / --connect endpoints.
        for bad in ["ftp://h:1", "tcp://:7411", "tcp://host", "unix://", "127.0.0.1:7411"] {
            let err = listen_endpoint(&args(&["--listen", bad])).unwrap_err();
            assert!(err.starts_with("--listen:"), "{err}");
            assert!(err.contains("tcp://HOST:PORT") && err.contains("unix://PATH"), "{err}");
        }
        assert_eq!(listen_endpoint(&args(&[])).unwrap(), Endpoint::Stdio);
        assert_eq!(listen_endpoint(&args(&["--listen", "stdio"])).unwrap(), Endpoint::Stdio);
        assert!(matches!(
            listen_endpoint(&args(&["--listen", "tcp://127.0.0.1:0"])).unwrap(),
            Endpoint::Tcp(_)
        ));
        assert!(connect_endpoint(&args(&[])).unwrap_err().contains("is required"));
        assert!(connect_endpoint(&args(&["--connect", "stdio"]))
            .unwrap_err()
            .contains("not `stdio`"));
        assert!(connect_endpoint(&args(&["--connect", "tcp://host:"]))
            .unwrap_err()
            .contains("tcp://HOST:PORT"));
        assert!(matches!(
            connect_endpoint(&args(&["--connect", "unix:///tmp/x.sock"])).unwrap(),
            Endpoint::Unix(_)
        ));
        // --out / --metrics-out extensions.
        assert!(artifact_target(&args(&["--out", "x.yaml"]), "out", &[ArtifactFormat::Json])
            .unwrap_err()
            .contains(".json"));
        assert!(metrics_target(&args(&["--metrics-out", "m.csv"]), true)
            .unwrap_err()
            .contains(".json|.txt"));
        // Typed flags.
        assert!(parsed_flag::<usize>(&args(&["--per-bin", "25O"]), "per-bin", 1)
            .unwrap_err()
            .contains("cannot parse"));
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = args(&["figures", "--per-bin", "500", "--deterministic", "--seed", "7", "x"]);
        assert_eq!(a.positional, vec!["figures", "x"]);
        assert_eq!(a.flags["per-bin"], "500");
        assert_eq!(a.flags["deterministic"], "", "a flag followed by a flag has no value");
        assert_eq!(a.seed(0).unwrap(), 7);
        assert!(a.has("deterministic") && !a.has("missing"));
    }

    /// Unknown flags and values given to switches are usage errors that
    /// name the flag.
    #[test]
    fn check_flags_rejects_unknown_flags_and_switch_values() {
        let check =
            |line: &[&str]| args(line).check_flags("sweep", &["per-bin"], &["deterministic"]);
        assert!(check(&["--per-bin", "5", "--deterministic"]).is_ok());
        let err = check(&["--per-bni", "5"]).unwrap_err();
        assert!(err.contains("unknown flag --per-bni"), "{err}");
        assert!(err.contains("--per-bin --deterministic"), "lists the accepted flags: {err}");
        let err = check(&["--deterministic", "fig4b"]).unwrap_err();
        assert!(err.contains("--deterministic takes no value"), "{err}");
        let err = check(&["--per-bin", "5", "--per-bin", "50"]).unwrap_err();
        assert!(err.contains("--per-bin is given more than once"), "{err}");
    }
}
