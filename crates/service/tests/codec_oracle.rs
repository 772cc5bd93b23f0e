//! The JSONL codec against reference implementations.
//!
//! * `render_response` writes each response straight into its line; the
//!   reference renders the same response through the `serde::Value` tree
//!   (the response encoding the service used before), and the two must be
//!   byte-identical for any response.
//! * The JSON parser copies string runs in one piece; the reference is the
//!   per-code-point string decoder it replaced, and both must decode any
//!   string literal to the same value or the same error.

use fpga_rt_obs::{Registry, Snapshot};
use fpga_rt_service::{
    render_response, PerTaskMargin, QueryStats, Response, SessionSnapshot, SnapshotTask,
    TaskParams, TierCounts,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};

/// The reference encoding: every field through its `Serialize` impl into
/// a `Value` map, the v2 keys only when present, then `serde_json`.
fn reference_render(r: &Response) -> String {
    let mut entries: Vec<(String, Value)> = vec![
        ("id".to_string(), r.id.to_value()),
        ("seq".to_string(), r.seq.to_value()),
        ("op".to_string(), r.op.to_value()),
        ("shard".to_string(), r.shard.to_value()),
        ("ok".to_string(), r.ok.to_value()),
        ("verdict".to_string(), r.verdict.to_value()),
        ("tier".to_string(), r.tier.to_value()),
        ("handle".to_string(), r.handle.to_value()),
        ("tasks".to_string(), r.tasks.to_value()),
        ("ut".to_string(), r.ut.to_value()),
        ("us".to_string(), r.us.to_value()),
        ("margin".to_string(), r.margin.to_value()),
        ("margins".to_string(), r.margins.to_value()),
        ("stats".to_string(), r.stats.to_value()),
        ("obs".to_string(), r.obs.to_value()),
        ("reason".to_string(), r.reason.to_value()),
        ("error".to_string(), r.error.to_value()),
        ("latency_us".to_string(), r.latency_us.to_value()),
    ];
    if let Some(session) = &r.session {
        entries.push(("session".to_string(), session.to_value()));
    }
    if let Some(lifecycle) = &r.lifecycle {
        entries.push(("lifecycle".to_string(), lifecycle.to_value()));
    }
    if let Some(snapshot) = &r.snapshot {
        entries.push(("snapshot".to_string(), snapshot.to_value()));
    }
    serde_json::to_string(&Value::Map(entries)).expect("serialization is infallible")
}

/// Characters a hostile or unusual string is built from: quotes,
/// backslashes, every kind of control character, DEL, the JSON-special
/// `/` and multibyte UTF-8 of every length.
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '-', '"', '\\', '/', '\n', '\r', '\t', '\u{08}', '\u{0c}', '\u{00}',
    '\u{01}', '\u{1f}', '\u{7f}', 'é', 'λ', '€', '\u{2028}', '𝄞',
];

fn string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..10usize);
    (0..len).map(|_| PALETTE[rng.gen_range(0..PALETTE.len())]).collect()
}

/// Special values (NaN, ±∞, ±0, subnormals, extremes) or arbitrary bits.
fn float(rng: &mut StdRng) -> f64 {
    const SPECIAL: &[f64] = &[
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        5e-324,
        -2.2250738585072e-308,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1.0,
        0.1,
        1e21,
        1e-7,
    ];
    if rng.gen_bool(0.5) {
        SPECIAL[rng.gen_range(0..SPECIAL.len())]
    } else {
        f64::from_bits(rng.gen::<u64>())
    }
}

fn margin_rows(rng: &mut StdRng) -> Vec<PerTaskMargin> {
    (0..rng.gen_range(0..4usize))
        .map(|_| PerTaskMargin {
            index: rng.gen::<u64>() as usize,
            handle: rng.gen_bool(0.5).then(|| rng.gen::<u64>()),
            margin: float(rng),
        })
        .collect()
}

fn stats(rng: &mut StdRng) -> QueryStats {
    QueryStats {
        decisions: rng.gen::<u64>(),
        accepted: rng.gen::<u64>(),
        rejected: rng.gen::<u64>(),
        tiers: TierCounts {
            dp_inc: rng.gen::<u64>(),
            gn1: rng.gen::<u64>(),
            gn2: rng.gen::<u64>(),
            exact: rng.gen::<u64>(),
        },
    }
}

fn obs(rng: &mut StdRng) -> Snapshot {
    let registry = Registry::with_mode(rng.gen_bool(0.5));
    registry.set_meta("label", &string(rng));
    registry.add("admission/decisions", rng.gen::<u32>().into());
    registry.set_gauge("session/live", rng.gen_range(0..100u64));
    for _ in 0..rng.gen_range(0..4usize) {
        registry.record("protocol/parse_ns", rng.gen::<u32>().into());
    }
    let mut snapshot = registry.snapshot();
    snapshot.runner = rng.gen_bool(0.5).then(|| string(rng));
    snapshot
}

fn session_snapshot(rng: &mut StdRng) -> SessionSnapshot {
    SessionSnapshot {
        lifecycle: string(rng),
        next_handle: rng.gen::<u64>(),
        tasks: (0..rng.gen_range(0..3usize))
            .map(|_| SnapshotTask {
                handle: rng.gen::<u64>(),
                task: TaskParams {
                    exec: float(rng),
                    deadline: float(rng),
                    period: float(rng),
                    area: rng.gen::<u32>(),
                },
            })
            .collect(),
        stats: stats(rng),
    }
}

/// A response with every optional field present; every value comes from
/// `rng`.
fn full_response(rng: &mut StdRng) -> Response {
    Response {
        id: string(rng),
        seq: rng.gen::<u64>(),
        op: string(rng),
        shard: rng.gen::<u32>(),
        ok: rng.gen_bool(0.5),
        verdict: Some(string(rng)),
        tier: Some(string(rng)),
        handle: Some(rng.gen::<u64>()),
        tasks: Some(rng.gen::<u64>() as usize),
        ut: Some(float(rng)),
        us: Some(float(rng)),
        margin: Some(float(rng)),
        margins: Some(margin_rows(rng)),
        stats: Some(stats(rng)),
        obs: Some(obs(rng)),
        reason: Some(string(rng)),
        error: Some(string(rng)),
        latency_us: Some(rng.gen::<u64>()),
        session: Some(string(rng)),
        lifecycle: Some(string(rng)),
        snapshot: Some(session_snapshot(rng)),
    }
}

/// Number of optional fields of [`Response`].
const OPTIONAL: u32 = 16;

/// Keep optional field `k` of `r` exactly when bit `k` of `mask` is set.
fn masked(mut r: Response, mask: u32) -> Response {
    fn keep<T>(field: &mut Option<T>, mask: u32, bit: u32) {
        if mask & (1 << bit) == 0 {
            *field = None;
        }
    }
    keep(&mut r.verdict, mask, 0);
    keep(&mut r.tier, mask, 1);
    keep(&mut r.handle, mask, 2);
    keep(&mut r.tasks, mask, 3);
    keep(&mut r.ut, mask, 4);
    keep(&mut r.us, mask, 5);
    keep(&mut r.margin, mask, 6);
    keep(&mut r.margins, mask, 7);
    keep(&mut r.stats, mask, 8);
    keep(&mut r.obs, mask, 9);
    keep(&mut r.reason, mask, 10);
    keep(&mut r.error, mask, 11);
    keep(&mut r.latency_us, mask, 12);
    keep(&mut r.session, mask, 13);
    keep(&mut r.lifecycle, mask, 14);
    keep(&mut r.snapshot, mask, 15);
    r
}

#[test]
fn every_present_absent_combination_renders_like_the_reference() {
    // Plain values: the proptest below covers hostile ones.
    let registry = Registry::with_mode(true);
    registry.add("admission/decisions", 3);
    let task = TaskParams { exec: 1.0, deadline: 5.0, period: 5.0, area: 2 };
    let stats = QueryStats { decisions: 3, accepted: 2, rejected: 1, ..QueryStats::default() };
    let full = Response::ok("admit", 4)
        .id("r4")
        .shard(1)
        .verdict(true)
        .tier("gn2")
        .handle(Some(7))
        .aggregates(2, 0.45, 1.5)
        .margin(Some(-0.25))
        .margins(Some(vec![PerTaskMargin { index: 0, handle: None, margin: 0.5 }]))
        .stats(stats)
        .obs(registry.snapshot())
        .reason(Some("knife edge".to_string()))
        .error("stale handle")
        .latency_us(12)
        .session("alice")
        .lifecycle("active")
        .snapshot(SessionSnapshot {
            lifecycle: "active".to_string(),
            next_handle: 8,
            tasks: vec![SnapshotTask { handle: 7, task }],
            stats,
        })
        .build();
    for mask in 0..(1u32 << OPTIONAL) {
        let resp = masked(full.clone(), mask);
        assert_eq!(render_response(&resp), reference_render(&resp), "{resp:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn render_matches_the_value_tree_reference(mask in 0u32..(1 << OPTIONAL), seed in 0u64..u64::MAX) {
        let resp = masked(full_response(&mut StdRng::seed_from_u64(seed)), mask);
        prop_assert_eq!(render_response(&resp), reference_render(&resp), "{:?}", resp);
    }

    #[test]
    fn string_literals_decode_like_the_per_character_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let literal = string_literal(&mut rng);
        let want = reference_decode(&literal);
        let got = serde_json::from_str::<Value>(&literal).map_err(|e| e.to_string());
        prop_assert_eq!(got, want.clone().map(Value::Str), "{}", literal);
        if let Ok(s) = want {
            // The same literal inside containers, as a key and as a value.
            let nested = format!("[{literal},{{{literal}:[{literal}]}}]");
            let got: Value = serde_json::from_str(&nested).expect("well-formed");
            let want = Value::Seq(vec![
                Value::Str(s.clone()),
                Value::Map(vec![(s.clone(), Value::Seq(vec![Value::Str(s)]))]),
            ]);
            prop_assert_eq!(got, want, "{}", nested);
        }
    }
}

/// A JSON string literal over [`PALETTE`], each character written raw, as
/// a short escape or as a `\u` escape; sometimes broken (a bad escape or
/// no closing quote) so the error paths are compared too.
fn string_literal(rng: &mut StdRng) -> String {
    let mut lit = String::from("\"");
    for c in string(rng).chars() {
        let short = match c {
            '"' => "\\\"",
            '\\' => "\\\\",
            '/' => "\\/",
            '\n' => "\\n",
            '\r' => "\\r",
            '\t' => "\\t",
            '\u{08}' => "\\b",
            '\u{0c}' => "\\f",
            _ => "",
        };
        match rng.gen_range(0..3u8) {
            0 if !short.is_empty() => lit.push_str(short),
            1 if (c as u32) <= 0xffff => lit.push_str(&format!("\\u{:04x}", c as u32)),
            _ if c == '"' || c == '\\' => lit.push_str(short),
            _ => lit.push(c),
        }
    }
    match rng.gen_range(0..8u8) {
        0 => lit.push_str("\\q\""),
        1 => lit.push_str("\\u12"),
        2 => {}
        _ => lit.push('"'),
    }
    lit
}

/// The per-code-point string decoder the parser used before it copied
/// runs: the same escapes and the same error messages.
fn reference_decode(literal: &str) -> Result<String, String> {
    let body = literal.strip_prefix('"').expect("literals open with a quote");
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            // Generated literals escape every inner quote: this one closes.
            '"' => return Ok(out),
            '\\' => match chars.next().map(|(_, e)| e) {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('b') => out.push('\u{08}'),
                Some('f') => out.push('\u{0c}'),
                Some('u') => {
                    let hex = body.get(i + 2..i + 6).ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                    out.push(char::from_u32(code).ok_or("unsupported \\u escape")?);
                    for _ in 0..4 {
                        chars.next();
                    }
                }
                other => return Err(format!("invalid escape {other:?}")),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}
