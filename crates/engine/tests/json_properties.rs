//! Property tests for the JSON number path (`fairrank_engine::json`):
//!
//! 1. write → parse round trip: every finite `f64`, serialized by the
//!    engine's writer (a bare `Json::Number` or a `RankResult` metric),
//!    parses back bit for bit through both parser front-ends — over
//!    random bit patterns and the edge classes (subnormals, ±0, powers
//!    of ten, integers above 2⁵³); exponent notation lexes exactly too;
//! 2. arbitrary bytes never panic a parser: each input yields a value
//!    or an error;
//! 3. the integer accessors return only non-negative integral values
//!    in range, unchanged, and accept every integer the writer prints
//!    in integer form.

use fairrank_engine::job::RankResult;
use fairrank_engine::json::{Json, JsonArena};
use proptest::prelude::*;

/// A finite `f64` from raw bits, or one of the edge classes.
fn finite_from(bits: u64, class: u8) -> f64 {
    let pick = (bits >> 8) as usize;
    match class % 6 {
        // random bit patterns, non-finite ones folded into finite range
        0 | 1 => {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                f64::from_bits(bits & !(1 << 62))
            }
        }
        // subnormals
        2 => f64::from_bits(bits & ((1 << 52) - 1) | (bits & 1 << 63)),
        // ±0 and the extremes
        3 => [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
        ][pick % 6],
        // powers of ten
        4 => {
            let e = (pick % 617) as i32 - 308;
            let x = format!("1e{e}")
                .parse::<f64>()
                .expect("power of ten parses");
            if bits & 1 == 1 {
                -x
            } else {
                x
            }
        }
        // integers above 2⁵³ (and around the writer's integer cutoff)
        _ => {
            let base = [1u64 << 53, 9_000_000_000_000_000, 1 << 63][pick % 3];
            let x = base.wrapping_add(bits >> 40) as f64;
            if bits & 1 == 1 {
                -x
            } else {
                x
            }
        }
    }
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// 32 values per case: 2048 per property over the shim's 64 cases.
fn values() -> impl Strategy<Value = Vec<(u64, u8)>> {
    prop::collection::vec((any::<u64>(), any::<u8>()), 32)
}

proptest! {
    #[test]
    fn written_numbers_parse_back_bit_for_bit(draws in values()) {
        for x in draws.into_iter().map(|(bits, class)| finite_from(bits, class)) {
        let text = Json::Number(x).to_string();
        let parsed = Json::parse(&text).expect("written number parses");
        prop_assert!(same_bits(parsed.as_f64().expect("a number"), x), "{x:e} wrote {text}");
        let mut arena = JsonArena::new();
        let value = arena.parse(&text).expect("arena parses a written number");
        prop_assert!(same_bits(value.as_f64().expect("a number"), x), "{x:e} wrote {text}");

        // the same value as a response metric
        let result = RankResult {
            algorithm: "mallows".to_string(),
            ranking: vec![1, 0],
            consensus: None,
            metrics: vec![("m".to_string(), x)],
        };
        let mut body = String::new();
        result.write_json(&mut body);
        let parsed = Json::parse(&body).expect("response body parses");
        let metric = parsed.get("metrics").and_then(|m| m.get("m")).and_then(Json::as_f64);
        prop_assert!(same_bits(metric.expect("metric present"), x), "{x:e} wrote {body}");
        }
    }

    #[test]
    fn exponent_notation_lexes_exactly(draws in values()) {
        for x in draws.into_iter().map(|(bits, class)| finite_from(bits, class)) {
        for text in [format!("{x:e}"), format!("{x:E}"), format!("[{x:e}]")] {
            let parsed = Json::parse(&text).expect("exponent form parses");
            let value = match &parsed {
                Json::Array(items) => items[0].as_f64(),
                other => other.as_f64(),
            };
            prop_assert!(same_bits(value.expect("a number"), x), "{text}");
        }
        }
    }

    #[test]
    fn arbitrary_bytes_yield_a_value_or_an_error(
        picks in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        // mostly number-lexer bytes, with structure and raw bytes mixed in
        const ALPHABET: &[u8] = b"0123456789.eE+--00119.e[]{},:\" tnulfase\\";
        let bytes: Vec<u8> = picks
            .iter()
            .map(|&b| if b < 224 { ALPHABET[b as usize % ALPHABET.len()] } else { b })
            .collect();
        let text = String::from_utf8_lossy(&bytes);
        let mut arena = JsonArena::new();
        match (Json::parse(&text), arena.parse(&text)) {
            (Ok(tree), Ok(flat)) => {
                // both front-ends agree on every number they accept
                if let (Some(a), Some(b)) = (tree.as_f64(), flat.as_f64()) {
                    prop_assert!(same_bits(a, b) && a.is_finite(), "{text}");
                }
            }
            (Err(a), Err(b)) => prop_assert!(!a.message.is_empty() && !b.message.is_empty()),
            (tree, flat) => prop_assert!(false, "{text}: {tree:?} vs {:?}", flat.is_ok()),
        }
    }

    #[test]
    fn integer_accessors_accept_exactly_the_in_range_integers(draws in values()) {
        for x in draws.into_iter().map(|(bits, class)| finite_from(bits, class)) {
        let mut arena = JsonArena::new();
        let text = Json::Number(x).to_string();
        let flat = arena.parse(&text).expect("written number parses");
        let integral = x >= 0.0 && x.fract() == 0.0;
        for (value, limit) in [
            (Json::Number(x).as_usize().map(|v| v as u64), usize::MAX as f64),
            (Json::Number(x).as_u64(), u64::MAX as f64),
            (flat.as_usize().map(|v| v as u64), usize::MAX as f64),
            (flat.as_u64(), u64::MAX as f64),
        ] {
            match value {
                Some(v) => prop_assert!(integral && x < limit && v as f64 == x, "{x:e} -> {v}"),
                // the writer prints integers below 9·10¹⁵ in integer
                // form; every one of them must read back as an integer
                None => prop_assert!(!integral || x >= 9.0e15, "{x:e} rejected"),
            }
        }
        }
    }
}

#[test]
fn out_of_range_integers_are_rejected() {
    for text in ["-1", "0.5", "1e300", "18446744073709551616", "-0.0000001"] {
        let value = Json::parse(text).expect("valid number");
        assert_eq!(value.as_u64(), None, "{text}");
        assert_eq!(value.as_usize(), None, "{text}");
    }
    assert_eq!(
        Json::parse("9007199254740992").unwrap().as_u64(),
        Some(1 << 53)
    );
    assert_eq!(Json::Integer(u64::MAX).as_u64(), Some(u64::MAX));
}
