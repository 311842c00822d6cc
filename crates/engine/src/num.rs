//! Numbers to text, byte-identical to `core`'s `{}`.
//!
//! Every hot path that prints numbers goes through here: the CLI's
//! ranking render, the JSON writer, response index arrays and the job
//! digest's canonical form. [`write_u64`] is a two-digits-per-step
//! integer writer. [`write_f64`] prints the shortest decimal that
//! parses back to the value, as `{}` does, without going through
//! `core::fmt`:
//!
//! * **Fast path.** Find the fewest fraction digits `p ≤ 17` for which
//!   an integer `d < 9·10¹⁵` satisfies `d as f64 / 10^p == |x|`. Both
//!   operands of that division are exact (`d < 2⁵³`, `10^p ≤ 10²²`),
//!   and IEEE division rounds correctly, so the test is exactly "the
//!   decimal `d·10⁻ᵖ` parses back to `x`". Fewest fraction digits is
//!   fewest significant digits, which is what `{}` prints. When one
//!   integer passes at that `p`, it is the answer.
//! * **Fallback.** Everything the fast path cannot decide goes to
//!   `core`'s `{}`: two candidates at the shortest length (`{}` picks
//!   the nearer), `|x| ≥ 9·10¹⁵`, more than 17 fraction digits,
//!   subnormals and non-finite values.
//!
//! `crates/engine/tests/number_format.rs` checks both writers against
//! `{}` over random bit patterns and the edge classes.

use std::fmt::Write as _;

/// `"00" "01" … "99"`: two digits per division step.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// `10^p` for every fraction length the fast path tries; each is an
/// exact `f64`.
const POW10: [f64; 18] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17,
];

/// Largest fraction length the fast path tries.
const MAX_FRACTION: usize = POW10.len() - 1;

/// Bound on the scaled value `|x|·10^p`: below it, every candidate
/// integer and ten times it are exact `f64`s (`< 2⁵³`), so a passing
/// length stays passing at the next one and the search may bisect.
const SCALED_LIMIT: f64 = 9.0e15;

/// Width of the digit buffer: a `u64` has at most 20 digits, and a
/// fast-path decimal needs 18 digits, a point and a sign.
const BUF: usize = 21;

/// Write the decimal digits of `v` right-aligned into `buf`; returns
/// the index of the first digit.
fn digits(mut v: u64, buf: &mut [u8; BUF]) -> usize {
    let mut start = BUF;
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        buf[start] = b'0' + v as u8;
    }
    start
}

/// Append ASCII bytes (always valid UTF-8: digits, sign and point).
fn push_ascii(bytes: &[u8], out: &mut String) {
    out.push_str(std::str::from_utf8(bytes).unwrap_or_default());
}

/// Append `v` in decimal, as `{}` prints it.
pub fn write_u64(v: u64, out: &mut String) {
    let mut buf = [0u8; BUF];
    let start = digits(v, &mut buf);
    push_ascii(&buf[start..], out);
}

/// Append `v` in decimal, as `{}` prints it.
pub fn write_usize(v: usize, out: &mut String) {
    write_u64(v as u64, out);
}

/// Append `x` exactly as `format!("{x}")` prints it.
pub fn write_f64(x: f64, out: &mut String) {
    let Some((d, p)) = shortest(x.abs()) else {
        let _ = write!(out, "{x}");
        return;
    };
    // the digits of d, zero-padded to at least one integer digit, then
    // the integer part moved one byte left to open the point
    let mut buf = [b'0'; BUF];
    let mut start = digits(d, &mut buf).min(BUF - 1 - p);
    if p > 0 {
        let point = BUF - p - 1;
        buf.copy_within(start..=point, start - 1);
        buf[point] = b'.';
        start -= 1;
    }
    if x.is_sign_negative() {
        start -= 1;
        buf[start] = b'-';
    }
    push_ascii(&buf[start..], out);
}

/// The shortest decimal `d·10⁻ᵖ` that parses back to `a` (`a ≥ 0`), or
/// `None` when the fast path cannot decide it (see the module docs).
fn shortest(a: f64) -> Option<(u64, usize)> {
    if a == 0.0 {
        return Some((0, 0));
    }
    if !(f64::MIN_POSITIVE..SCALED_LIMIT).contains(&a) {
        return None; // subnormal, too large or not finite
    }
    // bisect for the first length that decides: one with candidates,
    // or one out of the exact window; both tests are monotone in `p`
    let (mut lo, mut hi) = (0, MAX_FRACTION + 1);
    let mut found = None;
    while lo < hi {
        let p = (lo + hi) / 2;
        match candidates(a, p) {
            Candidates::None => lo = p + 1,
            Candidates::One(d) => {
                found = Some((d, p));
                hi = p;
            }
            Candidates::Undecided => {
                found = None;
                hi = p;
            }
        }
    }
    found
}

/// What one fraction length `p` says about `a`.
enum Candidates {
    /// No integer `d` has `d / 10^p == a`.
    None,
    /// Exactly one does.
    One(u64),
    /// Two do (a tie `{}` breaks by nearness), or `a·10^p` is out of
    /// the exact window.
    Undecided,
}

/// Below this scaled value only the nearest integer can be a candidate.
const NEAREST_LIMIT: f64 = (1u64 << 51) as f64;

/// The integers `d` with `d / 10^p == a`.
///
/// `a = m·2ᵉ` with `2⁵² ≤ m < 2⁵³`, so the decimals that parse back to
/// `a` span `w ≤ 2ᵉ·10ᵖ = a·10ᵖ/m` units at scale `10ᵖ`, around the
/// exact `a·10ᵖ`, which the product `t` misses by at most half an ulp
/// of `t`. Below 2⁵¹, `w < ½` and that ulp is at most ¼: the only
/// possible candidate is `t` rounded. Below 9·10¹⁵, `w < 2` and the
/// ulp is at most 1, so every candidate is one of `⌊t⌋-1 ..= ⌊t⌋+2`.
fn candidates(a: f64, p: usize) -> Candidates {
    let scale = POW10[p];
    let t = a * scale;
    if t < NEAREST_LIMIT {
        // t + ½ is exact here, and the cast truncates: t rounded
        let d = (t + 0.5) as u64;
        return if d as f64 / scale == a {
            Candidates::One(d)
        } else {
            Candidates::None
        };
    }
    if t >= SCALED_LIMIT {
        return Candidates::Undecided;
    }
    let base = t as u64; // ⌊t⌋
    let mut found = Candidates::None;
    for d in base - 1..=base + 2 {
        if d as f64 / scale == a {
            found = match found {
                Candidates::None => Candidates::One(d),
                _ => Candidates::Undecided,
            };
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(x: f64) -> String {
        let mut out = String::new();
        write_f64(x, &mut out);
        out
    }

    #[test]
    fn floats_match_display() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -3.0,
            0.1,
            0.3,
            0.30000000000000004,
            123.456,
            1e-5,
            1e-7,
            1e-20,
            5e-324,
            f64::MIN_POSITIVE,
            1e15,
            8.999999999999999e15,
            9e15,
            1e16,
            1e21,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(f(x), format!("{x}"), "{x:?}");
        }
    }

    #[test]
    fn fast_path_decides_ordinary_scores() {
        assert_eq!(shortest(0.5), Some((5, 1)));
        assert_eq!(shortest(0.95), Some((95, 2)));
        assert_eq!(shortest(42.0), Some((42, 0)));
        assert_eq!(shortest(1e-20), None);
        assert_eq!(shortest(9e15), None);
        // above 2⁵¹ the four-integer window decides
        assert_eq!(shortest(4e15 + 1.0), Some((4_000_000_000_000_001, 0)));
    }

    #[test]
    fn integers_match_display() {
        for v in [0, 9, 10, 99, 100, 12_345, u64::MAX] {
            let mut out = String::new();
            write_u64(v, &mut out);
            assert_eq!(out, v.to_string());
        }
    }
}
