//! XSD datatype support: lexical-form validation and numeric value
//! comparison.
//!
//! The paper treats datatypes as value subsets of `L` ("we can consider
//! xsd:int and xsd:string as subsets of L", Example 6). Membership of a
//! literal in such a subset is decided here by checking (a) the declared
//! datatype IRI and (b) that the lexical form is valid for it. Numeric
//! values additionally support exact ordering for the ShEx numeric facets
//! (`MININCLUSIVE` etc.).

use crate::term::LiteralRef;
use crate::vocab::{rdf, xsd};

/// Checks whether `lexical` is a valid lexical form for the datatype IRI.
/// Unknown datatypes are treated permissively (any lexical form is valid),
/// matching the open-world handling of user-defined datatypes.
pub fn is_valid_lexical(datatype: &str, lexical: &str) -> bool {
    match datatype {
        xsd::STRING | xsd::ANY_URI | rdf::LANG_STRING => true,
        xsd::BOOLEAN => matches!(lexical, "true" | "false" | "1" | "0"),
        xsd::INTEGER => is_integer(lexical),
        xsd::LONG => in_int_range(lexical, i64::MIN as i128, i64::MAX as i128),
        xsd::INT => in_int_range(lexical, i32::MIN as i128, i32::MAX as i128),
        xsd::SHORT => in_int_range(lexical, i16::MIN as i128, i16::MAX as i128),
        xsd::BYTE => in_int_range(lexical, i8::MIN as i128, i8::MAX as i128),
        xsd::NON_NEGATIVE_INTEGER => in_int_range(lexical, 0, i128::MAX),
        xsd::NON_POSITIVE_INTEGER => in_int_range(lexical, i128::MIN, 0),
        xsd::POSITIVE_INTEGER => in_int_range(lexical, 1, i128::MAX),
        xsd::NEGATIVE_INTEGER => in_int_range(lexical, i128::MIN, -1),
        xsd::UNSIGNED_LONG => in_int_range(lexical, 0, u64::MAX as i128),
        xsd::UNSIGNED_INT => in_int_range(lexical, 0, u32::MAX as i128),
        xsd::UNSIGNED_SHORT => in_int_range(lexical, 0, u16::MAX as i128),
        xsd::UNSIGNED_BYTE => in_int_range(lexical, 0, u8::MAX as i128),
        xsd::DECIMAL => is_decimal(lexical),
        xsd::DOUBLE | xsd::FLOAT => is_double(lexical),
        xsd::DATE => is_date(lexical),
        xsd::TIME => is_time(lexical),
        xsd::DATE_TIME => is_date_time(lexical),
        xsd::G_YEAR => is_g_year(lexical),
        _ => true,
    }
}

/// True if the datatype IRI denotes a numeric XSD type.
pub fn is_numeric_datatype(datatype: &str) -> bool {
    matches!(
        datatype,
        xsd::INTEGER
            | xsd::LONG
            | xsd::INT
            | xsd::SHORT
            | xsd::BYTE
            | xsd::NON_NEGATIVE_INTEGER
            | xsd::NON_POSITIVE_INTEGER
            | xsd::POSITIVE_INTEGER
            | xsd::NEGATIVE_INTEGER
            | xsd::UNSIGNED_LONG
            | xsd::UNSIGNED_INT
            | xsd::UNSIGNED_SHORT
            | xsd::UNSIGNED_BYTE
            | xsd::DECIMAL
            | xsd::DOUBLE
            | xsd::FLOAT
    )
}

/// A numeric value with exact integer/decimal comparison where possible.
///
/// Decimals are kept as `unscaled × 10⁻ˢᶜᵃˡᵉ` so that `1.10 = 1.1` compares
/// equal and facet bounds compare exactly; doubles fall back to `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Numeric {
    /// Integers and decimals that fit `i128 × 10⁻ˢᶜᵃˡᵉ`.
    Decimal {
        /// The unscaled integer value.
        unscaled: i128,
        /// Number of decimal digits after the point.
        scale: u32,
    },
    /// `xsd:double` / `xsd:float`, and overflow fallback.
    Double(f64),
}

impl Numeric {
    /// An exact integer value.
    pub fn integer(v: i128) -> Self {
        Numeric::Decimal {
            unscaled: v,
            scale: 0,
        }
    }

    /// Parses the lexical form of a numeric literal with the given datatype.
    /// Returns `None` when the form is invalid for the datatype.
    pub fn parse(datatype: &str, lexical: &str) -> Option<Numeric> {
        if !is_numeric_datatype(datatype) || !is_valid_lexical(datatype, lexical) {
            return None;
        }
        match datatype {
            xsd::DOUBLE | xsd::FLOAT => lexical_double(lexical).map(Numeric::Double),
            xsd::DECIMAL => parse_decimal(lexical),
            _ => parse_decimal(lexical), // integer types: scale 0 path
        }
    }

    /// Extracts the numeric value of a literal, if it is numerically typed
    /// and lexically valid.
    pub fn of_literal<'l>(lit: impl Into<LiteralRef<'l>>) -> Option<Numeric> {
        let lit = lit.into();
        Numeric::parse(lit.datatype(), lit.lexical_form())
    }

    /// Comparison across representations. Decimal/decimal is always exact;
    /// decimal/double is exact (the double's value `m·2^e` is compared as a
    /// rational against `unscaled·10^-scale` with 256-bit widening) except
    /// for decimals carrying more than 38 fractional digits, which cannot
    /// carry 39 significant digits anyway and fall back to `f64`. `None`
    /// only for NaN.
    pub fn compare(self, other: Numeric) -> Option<std::cmp::Ordering> {
        use std::cmp::Ordering;
        match (self, other) {
            (
                Numeric::Decimal {
                    unscaled: a,
                    scale: sa,
                },
                Numeric::Decimal {
                    unscaled: b,
                    scale: sb,
                },
            ) => Some(cmp_decimals(a, sa, b, sb)),
            (
                Numeric::Decimal {
                    unscaled: a,
                    scale: sa,
                },
                Numeric::Double(d),
            ) => cmp_decimal_double(a, sa, d),
            (
                Numeric::Double(d),
                Numeric::Decimal {
                    unscaled: a,
                    scale: sa,
                },
            ) => cmp_decimal_double(a, sa, d).map(Ordering::reverse),
            (Numeric::Double(x), Numeric::Double(y)) => x.partial_cmp(&y),
        }
    }
}

fn pow10(n: u32) -> Option<i128> {
    10i128.checked_pow(n)
}

/// `10^n` as `u128`; `Some` for all `n ≤ 38`.
fn pow10u(n: u32) -> Option<u128> {
    10u128.checked_pow(n)
}

/// Exact total order on `a·10^-sa` vs `b·10^-sb`.
fn cmp_decimals(a: i128, sa: u32, b: i128, sb: u32) -> std::cmp::Ordering {
    if sa == sb {
        return a.cmp(&b);
    }
    // Fast path: rescale the lower-scale operand up while it fits i128.
    if sa < sb {
        if let Some(aw) = pow10(sb - sa).and_then(|p| a.checked_mul(p)) {
            return aw.cmp(&b);
        }
    } else if let Some(bw) = pow10(sa - sb).and_then(|p| b.checked_mul(p)) {
        return a.cmp(&bw);
    }
    // Slow path (rescale overflowed, or scale gap > 38): compare signs,
    // then magnitudes via 256-bit cross-multiplication — never approximate.
    let (sga, sgb) = (a.signum(), b.signum());
    if sga != sgb {
        return sga.cmp(&sgb);
    }
    if sga == 0 {
        return std::cmp::Ordering::Equal;
    }
    let ord = cmp_dec_magnitudes(a.unsigned_abs(), sa, b.unsigned_abs(), sb);
    if sga < 0 {
        ord.reverse()
    } else {
        ord
    }
}

/// `a/10^sa` vs `b/10^sb` for positive magnitudes, exactly.
fn cmp_dec_magnitudes(a: u128, sa: u32, b: u128, sb: u32) -> std::cmp::Ordering {
    // Cross-multiply after cancelling the common power of ten:
    // a/10^sa ? b/10^sb  ⇔  a·10^(sb-m) ? b·10^(sa-m),  m = min(sa, sb).
    let m = sa.min(sb);
    let (ea, eb) = (sb - m, sa - m);
    // A 10^39 factor exceeds any i128 magnitude (< 1.8·10^38), so the
    // scaled-up side wins outright.
    if ea >= 39 {
        return std::cmp::Ordering::Greater;
    }
    if eb >= 39 {
        return std::cmp::Ordering::Less;
    }
    let lhs = wide_mul(a, pow10u(ea).expect("ea <= 38"));
    let rhs = wide_mul(b, pow10u(eb).expect("eb <= 38"));
    lhs.cmp(&rhs)
}

/// Exact decimal-vs-double comparison (decimal on the left). `None` only
/// for NaN.
fn cmp_decimal_double(unscaled: i128, scale: u32, d: f64) -> Option<std::cmp::Ordering> {
    use std::cmp::Ordering;
    if d.is_nan() {
        return None;
    }
    if d.is_infinite() {
        return Some(if d > 0.0 {
            Ordering::Less
        } else {
            Ordering::Greater
        });
    }
    let sga = unscaled.signum() as i32;
    let sgd = if d > 0.0 {
        1
    } else if d < 0.0 {
        -1
    } else {
        0
    };
    if sga != sgd {
        return Some(sga.cmp(&sgd));
    }
    if sga == 0 {
        return Some(Ordering::Equal);
    }
    let ord = cmp_dec_f64_magnitudes(unscaled.unsigned_abs(), scale, d.abs());
    Some(if sga < 0 { ord.reverse() } else { ord })
}

/// `a/10^s` vs finite `d`, both strictly positive. Exact for `s ≤ 38`
/// (after stripping trailing zeros); beyond that the decimal has fewer
/// than one significant digit per fractional place and we approximate.
fn cmp_dec_f64_magnitudes(mut a: u128, mut s: u32, d: f64) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    while s > 0 && a.is_multiple_of(10) {
        a /= 10;
        s -= 1;
    }
    let Some(p10) = pow10u(s) else {
        // > 38 fractional digits on a nonzero unscaled value: only
        // reachable via forms like 0.00…01. Approximate via f64 — the
        // magnitudes involved are below 10^-38.
        let approx = a as f64 / 10f64.powi(s as i32);
        return approx.partial_cmp(&d).unwrap_or(Ordering::Equal);
    };
    // Decompose d = m·2^e exactly (m odd) from the IEEE-754 bits.
    let bits = d.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i64;
    let frac = bits & ((1u64 << 52) - 1);
    let (m, e) = if biased == 0 {
        (frac as u128, -1074i64)
    } else {
        ((frac | (1 << 52)) as u128, biased - 1075)
    };
    let tz = m.trailing_zeros(); // m > 0 since d > 0
    let (m, e) = (m >> tz, e + tz as i64);
    if e >= 0 {
        // d is an exact integer m·2^e: compare a vs (m·2^e)·10^s.
        if e as u32 > m.leading_zeros() {
            return Ordering::Less; // d ≥ 2^128 > any i128 magnitude
        }
        match (m << e).checked_mul(p10) {
            Some(rhs) => a.cmp(&rhs),
            None => Ordering::Less,
        }
    } else {
        // d = m/2^k: compare a·2^k vs m·10^s in 256-bit space.
        let k = (-e) as u32;
        match wide_shl(a, k) {
            Some(lhs) => lhs.cmp(&wide_mul(m, p10)),
            // a·2^k ≥ 2^256 while m·10^s < 2^53·2^127 < 2^256.
            None => Ordering::Greater,
        }
    }
}

/// Full 256-bit product of two u128s as a `(hi, lo)` pair; tuple order is
/// numeric order.
fn wide_mul(x: u128, y: u128) -> (u128, u128) {
    const MASK: u128 = (1 << 64) - 1;
    let (x1, x0) = (x >> 64, x & MASK);
    let (y1, y0) = (y >> 64, y & MASK);
    let p00 = x0 * y0;
    let p01 = x0 * y1;
    let p10 = x1 * y0;
    let mid = (p00 >> 64) + (p01 & MASK) + (p10 & MASK);
    let lo = (p00 & MASK) | (mid << 64);
    let hi = x1 * y1 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
    (hi, lo)
}

/// `x·2^sh` as a 256-bit `(hi, lo)` pair, or `None` when it exceeds 2^256.
fn wide_shl(x: u128, sh: u32) -> Option<(u128, u128)> {
    if x == 0 {
        return Some((0, 0));
    }
    let bits = 128 - x.leading_zeros();
    if bits + sh > 256 {
        return None;
    }
    Some(if sh >= 128 {
        (x << (sh - 128), 0)
    } else if sh == 0 {
        (0, x)
    } else {
        (x >> (128 - sh), x << sh)
    })
}

fn parse_decimal(lexical: &str) -> Option<Numeric> {
    let s = lexical.strip_prefix('+').unwrap_or(lexical);
    let (neg, s) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let (int_part, frac_part) = match s.split_once('.') {
        Some((i, f)) => (i, f),
        None => (s, ""),
    };
    let frac_part = frac_part.trim_end_matches('0');
    let digits: String = [int_part, frac_part].concat();
    let digits = digits.trim_start_matches('0');
    let unscaled: i128 = if digits.is_empty() {
        0
    } else {
        match digits.parse() {
            Ok(v) => v,
            // Too large for i128: approximate via f64.
            Err(_) => return lexical_double(lexical).map(Numeric::Double),
        }
    };
    Some(Numeric::Decimal {
        unscaled: if neg { -unscaled } else { unscaled },
        scale: frac_part.len() as u32,
    })
}

fn lexical_double(lexical: &str) -> Option<f64> {
    match lexical {
        "INF" | "+INF" => Some(f64::INFINITY),
        "-INF" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => lexical.parse().ok(),
    }
}

fn is_integer(s: &str) -> bool {
    let s = s.strip_prefix(['+', '-']).unwrap_or(s);
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
}

fn in_int_range(s: &str, lo: i128, hi: i128) -> bool {
    if !is_integer(s) {
        return false;
    }
    match s.parse::<i128>() {
        Ok(v) => (lo..=hi).contains(&v),
        Err(_) => false, // beyond i128: out of range for all bounded types
    }
}

fn is_decimal(s: &str) -> bool {
    let s = s.strip_prefix(['+', '-']).unwrap_or(s);
    match s.split_once('.') {
        Some((i, f)) => {
            (!i.is_empty() || !f.is_empty())
                && i.bytes().all(|b| b.is_ascii_digit())
                && f.bytes().all(|b| b.is_ascii_digit())
        }
        None => !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()),
    }
}

fn is_double(s: &str) -> bool {
    if matches!(s, "INF" | "+INF" | "-INF" | "NaN") {
        return true;
    }
    let s = s.strip_prefix(['+', '-']).unwrap_or(s);
    let (mantissa, exponent) = match s.split_once(['e', 'E']) {
        Some((m, e)) => (m, Some(e)),
        None => (s, None),
    };
    if !is_decimal(mantissa) {
        return false;
    }
    match exponent {
        Some(e) => is_integer(e),
        None => true,
    }
}

fn all_digits(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
}

fn is_date_fields(y: &str, m: &str, d: &str) -> bool {
    let year_ok = {
        let y = y.strip_prefix('-').unwrap_or(y);
        y.len() >= 4 && all_digits(y)
    };
    year_ok
        && m.len() == 2
        && all_digits(m)
        && (1..=12).contains(&m.parse::<u8>().unwrap_or(0))
        && d.len() == 2
        && all_digits(d)
        && (1..=31).contains(&d.parse::<u8>().unwrap_or(0))
}

/// Strips an optional timezone suffix: `Z`, `+hh:mm`, `-hh:mm`.
fn strip_timezone(s: &str) -> &str {
    if let Some(rest) = s.strip_suffix('Z') {
        return rest;
    }
    if s.len() >= 6 {
        let (head, tz) = s.split_at(s.len() - 6);
        let b = tz.as_bytes();
        if (b[0] == b'+' || b[0] == b'-')
            && b[1].is_ascii_digit()
            && b[2].is_ascii_digit()
            && b[3] == b':'
            && b[4].is_ascii_digit()
            && b[5].is_ascii_digit()
        {
            return head;
        }
    }
    s
}

fn is_date(s: &str) -> bool {
    let s = strip_timezone(s);
    // [-]YYYY-MM-DD: split from the right so negative years survive.
    let mut parts = s.rsplitn(3, '-');
    let (Some(d), Some(m), Some(y)) = (parts.next(), parts.next(), parts.next()) else {
        return false;
    };
    is_date_fields(y, m, d)
}

fn is_time(s: &str) -> bool {
    let s = strip_timezone(s);
    let mut it = s.splitn(3, ':');
    let (Some(h), Some(m), Some(sec)) = (it.next(), it.next(), it.next()) else {
        return false;
    };
    let (sec_int, sec_frac) = match sec.split_once('.') {
        Some((i, f)) => (i, Some(f)),
        None => (sec, None),
    };
    h.len() == 2
        && all_digits(h)
        && h.parse::<u8>().unwrap_or(99) <= 24
        && m.len() == 2
        && all_digits(m)
        && m.parse::<u8>().unwrap_or(99) <= 59
        && sec_int.len() == 2
        && all_digits(sec_int)
        && sec_int.parse::<u8>().unwrap_or(99) <= 59
        && sec_frac.is_none_or(all_digits)
}

fn is_date_time(s: &str) -> bool {
    match s.split_once('T') {
        // Timezone belongs to the time part; the date half must not carry one.
        Some((d, t)) => is_date_plain(d) && is_time(t),
        None => false,
    }
}

fn is_date_plain(s: &str) -> bool {
    let mut parts = s.rsplitn(3, '-');
    let (Some(d), Some(m), Some(y)) = (parts.next(), parts.next(), parts.next()) else {
        return false;
    };
    is_date_fields(y, m, d)
}

fn is_g_year(s: &str) -> bool {
    let s = strip_timezone(s);
    let s = s.strip_prefix('-').unwrap_or(s);
    s.len() >= 4 && all_digits(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn integer_lexicals() {
        assert!(is_valid_lexical(xsd::INTEGER, "23"));
        assert!(is_valid_lexical(xsd::INTEGER, "-23"));
        assert!(is_valid_lexical(xsd::INTEGER, "+0023"));
        assert!(!is_valid_lexical(xsd::INTEGER, "23.0"));
        assert!(!is_valid_lexical(xsd::INTEGER, ""));
        assert!(!is_valid_lexical(xsd::INTEGER, "twenty"));
        assert!(!is_valid_lexical(xsd::INTEGER, "2 3"));
    }

    #[test]
    fn bounded_integer_ranges() {
        assert!(is_valid_lexical(xsd::BYTE, "127"));
        assert!(!is_valid_lexical(xsd::BYTE, "128"));
        assert!(is_valid_lexical(xsd::BYTE, "-128"));
        assert!(!is_valid_lexical(xsd::BYTE, "-129"));
        assert!(is_valid_lexical(xsd::UNSIGNED_BYTE, "255"));
        assert!(!is_valid_lexical(xsd::UNSIGNED_BYTE, "-1"));
        assert!(is_valid_lexical(xsd::NON_NEGATIVE_INTEGER, "0"));
        assert!(!is_valid_lexical(xsd::NEGATIVE_INTEGER, "0"));
        assert!(is_valid_lexical(xsd::POSITIVE_INTEGER, "1"));
    }

    #[test]
    fn decimal_lexicals() {
        assert!(is_valid_lexical(xsd::DECIMAL, "1.5"));
        assert!(is_valid_lexical(xsd::DECIMAL, ".5"));
        assert!(is_valid_lexical(xsd::DECIMAL, "5."));
        assert!(is_valid_lexical(xsd::DECIMAL, "-0.002"));
        assert!(is_valid_lexical(xsd::DECIMAL, "42"));
        assert!(!is_valid_lexical(xsd::DECIMAL, "."));
        assert!(!is_valid_lexical(xsd::DECIMAL, "1.5e3"));
        assert!(!is_valid_lexical(xsd::DECIMAL, "1,5"));
    }

    #[test]
    fn double_lexicals() {
        assert!(is_valid_lexical(xsd::DOUBLE, "1.5E3"));
        assert!(is_valid_lexical(xsd::DOUBLE, "-1.5e-3"));
        assert!(is_valid_lexical(xsd::DOUBLE, "INF"));
        assert!(is_valid_lexical(xsd::DOUBLE, "-INF"));
        assert!(is_valid_lexical(xsd::DOUBLE, "NaN"));
        assert!(is_valid_lexical(xsd::DOUBLE, "4.2"));
        assert!(!is_valid_lexical(xsd::DOUBLE, "1.5E"));
        assert!(!is_valid_lexical(xsd::DOUBLE, "E3"));
    }

    #[test]
    fn boolean_lexicals() {
        assert!(is_valid_lexical(xsd::BOOLEAN, "true"));
        assert!(is_valid_lexical(xsd::BOOLEAN, "0"));
        assert!(!is_valid_lexical(xsd::BOOLEAN, "True"));
        assert!(!is_valid_lexical(xsd::BOOLEAN, "yes"));
    }

    #[test]
    fn date_lexicals() {
        assert!(is_valid_lexical(xsd::DATE, "2015-03-27"));
        assert!(is_valid_lexical(xsd::DATE, "2015-03-27Z"));
        assert!(is_valid_lexical(xsd::DATE, "2015-03-27+01:00"));
        assert!(is_valid_lexical(xsd::DATE, "-0044-03-15"));
        assert!(!is_valid_lexical(xsd::DATE, "2015-13-27"));
        assert!(!is_valid_lexical(xsd::DATE, "2015-3-27"));
        assert!(!is_valid_lexical(xsd::DATE, "27-03-2015"));
    }

    #[test]
    fn time_and_datetime_lexicals() {
        assert!(is_valid_lexical(xsd::TIME, "13:20:00"));
        assert!(is_valid_lexical(xsd::TIME, "13:20:00.5"));
        assert!(is_valid_lexical(xsd::TIME, "13:20:00Z"));
        assert!(!is_valid_lexical(xsd::TIME, "25:20:00"));
        assert!(is_valid_lexical(xsd::DATE_TIME, "2015-03-27T13:20:00"));
        assert!(is_valid_lexical(
            xsd::DATE_TIME,
            "2015-03-27T13:20:00-05:00"
        ));
        assert!(!is_valid_lexical(xsd::DATE_TIME, "2015-03-27 13:20:00"));
        assert!(!is_valid_lexical(xsd::DATE_TIME, "2015-03-27"));
    }

    #[test]
    fn g_year() {
        assert!(is_valid_lexical(xsd::G_YEAR, "2015"));
        assert!(is_valid_lexical(xsd::G_YEAR, "-0100"));
        assert!(!is_valid_lexical(xsd::G_YEAR, "15"));
    }

    #[test]
    fn unknown_datatype_is_permissive() {
        assert!(is_valid_lexical("http://example.org/mytype", "whatever"));
    }

    #[test]
    fn string_always_valid() {
        assert!(is_valid_lexical(xsd::STRING, ""));
        assert!(is_valid_lexical(xsd::STRING, "any\ntext"));
    }

    #[test]
    fn numeric_parse_and_compare_integers() {
        let a = Numeric::parse(xsd::INTEGER, "23").unwrap();
        let b = Numeric::parse(xsd::INTEGER, "34").unwrap();
        assert_eq!(a.compare(b), Some(Ordering::Less));
        assert_eq!(b.compare(a), Some(Ordering::Greater));
        assert_eq!(a.compare(a), Some(Ordering::Equal));
    }

    #[test]
    fn decimal_trailing_zero_equality() {
        let a = Numeric::parse(xsd::DECIMAL, "1.10").unwrap();
        let b = Numeric::parse(xsd::DECIMAL, "1.1").unwrap();
        assert_eq!(a.compare(b), Some(Ordering::Equal));
    }

    #[test]
    fn decimal_vs_integer_compare() {
        let a = Numeric::parse(xsd::DECIMAL, "2.5").unwrap();
        let b = Numeric::parse(xsd::INTEGER, "2").unwrap();
        let c = Numeric::parse(xsd::INTEGER, "3").unwrap();
        assert_eq!(a.compare(b), Some(Ordering::Greater));
        assert_eq!(a.compare(c), Some(Ordering::Less));
    }

    #[test]
    fn double_compares_with_decimal() {
        let a = Numeric::parse(xsd::DOUBLE, "2.5E0").unwrap();
        let b = Numeric::parse(xsd::DECIMAL, "2.5").unwrap();
        assert_eq!(a.compare(b), Some(Ordering::Equal));
    }

    #[test]
    fn nan_compares_as_none() {
        let a = Numeric::parse(xsd::DOUBLE, "NaN").unwrap();
        let b = Numeric::parse(xsd::INTEGER, "1").unwrap();
        assert_eq!(a.compare(b), None);
    }

    #[test]
    fn negative_decimal_parsing() {
        let a = Numeric::parse(xsd::DECIMAL, "-0.5").unwrap();
        let zero = Numeric::integer(0);
        assert_eq!(a.compare(zero), Some(Ordering::Less));
    }

    #[test]
    fn invalid_lexical_yields_no_numeric() {
        assert!(Numeric::parse(xsd::INTEGER, "1.5").is_none());
        assert!(Numeric::parse(xsd::STRING, "1").is_none());
    }

    /// Regression: mixed decimal/double comparison used to round-trip the
    /// decimal through `i128 as f64`, collapsing everything beyond 2^53.
    /// 10000000000000001 vs 1.0e16 compared `Equal` pre-fix.
    #[test]
    fn decimal_double_exact_beyond_2_53() {
        let dec = Numeric::parse(xsd::DECIMAL, "10000000000000001").unwrap();
        let dbl = Numeric::parse(xsd::DOUBLE, "1.0e16").unwrap();
        assert_eq!(dec.compare(dbl), Some(Ordering::Greater));
        assert_eq!(dbl.compare(dec), Some(Ordering::Less));
    }

    /// The 2^53 boundary itself: equality only where the double's value
    /// really coincides, strict orderings one unit either side.
    #[test]
    fn decimal_double_2_53_boundary() {
        let two_53 = 1i128 << 53;
        let dbl = Numeric::Double(9007199254740992.0); // 2^53 exactly
        assert_eq!(Numeric::integer(two_53).compare(dbl), Some(Ordering::Equal));
        assert_eq!(
            Numeric::integer(two_53 + 1).compare(dbl),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Numeric::integer(two_53 - 1).compare(dbl),
            Some(Ordering::Less)
        );
    }

    /// Decimal-vs-double comparison is exact, not rounded: the double
    /// literal 0.1 is slightly above the decimal 0.1.
    #[test]
    fn decimal_double_tenth_is_not_equal() {
        let dec = Numeric::parse(xsd::DECIMAL, "0.1").unwrap();
        let dbl = Numeric::parse(xsd::DOUBLE, "0.1").unwrap();
        assert_eq!(dec.compare(dbl), Some(Ordering::Less));
        let dbl_quarter = Numeric::parse(xsd::DOUBLE, "0.25").unwrap();
        let dec_quarter = Numeric::parse(xsd::DECIMAL, "0.25").unwrap();
        assert_eq!(dec_quarter.compare(dbl_quarter), Some(Ordering::Equal));
    }

    /// Regression: a scale gap > 38 made `pow10` return `None`, which
    /// `compare` leaked as "incomparable" instead of falling back.
    #[test]
    fn decimal_scale_gap_over_38_is_comparable() {
        // 40 zeros then a 1: scale 41, unscaled 1.
        let lex = format!("0.{}1", "0".repeat(40));
        let tiny = Numeric::parse(xsd::DECIMAL, &lex).unwrap();
        assert_eq!(
            tiny,
            Numeric::Decimal {
                unscaled: 1,
                scale: 41
            }
        );
        let one = Numeric::parse(xsd::INTEGER, "1").unwrap();
        assert_eq!(one.compare(tiny), Some(Ordering::Greater));
        assert_eq!(tiny.compare(one), Some(Ordering::Less));
        assert_eq!(tiny.compare(tiny), Some(Ordering::Equal));
        let negative = Numeric::Decimal {
            unscaled: -1,
            scale: 41,
        };
        assert_eq!(negative.compare(tiny), Some(Ordering::Less));
    }

    /// Decimal/decimal rescale overflow takes the exact wide path, not an
    /// f64 approximation.
    #[test]
    fn decimal_rescale_overflow_stays_exact() {
        // a = i128::MAX at scale 0 vs b = i128::MAX·10^-1 + ε territory:
        // rescaling a by 10 overflows i128.
        let a = Numeric::Decimal {
            unscaled: i128::MAX,
            scale: 0,
        };
        let b = Numeric::Decimal {
            unscaled: i128::MAX,
            scale: 1,
        };
        assert_eq!(a.compare(b), Some(Ordering::Greater));
        assert_eq!(b.compare(a), Some(Ordering::Less));
        assert_eq!(a.compare(a), Some(Ordering::Equal));
    }

    #[test]
    fn infinities_compare_against_decimals() {
        let inf = Numeric::parse(xsd::DOUBLE, "INF").unwrap();
        let ninf = Numeric::parse(xsd::DOUBLE, "-INF").unwrap();
        let big = Numeric::Decimal {
            unscaled: i128::MAX,
            scale: 0,
        };
        assert_eq!(big.compare(inf), Some(Ordering::Less));
        assert_eq!(inf.compare(big), Some(Ordering::Greater));
        assert_eq!(big.compare(ninf), Some(Ordering::Greater));
        assert_eq!(ninf.compare(big), Some(Ordering::Less));
    }

    #[test]
    fn huge_decimal_falls_back_to_double() {
        let big = "9".repeat(60);
        let n = Numeric::parse(xsd::DECIMAL, &big).unwrap();
        assert!(matches!(n, Numeric::Double(_)));
        let small = Numeric::integer(1);
        assert_eq!(n.compare(small), Some(Ordering::Greater));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    fn arb_decimal() -> impl Strategy<Value = Numeric> {
        (any::<i64>(), 0u32..6).prop_map(|(unscaled, scale)| Numeric::Decimal {
            unscaled: unscaled as i128,
            scale,
        })
    }

    proptest! {
        /// compare() is antisymmetric on exact decimals.
        #[test]
        fn compare_antisymmetric(a in arb_decimal(), b in arb_decimal()) {
            let ab = a.compare(b).unwrap();
            let ba = b.compare(a).unwrap();
            prop_assert_eq!(ab, ba.reverse());
        }

        /// compare() is transitive on exact decimals.
        #[test]
        fn compare_transitive(a in arb_decimal(), b in arb_decimal(), c in arb_decimal()) {
            if a.compare(b).unwrap() != Ordering::Greater
                && b.compare(c).unwrap() != Ordering::Greater
            {
                prop_assert_ne!(a.compare(c).unwrap(), Ordering::Greater);
            }
        }

        /// Parsing a rendered decimal compares equal to the original.
        #[test]
        fn parse_render_equivalence(unscaled in any::<i32>(), scale in 0u32..5) {
            let n = Numeric::Decimal { unscaled: unscaled as i128, scale };
            let lex = {
                let neg = unscaled < 0;
                let digits = (unscaled as i64).unsigned_abs().to_string();
                let scale = scale as usize;
                let (int, frac) = if digits.len() > scale {
                    let (i, f) = digits.split_at(digits.len() - scale);
                    (i.to_string(), f.to_string())
                } else {
                    ("0".to_string(), format!("{digits:0>scale$}"))
                };
                if scale == 0 {
                    format!("{}{int}", if neg { "-" } else { "" })
                } else {
                    format!("{}{int}.{frac}", if neg { "-" } else { "" })
                }
            };
            let reparsed = Numeric::parse(crate::vocab::xsd::DECIMAL, &lex)
                .unwrap_or_else(|| panic!("lexical {lex:?} must parse"));
            prop_assert_eq!(n.compare(reparsed), Some(Ordering::Equal), "lex {}", lex);
        }

        /// Decimal↔double equality is exact wherever the f64 round-trip is
        /// lossless (|v| ≤ 2^53).
        #[test]
        fn decimal_double_small_int_equality(v in -(1i64 << 53)..=(1i64 << 53)) {
            let dec = Numeric::integer(v as i128);
            let dbl = Numeric::Double(v as f64);
            prop_assert_eq!(dec.compare(dbl), Some(Ordering::Equal));
        }

        /// compare() stays antisymmetric across representations.
        #[test]
        fn decimal_double_antisymmetric(a in arb_decimal(), mantissa in any::<i64>(), shift in 0u32..32) {
            let dbl = Numeric::Double(mantissa as f64 / (1u64 << shift) as f64);
            let ab = a.compare(dbl).unwrap();
            let ba = dbl.compare(a).unwrap();
            prop_assert_eq!(ab, ba.reverse());
        }

        /// Lexical validity for integers matches a simple regex-free spec.
        #[test]
        fn integer_lexical_spec(s in "[+-]?[0-9a-z]{0,6}") {
            let expected = {
                let t = s.strip_prefix(['+', '-']).unwrap_or(&s);
                !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit())
            };
            prop_assert_eq!(is_valid_lexical(crate::vocab::xsd::INTEGER, &s), expected);
        }
    }
}
