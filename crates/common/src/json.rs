//! The JSON writing primitives shared by every hand-rolled serializer in
//! the workspace (the observability snapshot, the HTTP report frames).
//! Both append to a caller-owned buffer; neither can fail.

/// Append `s` as a JSON string literal, quoted and escaped.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a standalone JSON string literal.
pub fn str_lit(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_str_lit(&mut out, s);
    out
}

/// Append `v` as a JSON number in Rust's shortest-roundtrip form, or
/// `null` when it is not finite. With `point`, an integral value keeps a
/// trailing `.0` so typed clients still read it as a float; without, it
/// prints bare (`3`), which is how counts carried in gauges should look.
pub fn push_f64(out: &mut String, v: f64, point: bool) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    if point && !s.contains(['.', 'e']) {
        out.push_str(".0");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escaping() {
        let mut out = String::new();
        push_str_lit(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(str_lit("x"), "\"x\"");
    }

    #[test]
    fn floats_render_roundtrip_and_nonfinite_as_null() {
        let mut out = String::new();
        for (v, point) in [(1.5, true), (3.0, true), (3.0, false), (f64::NAN, true)] {
            push_f64(&mut out, v, point);
            out.push(',');
        }
        assert_eq!(out, "1.5,3.0,3,null,");
    }
}
