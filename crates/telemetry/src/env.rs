//! Shared parsing for the workspace's `RPBCM_*` environment variables.
//!
//! Every runtime knob (`RPBCM_THREADS`, `RPBCM_TELEMETRY`, `RPBCM_TRACE`,
//! the `RPBCM_SERVE_*` family) goes through these helpers so malformed
//! values behave identically everywhere: the variable falls back to its
//! documented default and a single warning line goes to stderr, instead of
//! a panic (worst) or a silent misconfiguration (subtle worst).
//!
//! The pure `parse_*` functions take the raw value and return the parsed
//! result plus an optional warning, so they are unit-testable without
//! touching process-global environment state; the lookup wrappers read the
//! environment and emit the warning.

/// Outcome of parsing one environment variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed<T> {
    /// The effective value (the default when the raw value was invalid).
    pub value: T,
    /// A one-line human-readable warning when the raw value was present
    /// but invalid.
    pub warning: Option<String>,
}

impl<T> Parsed<T> {
    fn ok(value: T) -> Self {
        Parsed {
            value,
            warning: None,
        }
    }

    fn fallback(name: &str, raw: &str, reason: &str, value: T, shown: &str) -> Self {
        Parsed {
            warning: Some(format!(
                "warning: ignoring {name}={raw:?} ({reason}); using {shown}"
            )),
            value,
        }
    }
}

/// Parses a positive (`>= 1`) integer such as `RPBCM_THREADS` or
/// `RPBCM_SERVE_BATCH`. `None` (unset) and invalid values both yield
/// `default`; only invalid values warn.
pub fn parse_positive_usize(name: &str, raw: Option<&str>, default: usize) -> Parsed<usize> {
    match raw {
        None => Parsed::ok(default),
        Some(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Parsed::ok(n),
            Ok(_) => Parsed::fallback(name, s, "must be >= 1", default, &default.to_string()),
            Err(_) => Parsed::fallback(
                name,
                s,
                "not a positive integer",
                default,
                &default.to_string(),
            ),
        },
    }
}

/// Parses a boolean switch such as `RPBCM_TELEMETRY`. Recognized true
/// spellings: `1`, `true`, `on`, `yes`; false: `0`, `false`, `off`, `no`,
/// and the empty string. Anything else warns and yields `default`.
pub fn parse_bool(name: &str, raw: Option<&str>, default: bool) -> Parsed<bool> {
    match raw {
        None => Parsed::ok(default),
        Some(s) => match s.trim().to_ascii_lowercase().as_str() {
            "1" | "true" | "on" | "yes" => Parsed::ok(true),
            "0" | "false" | "off" | "no" | "" => Parsed::ok(false),
            _ => Parsed::fallback(
                name,
                s,
                "not a boolean (use 1/true/on or 0/false/off)",
                default,
                if default { "on" } else { "off" },
            ),
        },
    }
}

/// Parses a non-negative integer with a unit already implied by the
/// variable name (e.g. `RPBCM_SERVE_MAX_WAIT_MS`). Zero is allowed (it
/// means "no wait" for deadline-style knobs).
pub fn parse_usize(name: &str, raw: Option<&str>, default: usize) -> Parsed<usize> {
    match raw {
        None => Parsed::ok(default),
        Some(s) => match s.trim().parse::<usize>() {
            Ok(n) => Parsed::ok(n),
            Err(_) => Parsed::fallback(
                name,
                s,
                "not a non-negative integer",
                default,
                &default.to_string(),
            ),
        },
    }
}

/// Parses a path-valued variable such as `RPBCM_TRACE`. Unset and empty
/// both mean "disabled" (no warning: an empty assignment is the
/// conventional way to disable a path knob in shell scripts).
pub fn parse_path(_name: &str, raw: Option<&str>) -> Parsed<Option<String>> {
    match raw {
        None | Some("") => Parsed::ok(None),
        Some(s) => Parsed::ok(Some(s.to_string())),
    }
}

fn emit(warning: &Option<String>) {
    if let Some(w) = warning {
        eprintln!("{w}");
    }
}

/// Reads `name` from the environment as a positive integer, warning on
/// stderr and returning `default()` when unset-invalid. The default is
/// lazy because callers like `tensor::parallel` derive it from
/// `available_parallelism`.
pub fn positive_usize_or(name: &str, default: impl FnOnce() -> usize) -> usize {
    let raw = std::env::var(name).ok();
    let parsed = parse_positive_usize(name, raw.as_deref(), 0);
    emit(&parsed.warning);
    if parsed.value >= 1 && parsed.warning.is_none() && raw.is_some() {
        parsed.value
    } else {
        default()
    }
}

/// Reads `name` from the environment as a boolean switch (default
/// `false`), warning on stderr for unrecognized spellings.
pub fn flag(name: &str) -> bool {
    let raw = std::env::var(name).ok();
    let parsed = parse_bool(name, raw.as_deref(), false);
    emit(&parsed.warning);
    parsed.value
}

/// Reads `name` from the environment as a non-negative integer, warning
/// on stderr and returning `default` when invalid.
pub fn usize_or(name: &str, default: usize) -> usize {
    let raw = std::env::var(name).ok();
    let parsed = parse_usize(name, raw.as_deref(), default);
    emit(&parsed.warning);
    parsed.value
}

/// Reads `name` from the environment as an optional path (unset/empty →
/// `None`).
pub fn path(name: &str) -> Option<String> {
    let raw = std::env::var(name).ok();
    let parsed = parse_path(name, raw.as_deref());
    emit(&parsed.warning);
    parsed.value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_usize_accepts_valid_and_trims() {
        assert_eq!(parse_positive_usize("T", Some("4"), 1).value, 4);
        assert_eq!(parse_positive_usize("T", Some(" 8 "), 1).value, 8);
        assert!(parse_positive_usize("T", Some("4"), 1).warning.is_none());
    }

    #[test]
    fn positive_usize_falls_back_with_warning() {
        for bad in ["abc", "0", "-3", "1.5", ""] {
            let p = parse_positive_usize("RPBCM_THREADS", Some(bad), 7);
            assert_eq!(p.value, 7, "raw {bad:?}");
            let w = p.warning.expect("warns");
            assert!(w.contains("RPBCM_THREADS"), "{w}");
            assert!(!w.contains('\n'), "one line: {w}");
        }
        // Unset: default, silent.
        let p = parse_positive_usize("RPBCM_THREADS", None, 7);
        assert_eq!((p.value, p.warning), (7, None));
    }

    #[test]
    fn bool_recognizes_both_spellings() {
        for t in ["1", "true", "on", "yes", "TRUE", "On"] {
            let p = parse_bool("B", Some(t), false);
            assert!(p.value && p.warning.is_none(), "{t}");
        }
        for f in ["0", "false", "off", "no", ""] {
            let p = parse_bool("B", Some(f), true);
            assert!(!p.value && p.warning.is_none(), "{f}");
        }
        let p = parse_bool("RPBCM_TELEMETRY", Some("enabled"), false);
        assert!(!p.value);
        assert!(p.warning.expect("warns").contains("RPBCM_TELEMETRY"));
    }

    #[test]
    fn usize_allows_zero_and_warns_on_garbage() {
        assert_eq!(parse_usize("W", Some("0"), 5).value, 0);
        let p = parse_usize("W", Some("soon"), 5);
        assert_eq!(p.value, 5);
        assert!(p.warning.is_some());
    }

    #[test]
    fn path_treats_empty_as_unset() {
        assert_eq!(parse_path("P", None).value, None);
        assert_eq!(parse_path("P", Some("")).value, None);
        assert_eq!(parse_path("P", Some("/tmp/x")).value, Some("/tmp/x".into()));
    }
}
