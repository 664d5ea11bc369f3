//! The `.eavm` scenario grammar: a tiny TOML-ish format, parsed with no
//! dependencies and no panics.
//!
//! ```text
//! file     := line*
//! line     := blank | comment | section | keyvalue
//! comment  := '#' anything
//! section  := '[' name ('.' name)? ']'      # [scenario] [fleet] [faults]
//!                                           # [service] [phase.<name>]
//! keyvalue := key '=' value                 # '#' starts a trailing comment
//! value    := number | '"' chars '"' | bool | int '..' int
//! ```
//!
//! The parser is **strict**: unknown sections or keys, duplicate keys,
//! duplicate phase names, values outside their domain, and keys outside
//! any section are all errors — a scenario file that parses runs, and a
//! typo fails loudly instead of silently meaning something else. Every
//! error is a structured [`ScenarioError`] carrying the 1-based source
//! line and a machine-checkable [`ErrorKind`]; malformed input must
//! never panic (pinned by the `parser_prop` property tests).

use std::collections::BTreeSet;
use std::fmt;

use crate::spec::{
    ExitCondition, FaultSpec, FleetSpec, HostRange, Mode, PhaseSpec, Policy, ScenarioSpec,
    ServiceSpec,
};

/// Machine-checkable classification of a scenario-file error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// A line that is neither blank, comment, section, nor `key = value`
    /// — including truncated section headers.
    Syntax,
    /// A section header this grammar does not know.
    UnknownSection,
    /// A key the enclosing section does not accept.
    UnknownKey,
    /// The same key given twice in one section.
    DuplicateKey,
    /// Two `[phase.<name>]` sections with the same name.
    DuplicatePhase,
    /// A value that does not parse as its key's type.
    BadValue,
    /// A value of the right type outside its allowed domain, or a
    /// semantically inconsistent spec (mode/feature mismatches).
    OutOfRange,
    /// A required section or key is absent.
    Missing,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorKind::Syntax => "syntax",
            ErrorKind::UnknownSection => "unknown-section",
            ErrorKind::UnknownKey => "unknown-key",
            ErrorKind::DuplicateKey => "duplicate-key",
            ErrorKind::DuplicatePhase => "duplicate-phase",
            ErrorKind::BadValue => "bad-value",
            ErrorKind::OutOfRange => "out-of-range",
            ErrorKind::Missing => "missing",
        };
        f.write_str(s)
    }
}

/// A structured scenario-file error: what went wrong, and where.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError {
    /// 1-based source line; 0 for file-level errors (e.g. a missing
    /// required section).
    pub line: usize,
    /// Error class, stable for tests and tooling.
    pub kind: ErrorKind,
    /// Human-readable description.
    pub message: String,
}

impl ScenarioError {
    fn new(line: usize, kind: ErrorKind, message: impl Into<String>) -> Self {
        ScenarioError {
            line,
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "scenario: {} ({})", self.message, self.kind)
        } else {
            write!(
                f,
                "scenario:{}: {} ({})",
                self.line, self.message, self.kind
            )
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A parsed value before it is coerced to a key's type.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Number(f64),
    Text(String),
    Bool(bool),
    Range(usize, usize),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Number(_) => "number",
            Value::Text(_) => "string",
            Value::Bool(_) => "bool",
            Value::Range(..) => "range",
        }
    }
}

fn parse_value(raw: &str, line: usize) -> Result<Value, ScenarioError> {
    let bad = |msg: String| ScenarioError::new(line, ErrorKind::BadValue, msg);
    let raw = raw.trim();
    if raw.is_empty() {
        return Err(bad("missing value after '='".into()));
    }
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(bad(format!("unterminated string {raw:?}")));
        };
        if inner.contains('"') {
            return Err(bad(format!("stray quote inside string {raw:?}")));
        }
        return Ok(Value::Text(inner.to_string()));
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Some((a, b)) = raw.split_once("..") {
        let parse_end = |s: &str| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| bad(format!("bad range bound {s:?}")))
        };
        return Ok(Value::Range(parse_end(a)?, parse_end(b)?));
    }
    match raw.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Value::Number(n)),
        _ => Err(bad(format!(
            "value {raw:?} is not a number, \"string\", bool, or a..b range"
        ))),
    }
}

/// The section a `key = value` line belongs to.
#[derive(Debug, Clone, PartialEq)]
enum Section {
    Scenario,
    Fleet,
    Faults,
    Service,
    Phase(usize),
}

/// One `key = value` assignment with provenance.
struct Assignment {
    line: usize,
    key: String,
    value: Value,
}

impl Assignment {
    fn err(&self, kind: ErrorKind, msg: impl Into<String>) -> ScenarioError {
        ScenarioError::new(self.line, kind, msg)
    }

    fn number(&self) -> Result<f64, ScenarioError> {
        match &self.value {
            Value::Number(n) => Ok(*n),
            other => Err(self.err(
                ErrorKind::BadValue,
                format!("{} expects a number, got {}", self.key, other.type_name()),
            )),
        }
    }

    fn f64_at_least(&self, min_exclusive: f64) -> Result<f64, ScenarioError> {
        let n = self.number()?;
        if n <= min_exclusive {
            return Err(self.err(
                ErrorKind::OutOfRange,
                format!("{} must exceed {min_exclusive}, got {n}", self.key),
            ));
        }
        Ok(n)
    }

    fn fraction(&self) -> Result<f64, ScenarioError> {
        let n = self.number()?;
        if !(0.0..=1.0).contains(&n) {
            return Err(self.err(
                ErrorKind::OutOfRange,
                format!("{} must be within [0, 1], got {n}", self.key),
            ));
        }
        Ok(n)
    }

    fn unsigned(&self) -> Result<u64, ScenarioError> {
        let n = self.number()?;
        // Integrality check: fract() is exactly ±0.0 iff n is an
        // integer, and a NaN input fails the surrounding comparisons
        // into the same rejection.
        if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
            return Err(self.err(
                ErrorKind::BadValue,
                format!("{} expects a nonnegative integer, got {n}", self.key),
            ));
        }
        Ok(n as u64)
    }

    fn count(&self) -> Result<usize, ScenarioError> {
        let n = self.unsigned()?;
        usize::try_from(n).map_err(|_| {
            self.err(
                ErrorKind::OutOfRange,
                format!("{} is too large for this platform", self.key),
            )
        })
    }

    fn boolean(&self) -> Result<bool, ScenarioError> {
        match &self.value {
            Value::Bool(b) => Ok(*b),
            other => Err(self.err(
                ErrorKind::BadValue,
                format!("{} expects true|false, got {}", self.key, other.type_name()),
            )),
        }
    }

    fn text(&self) -> Result<&str, ScenarioError> {
        match &self.value {
            Value::Text(s) => Ok(s),
            other => Err(self.err(
                ErrorKind::BadValue,
                format!(
                    "{} expects a \"string\", got {}",
                    self.key,
                    other.type_name()
                ),
            )),
        }
    }

    fn range(&self) -> Result<HostRange, ScenarioError> {
        match &self.value {
            Value::Range(start, end) => Ok(HostRange {
                start: *start,
                end: *end,
            }),
            other => Err(self.err(
                ErrorKind::BadValue,
                format!("{} expects a..b, got {}", self.key, other.type_name()),
            )),
        }
    }
}

/// Parse and validate a scenario file. The returned spec has passed
/// [`ScenarioSpec::validate`]; any failure — lexical, grammatical, or
/// semantic — comes back as a structured [`ScenarioError`].
pub fn parse_scenario(text: &str) -> Result<ScenarioSpec, ScenarioError> {
    let mut section: Option<Section> = None;
    let mut phase_names: Vec<String> = Vec::new();
    let mut assignments: Vec<(Section, Assignment)> = Vec::new();
    // (section-discriminant, key) pairs seen so far, for duplicate
    // detection. BTreeSet keeps the crate free of default-hasher state.
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let line = idx + 1;
        let content = match raw_line.split_once('#') {
            Some((before, _)) => before,
            None => raw_line,
        };
        let content = content.trim();
        if content.is_empty() {
            continue;
        }
        if let Some(rest) = content.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(ScenarioError::new(
                    line,
                    ErrorKind::Syntax,
                    format!("unterminated section header {content:?}"),
                ));
            };
            let name = name.trim();
            section = Some(match name {
                "scenario" => Section::Scenario,
                "fleet" => Section::Fleet,
                "faults" => Section::Faults,
                "service" => Section::Service,
                other => match other.strip_prefix("phase.") {
                    Some(phase) if !phase.trim().is_empty() => {
                        let phase = phase.trim().to_string();
                        if phase_names.contains(&phase) {
                            return Err(ScenarioError::new(
                                line,
                                ErrorKind::DuplicatePhase,
                                format!("phase {phase:?} declared twice"),
                            ));
                        }
                        phase_names.push(phase);
                        Section::Phase(phase_names.len() - 1)
                    }
                    _ => {
                        return Err(ScenarioError::new(
                            line,
                            ErrorKind::UnknownSection,
                            format!(
                                "unknown section [{other}] \
                                 (scenario|fleet|faults|service|phase.<name>)"
                            ),
                        ))
                    }
                },
            });
            continue;
        }
        let Some((key, value)) = content.split_once('=') else {
            return Err(ScenarioError::new(
                line,
                ErrorKind::Syntax,
                format!("expected 'key = value' or a [section], got {content:?}"),
            ));
        };
        let key = key.trim().to_string();
        if key.is_empty() {
            return Err(ScenarioError::new(
                line,
                ErrorKind::Syntax,
                "empty key before '='",
            ));
        }
        let Some(current) = section.clone() else {
            return Err(ScenarioError::new(
                line,
                ErrorKind::Syntax,
                format!("key {key:?} appears before any [section]"),
            ));
        };
        let section_tag = match &current {
            Section::Scenario => "scenario".to_string(),
            Section::Fleet => "fleet".to_string(),
            Section::Faults => "faults".to_string(),
            Section::Service => "service".to_string(),
            Section::Phase(i) => format!("phase.{i}"),
        };
        if !seen.insert((section_tag, key.clone())) {
            return Err(ScenarioError::new(
                line,
                ErrorKind::DuplicateKey,
                format!("duplicate key {key:?} in this section"),
            ));
        }
        let value = parse_value(value, line)?;
        assignments.push((current, Assignment { line, key, value }));
    }

    build_spec(phase_names, assignments)
}

/// Lower raw assignments into a [`ScenarioSpec`], applying defaults and
/// per-key domain checks, then run semantic validation.
fn build_spec(
    phase_names: Vec<String>,
    assignments: Vec<(Section, Assignment)>,
) -> Result<ScenarioSpec, ScenarioError> {
    let mut name: Option<String> = None;
    let mut seed = 0xE6EEu64;
    let mut mode = Mode::Simulate;
    let mut policy: Option<Policy> = None;
    let mut qos_factor = 4.0;
    let mut servers: Option<usize> = None;
    let mut big_nodes = 0usize;
    let mut faults = FaultSpec::default();
    let mut service = ServiceSpec::default();

    // Per-phase: exit condition (required) + the PhaseSpec under
    // construction.
    let mut phases: Vec<PhaseSpec> = phase_names
        .iter()
        .map(|n| PhaseSpec::new(n, ExitCondition::Jobs(0)))
        .collect();
    let mut exits: Vec<Option<(ExitCondition, usize)>> = vec![None; phases.len()];

    for (section, a) in &assignments {
        match section {
            Section::Scenario => match a.key.as_str() {
                "name" => name = Some(a.text()?.to_string()),
                "seed" => seed = a.unsigned()?,
                "mode" => {
                    mode = match a.text()? {
                        "simulate" => Mode::Simulate,
                        "service" => Mode::Service,
                        other => {
                            return Err(a.err(
                                ErrorKind::BadValue,
                                format!("mode {other:?} (simulate|service)"),
                            ))
                        }
                    }
                }
                "alpha" => {
                    policy = Some(Policy::Proactive {
                        alpha: a.fraction()?,
                    })
                }
                "strategy" => policy = Some(Policy::Named(a.text()?.to_string())),
                "qos_factor" => qos_factor = a.f64_at_least(1.0)?,
                other => {
                    return Err(a.err(
                        ErrorKind::UnknownKey,
                        format!("[scenario] does not accept {other:?}"),
                    ))
                }
            },
            Section::Fleet => match a.key.as_str() {
                "servers" => servers = Some(a.count()?),
                "big_nodes" => big_nodes = a.count()?,
                other => {
                    return Err(a.err(
                        ErrorKind::UnknownKey,
                        format!("[fleet] does not accept {other:?}"),
                    ))
                }
            },
            Section::Faults => match a.key.as_str() {
                "seed" => faults.seed = a.unsigned()?,
                "lookup_failure_rate" => faults.lookup_failure_rate = a.fraction()?,
                other => {
                    return Err(a.err(
                        ErrorKind::UnknownKey,
                        format!("[faults] does not accept {other:?}"),
                    ))
                }
            },
            Section::Service => match a.key.as_str() {
                "queue" => service.queue = a.count()?,
                other => {
                    return Err(a.err(
                        ErrorKind::UnknownKey,
                        format!("[service] does not accept {other:?}"),
                    ))
                }
            },
            Section::Phase(i) => {
                let phase = &mut phases[*i];
                match a.key.as_str() {
                    "exit_jobs" => set_exit(&mut exits[*i], ExitCondition::Jobs(a.count()?), a)?,
                    "exit_after_s" => set_exit(
                        &mut exits[*i],
                        ExitCondition::AfterSeconds(a.f64_at_least(0.0)?),
                        a,
                    )?,
                    "mean_gap_s" => phase.mean_gap_s = a.f64_at_least(0.0)?,
                    "max_burst" => phase.max_burst = a.count()?,
                    "runtime_mu" => phase.runtime_mu = a.number()?,
                    "runtime_sigma" => phase.runtime_sigma = a.number()?,
                    "diurnal" => phase.diurnal = a.fraction()?,
                    "vms_min" => phase.vms_min = a.unsigned()?.min(u32::MAX as u64) as u32,
                    "vms_max" => phase.vms_max = a.unsigned()?.min(u32::MAX as u64) as u32,
                    "crash_rate" => phase.crash_rate = a.fraction()?,
                    "degrade_rate" => phase.degrade_rate = a.fraction()?,
                    "degrade_factor" => phase.degrade_factor = a.fraction()?,
                    "mean_downtime_s" => phase.mean_downtime_s = a.f64_at_least(0.0)?,
                    "mean_degradation_s" => phase.mean_degradation_s = a.f64_at_least(0.0)?,
                    "offline_hosts" => phase.offline_hosts = Some(a.range()?),
                    "degrade_hosts" => phase.degrade_hosts = Some(a.range()?),
                    "consolidate" => phase.consolidate = a.boolean()?,
                    "consolidate_every_s" => phase.consolidate_every_s = a.f64_at_least(0.0)?,
                    "drain_threshold" => {
                        phase.drain_threshold = a.unsigned()?.min(u64::from(u32::MAX)) as u32
                    }
                    "overload" => phase.overload = a.boolean()?,
                    "overload_cut" => phase.overload_cut = a.fraction()?,
                    "overload_queue_target_s" => {
                        phase.overload_queue_target_s = a.f64_at_least(0.0)?
                    }
                    "overload_queue_interval_s" => {
                        phase.overload_queue_interval_s = a.f64_at_least(0.0)?
                    }
                    "alpha" => {
                        phase.policy = Some(Policy::Proactive {
                            alpha: a.fraction()?,
                        })
                    }
                    "strategy" => phase.policy = Some(Policy::Named(a.text()?.to_string())),
                    other => {
                        return Err(a.err(
                            ErrorKind::UnknownKey,
                            format!("[phase.{}] does not accept {other:?}", phase.name),
                        ))
                    }
                }
            }
        }
    }

    let name = name.ok_or_else(|| {
        ScenarioError::new(0, ErrorKind::Missing, "missing [scenario] name = \"...\"")
    })?;
    let servers = servers
        .ok_or_else(|| ScenarioError::new(0, ErrorKind::Missing, "missing [fleet] servers = N"))?;
    for (i, exit) in exits.iter().enumerate() {
        match exit {
            Some((cond, _)) => phases[i].exit = *cond,
            None => {
                return Err(ScenarioError::new(
                    0,
                    ErrorKind::Missing,
                    format!(
                        "phase {:?} needs exit_jobs = N or exit_after_s = F",
                        phases[i].name
                    ),
                ))
            }
        }
    }

    let spec = ScenarioSpec {
        name,
        seed,
        mode,
        policy: policy.unwrap_or(Policy::Proactive { alpha: 0.5 }),
        qos_factor,
        fleet: FleetSpec { servers, big_nodes },
        faults,
        service,
        phases,
    };
    spec.validate()
        .map_err(|msg| ScenarioError::new(0, ErrorKind::OutOfRange, msg))?;
    Ok(spec)
}

fn set_exit(
    slot: &mut Option<(ExitCondition, usize)>,
    cond: ExitCondition,
    a: &Assignment,
) -> Result<(), ScenarioError> {
    if let Some((_, prev_line)) = slot {
        return Err(a.err(
            ErrorKind::DuplicateKey,
            format!("phase already has an exit condition (line {prev_line})"),
        ));
    }
    *slot = Some((cond, a.line));
    Ok(())
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact, bit-reproducible values")]
mod tests {
    use super::*;

    const VALID: &str = r#"
# A two-phase smoke scenario.
[scenario]
name = "smoke"
seed = 7
mode = "simulate"
alpha = 0.5

[fleet]
servers = 8

[phase.calm]
exit_jobs = 20
mean_gap_s = 120.0

[phase.storm]    # trailing comment
exit_after_s = 3600.0
mean_gap_s = 10.0
max_burst = 8
crash_rate = 0.3
"#;

    #[test]
    fn parses_a_valid_file() {
        let spec = parse_scenario(VALID).expect("valid scenario");
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.mode, Mode::Simulate);
        assert_eq!(spec.phases.len(), 2);
        assert_eq!(spec.phases[0].exit, ExitCondition::Jobs(20));
        assert_eq!(spec.phases[1].exit, ExitCondition::AfterSeconds(3600.0));
        assert_eq!(spec.phases[1].max_burst, 8);
        assert_eq!(spec.phases[1].crash_rate, 0.3);
        // Untouched knobs keep their defaults.
        assert_eq!(spec.phases[0].vms_max, 4);
        assert_eq!(spec.qos_factor, 4.0);
    }

    fn kind_of(text: &str) -> ErrorKind {
        parse_scenario(text).expect_err("should fail").kind
    }

    #[test]
    fn rejects_malformed_input_with_structured_errors() {
        assert_eq!(kind_of("[scenario\nname = \"x\""), ErrorKind::Syntax);
        assert_eq!(kind_of("name = \"x\""), ErrorKind::Syntax);
        assert_eq!(kind_of("[volcano]\n"), ErrorKind::UnknownSection);
        assert_eq!(kind_of("[phase.]\n"), ErrorKind::UnknownSection);
        assert_eq!(
            kind_of(&VALID.replace("seed = 7", "sede = 7")),
            ErrorKind::UnknownKey
        );
        assert_eq!(
            kind_of(&VALID.replace("seed = 7", "seed = 7\nseed = 8")),
            ErrorKind::DuplicateKey
        );
        assert_eq!(
            kind_of(&VALID.replace("[phase.storm]", "[phase.calm]")),
            ErrorKind::DuplicatePhase
        );
        assert_eq!(
            kind_of(&VALID.replace("mean_gap_s = 10.0", "mean_gap_s = \"fast\"")),
            ErrorKind::BadValue
        );
        assert_eq!(
            kind_of(&VALID.replace("crash_rate = 0.3", "crash_rate = 1.7")),
            ErrorKind::OutOfRange
        );
        assert_eq!(kind_of(""), ErrorKind::Missing);
        assert_eq!(
            kind_of(&VALID.replace("name = \"smoke\"", "")),
            ErrorKind::Missing
        );
        assert_eq!(
            kind_of(&VALID.replace("exit_jobs = 20", "")),
            ErrorKind::Missing
        );
        assert_eq!(
            kind_of(&VALID.replace("exit_jobs = 20", "exit_jobs = 20\nexit_after_s = 5.0")),
            ErrorKind::DuplicateKey
        );
    }

    #[test]
    fn consolidation_knobs_parse_and_validate() {
        let text = VALID.replace(
            "max_burst = 8",
            "max_burst = 8\nconsolidate = true\nconsolidate_every_s = 450.0\ndrain_threshold = 3",
        );
        let spec = parse_scenario(&text).expect("consolidating scenario");
        assert!(!spec.phases[0].consolidate, "default is off");
        let storm = &spec.phases[1];
        assert!(storm.consolidate);
        assert_eq!(storm.consolidate_every_s, 450.0);
        assert_eq!(storm.drain_threshold, 3);
        assert_eq!(
            kind_of(&text.replace("drain_threshold = 3", "drain_threshold = 0")),
            ErrorKind::OutOfRange
        );
        assert_eq!(
            kind_of(&text.replace("consolidate = true", "consolidate = 1")),
            ErrorKind::BadValue
        );
        assert_eq!(
            kind_of(&text.replace("consolidate_every_s = 450.0", "consolidate_every_s = -5.0")),
            ErrorKind::OutOfRange
        );
    }

    #[test]
    fn overload_knobs_parse_and_validate() {
        let text = r#"
[scenario]
name = "ovl"
mode = "service"
alpha = 0.5

[fleet]
servers = 6

[phase.crowd]
exit_jobs = 40
mean_gap_s = 4.0
overload = true
overload_cut = 0.4
overload_queue_target_s = 30.0
overload_queue_interval_s = 90.0
"#;
        let spec = parse_scenario(text).expect("overload scenario");
        let crowd = &spec.phases[0];
        assert!(crowd.overload);
        assert_eq!(crowd.overload_cut, 0.4);
        assert_eq!(crowd.overload_queue_target_s, 30.0);
        assert_eq!(crowd.overload_queue_interval_s, 90.0);
        // Simulate mode rejects the plane at validation.
        assert_eq!(
            kind_of(&text.replace("mode = \"service\"", "mode = \"simulate\"")),
            ErrorKind::OutOfRange
        );
        assert_eq!(
            kind_of(&text.replace("overload_cut = 0.4", "overload_cut = 1.0")),
            ErrorKind::OutOfRange
        );
        assert_eq!(
            kind_of(&text.replace("overload = true", "overload = \"yes\"")),
            ErrorKind::BadValue
        );
        assert_eq!(
            kind_of(&text.replace(
                "overload_queue_target_s = 30.0",
                "overload_queue_target_s = -1.0"
            )),
            ErrorKind::OutOfRange
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_scenario("[scenario]\nname = \"x\"\nbogus_key = 1\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.kind, ErrorKind::UnknownKey);
        assert!(err.to_string().contains("scenario:3:"), "{err}");
    }

    #[test]
    fn value_grammar_covers_ranges_strings_bools() {
        assert_eq!(parse_value("3..7", 1).unwrap(), Value::Range(3, 7));
        assert_eq!(
            parse_value("\"x y\"", 1).unwrap(),
            Value::Text("x y".into())
        );
        assert_eq!(parse_value("true", 1).unwrap(), Value::Bool(true));
        assert_eq!(parse_value("-2.5", 1).unwrap(), Value::Number(-2.5));
        assert!(parse_value("\"open", 1).is_err());
        assert!(parse_value("NaN", 1).is_err());
        assert!(parse_value("1..x", 1).is_err());
        assert!(parse_value("", 1).is_err());
    }

    #[test]
    fn service_mode_spec_parses() {
        let text = r#"
[scenario]
name = "svc"
mode = "service"
alpha = 0.5

[fleet]
servers = 6

[service]
queue = 64

[faults]
lookup_failure_rate = 0.05

[phase.flood]
exit_jobs = 50
mean_gap_s = 5.0
"#;
        let spec = parse_scenario(text).expect("service scenario");
        assert_eq!(spec.mode, Mode::Service);
        assert_eq!(spec.service.queue, 64);
        assert_eq!(spec.faults.lookup_failure_rate, 0.05);
        // The sharded-fleet knobs are gone: a stale file fails loudly.
        for stale in ["shards = 2", "kill_shard = 1", "kill_after = 64"] {
            let section = if stale.starts_with("shards") {
                "[service]"
            } else {
                "[faults]"
            };
            let old = text.replace(section, &format!("{section}\n{stale}"));
            assert_eq!(kind_of(&old), ErrorKind::UnknownKey, "{stale}");
        }
    }
}
