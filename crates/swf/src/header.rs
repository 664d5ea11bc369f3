//! Typed access to the standard SWF header fields.
//!
//! The Parallel Workloads Archive prescribes `; Key: value` header
//! comments (`Version`, `Computer`, `MaxJobs`, `MaxNodes`,
//! `UnixStartTime`, ...). [`SwfMetadata`] parses whatever header lines a
//! trace carries into a key/value map with typed accessors for the
//! common fields, without losing unknown keys.

use std::collections::BTreeMap;

use crate::format::SwfTrace;

/// Parsed `; Key: value` header metadata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwfMetadata {
    fields: BTreeMap<String, String>,
    /// Header lines that were not `Key: value` shaped, in order.
    pub free_text: Vec<String>,
}

impl SwfMetadata {
    /// Extract metadata from a trace's header comments.
    pub fn of(trace: &SwfTrace) -> SwfMetadata {
        let mut meta = SwfMetadata::default();
        for line in &trace.header {
            match line.split_once(':') {
                Some((key, value)) if !key.trim().is_empty() && !key.trim().contains(' ') => {
                    meta.fields
                        .insert(key.trim().to_string(), value.trim().to_string());
                }
                _ => meta.free_text.push(line.clone()),
            }
        }
        meta
    }

    /// Raw value of a header key (case-sensitive, as the archive writes
    /// them).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(String::as_str)
    }

    /// Integer-valued field, if present and well-formed.
    pub fn get_int(&self, key: &str) -> Option<i64> {
        self.get(key)?.parse().ok()
    }

    /// The SWF format version (`Version`).
    pub fn version(&self) -> Option<&str> {
        self.get("Version")
    }

    /// The machine the trace was recorded on (`Computer`).
    pub fn computer(&self) -> Option<&str> {
        self.get("Computer")
    }

    /// Number of job records the header declares (`MaxJobs`).
    pub fn max_jobs(&self) -> Option<i64> {
        self.get_int("MaxJobs")
    }

    /// Node count of the traced machine (`MaxNodes`).
    pub fn max_nodes(&self) -> Option<i64> {
        self.get_int("MaxNodes")
    }

    /// Processor count of the traced machine (`MaxProcs`).
    pub fn max_procs(&self) -> Option<i64> {
        self.get_int("MaxProcs")
    }

    /// Epoch timestamp of the trace start (`UnixStartTime`).
    pub fn unix_start_time(&self) -> Option<i64> {
        self.get_int("UnixStartTime")
    }

    /// Number of parsed `Key: value` fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// `true` when no structured fields were found.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::SwfTrace;

    fn trace_with(header: &[&str]) -> SwfTrace {
        SwfTrace {
            header: header.iter().map(|s| s.to_string()).collect(),
            jobs: Vec::new(),
        }
    }

    #[test]
    fn parses_standard_fields() {
        let t = trace_with(&[
            "Version: 2.2",
            "Computer: EGEE-like synthetic grid",
            "MaxJobs: 5000",
            "MaxNodes: 70",
            "MaxProcs: 280",
            "UnixStartTime: 1262304000",
        ]);
        let m = SwfMetadata::of(&t);
        assert_eq!(m.version(), Some("2.2"));
        assert_eq!(m.computer(), Some("EGEE-like synthetic grid"));
        assert_eq!(m.max_jobs(), Some(5000));
        assert_eq!(m.max_nodes(), Some(70));
        assert_eq!(m.max_procs(), Some(280));
        assert_eq!(m.unix_start_time(), Some(1_262_304_000));
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
    }

    #[test]
    fn keeps_free_text_lines() {
        let t = trace_with(&[
            "Version: 2.2",
            "this trace was converted by hand",
            "see the archive for details",
        ]);
        let m = SwfMetadata::of(&t);
        assert_eq!(m.len(), 1);
        assert_eq!(m.free_text.len(), 2);
        assert!(m.free_text[0].contains("by hand"));
    }

    #[test]
    fn malformed_numbers_are_none_not_errors() {
        let t = trace_with(&["MaxJobs: lots"]);
        let m = SwfMetadata::of(&t);
        assert_eq!(m.get("MaxJobs"), Some("lots"));
        assert_eq!(m.max_jobs(), None);
    }

    #[test]
    fn colons_in_values_are_preserved() {
        let t = trace_with(&["Note: times are UTC: beware"]);
        let m = SwfMetadata::of(&t);
        assert_eq!(m.get("Note"), Some("times are UTC: beware"));
    }

    #[test]
    fn generated_traces_carry_parseable_metadata() {
        use crate::generator::{GeneratorConfig, TraceGenerator};
        let mut g = TraceGenerator::new(GeneratorConfig {
            seed: 1,
            total_jobs: 50,
            ..Default::default()
        })
        .unwrap();
        let t = g.generate();
        let m = SwfMetadata::of(&t);
        assert_eq!(m.version(), Some("2.2"));
        assert!(m.computer().unwrap().contains("EGEE"));
    }

    #[test]
    fn keys_with_spaces_are_free_text() {
        // "this line: has a spacey key" must not become a field.
        let t = trace_with(&["weird key name: value"]);
        let m = SwfMetadata::of(&t);
        assert!(m.is_empty());
        assert_eq!(m.free_text.len(), 1);
    }
}
