//! What one workload run hands back to `main`: counts, metrics, failed
//! checks, the run environment, and (traced runs) the spans.

use crate::trace::Tracer;
use std::collections::BTreeMap;

#[derive(Default)]
pub struct Report {
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub failed: u64,
    /// Output-check failures; empty means every check passed.
    pub check_failures: Vec<String>,
    /// Metric values by name (units live in `main`'s metric tables).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run-environment fields, values already JSON-encoded.
    pub env: BTreeMap<&'static str, String>,
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn env_num(&mut self, key: &'static str, v: impl std::fmt::Display) {
        self.env.insert(key, v.to_string());
    }

    pub fn env_str(&mut self, key: &'static str, v: &str) {
        self.env.insert(key, crate::util::json_str(v));
    }
}
