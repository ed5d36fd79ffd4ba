//! Hand-rolled bench-artifact JSON (no `serde_json` in the tree).
//!
//! Every committed throughput artifact (`BENCH_sched.json`,
//! `BENCH_fleet.json`) shares one envelope: the `northup-bench-v2`
//! schema with a `suite` discriminator, the [`Host`] it was measured on
//! (`cores`, `cpu_model`) and the [`build_profile`] that measured it
//! (`profile`) — all three absent from older artifacts — then
//! suite-specific fields in insertion order. One builder means one
//! formatting policy and one parser — the CI regression gates read
//! committed baselines back with [`field_f64`] and [`field_str`]
//! instead of each bin growing its own scanner.

use std::fmt::Write as _;

/// The shared schema tag of all committed bench artifacts.
pub const BENCH_SCHEMA: &str = "northup-bench-v2";

/// Builder for one flat JSON artifact. Field order is insertion order,
/// so same fields + same values ⇒ byte-identical artifacts.
#[derive(Debug, Clone)]
pub struct Artifact {
    body: String,
}

impl Artifact {
    /// Start an artifact in the shared envelope: `schema` is
    /// [`BENCH_SCHEMA`], `suite` names the producing gate.
    pub fn new(suite: &str) -> Self {
        let mut a = Artifact {
            body: String::new(),
        };
        a.body.push_str("{\n");
        a.push_raw("schema", &format!("\"{BENCH_SCHEMA}\""));
        a.push_raw("suite", &format!("\"{suite}\""));
        let host = Host::current();
        a.push_raw("cores", &host.cores.to_string());
        a.push_raw("cpu_model", &format!("\"{}\"", host.cpu_model));
        a.push_raw("profile", &format!("\"{}\"", build_profile()));
        a
    }

    fn push_raw(&mut self, key: &str, value: &str) {
        if self.body.len() > 2 {
            self.body.push_str(",\n");
        }
        let _ = write!(self.body, "  \"{key}\": {value}");
    }

    /// An unsigned integer field.
    pub fn num(mut self, key: &str, v: u64) -> Self {
        self.push_raw(key, &v.to_string());
        self
    }

    /// A float field with fixed decimals (stable formatting).
    pub fn float(mut self, key: &str, v: f64, decimals: usize) -> Self {
        self.push_raw(key, &format!("{v:.decimals$}"));
        self
    }

    /// A boolean field.
    pub fn flag(mut self, key: &str, v: bool) -> Self {
        self.push_raw(key, if v { "true" } else { "false" });
        self
    }

    /// A hex-formatted 64-bit digest field (quoted, zero-padded).
    pub fn digest(mut self, key: &str, v: u64) -> Self {
        self.push_raw(key, &format!("\"{v:016x}\""));
        self
    }

    /// Close the artifact.
    pub fn finish(mut self) -> String {
        self.body.push_str("\n}\n");
        self.body
    }
}

/// The build profile of the running binary: `"debug"` when debug
/// assertions are compiled in, `"release"` otherwise. A debug-build
/// measurement is many times slower and never comparable to a release
/// baseline.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The machine an artifact was measured on, so a baseline from another
/// host is never compared blindly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Logical cores (`std::thread::available_parallelism`, 1 if unknown).
    pub cores: u64,
    /// The first `model name` of `/proc/cpuinfo` without quotes,
    /// backslashes or control characters, or `"unknown"`.
    pub cpu_model: String,
}

impl Host {
    /// The host this process runs on.
    pub fn current() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| {
                        model
                            .trim()
                            .chars()
                            .filter(|&c| c != '"' && c != '\\' && !c.is_control())
                            .collect()
                    })
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host { cores, cpu_model }
    }

    /// The host recorded in an artifact, when it has both fields.
    pub fn of_artifact(json: &str) -> Option<Self> {
        Some(Host {
            cores: field_f64(json, "cores")? as u64,
            cpu_model: field_str(json, "cpu_model")?,
        })
    }
}

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} cores, {}", self.cores, self.cpu_model)
    }
}

/// Extract a string field written by [`Artifact`]: finds `"key":` and
/// returns the quoted value (artifact strings hold no escapes). Returns
/// `None` when the key is absent or its value is not a string.
pub fn field_str(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix('"')?;
    rest.split_once('"').map(|(value, _)| value.to_string())
}

/// Extract a numeric field from a flat artifact produced by
/// [`Artifact`]: finds `"key":` and parses the following number. Returns
/// `None` when the key is absent or its value is not numeric (quoted
/// digests are not numbers on purpose).
pub fn field_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+'))
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_round_trips_fields() {
        let json = Artifact::new("sched-engine")
            .num("jobs", 1_000_000)
            .float("wall_s", 1.25, 3)
            .flag("ok", true)
            .digest("digest", 0xdead_beef)
            .finish();
        assert!(json.contains("\"schema\": \"northup-bench-v2\""));
        assert!(json.contains("\"suite\": \"sched-engine\""));
        assert_eq!(field_f64(&json, "jobs"), Some(1_000_000.0));
        assert_eq!(field_f64(&json, "wall_s"), Some(1.25));
        assert_eq!(field_f64(&json, "digest"), None, "digests are quoted");
        assert_eq!(field_f64(&json, "missing"), None);
        assert_eq!(Host::of_artifact(&json), Some(Host::current()));
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        assert_eq!(field_str(&json, "profile").as_deref(), Some(profile));
    }

    #[test]
    fn host_round_trips_and_is_optional() {
        let json = "{\n  \"cores\": 2,\n  \"cpu_model\": \"Acme CPU @ 3GHz\"\n}\n";
        assert_eq!(
            field_str(json, "cpu_model").as_deref(),
            Some("Acme CPU @ 3GHz")
        );
        assert_eq!(field_str(json, "cores"), None, "numbers are not strings");
        assert_eq!(
            Host::of_artifact(json),
            Some(Host {
                cores: 2,
                cpu_model: "Acme CPU @ 3GHz".to_string()
            })
        );
        assert_eq!(Host::of_artifact("{}"), None, "old artifacts have no host");
    }

    #[test]
    fn same_fields_same_bytes() {
        let mk = || Artifact::new("s").num("a", 1).finish();
        assert_eq!(mk(), mk());
    }
}
