//! Paper-vs-measured experiment records.
//!
//! Every reproduced table/figure produces an [`ExperimentRecord`]; the
//! harness collects them into a [`Registry`] which renders the
//! EXPERIMENTS.md comparison and a machine-readable JSON file.

use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// Did the measured shape match the paper's claim?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Shape reproduced (who wins, plateau values, crossovers).
    Reproduced,
    /// Same direction, noticeably different magnitude.
    Partial,
    /// Could not reproduce.
    Diverged,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Reproduced => write!(f, "reproduced"),
            Verdict::Partial => write!(f, "partial"),
            Verdict::Diverged => write!(f, "diverged"),
        }
    }
}

/// One reproduced experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Paper artifact id, e.g. `fig7`, `table5`, `placement`.
    pub id: String,
    /// Human-readable experiment title.
    pub title: String,
    /// What the paper reports (the shape we must match).
    pub paper_claim: String,
    /// What this reproduction measured.
    pub measured: String,
    /// Shape-match verdict.
    pub verdict: Verdict,
    /// Named scalar results, e.g. `small_plateau_mhz → 503.0`.
    pub metrics: Vec<(String, f64)>,
}

impl ExperimentRecord {
    /// Start a record; measured text and verdict are filled via the builder methods.
    pub fn new(id: &str, title: &str, paper_claim: &str) -> Self {
        ExperimentRecord {
            id: id.to_owned(),
            title: title.to_owned(),
            paper_claim: paper_claim.to_owned(),
            measured: String::new(),
            verdict: Verdict::Diverged,
            metrics: Vec::new(),
        }
    }

    /// Attach a named scalar result.
    pub fn metric(mut self, name: &str, value: f64) -> Self {
        self.metrics.push((name.to_owned(), value));
        self
    }

    /// Set the measured-outcome text.
    pub fn measured(mut self, text: impl Into<String>) -> Self {
        self.measured = text.into();
        self
    }

    /// Set the verdict.
    pub fn verdict(mut self, v: Verdict) -> Self {
        self.verdict = v;
        self
    }
}

/// Collection of experiment records with rendering helpers.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Registry {
    /// The collected records, in insertion order.
    pub records: Vec<ExperimentRecord>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Append a record.
    pub fn add(&mut self, record: ExperimentRecord) {
        self.records.push(record);
    }

    /// Find a record by its artifact id.
    pub fn get(&self, id: &str) -> Option<&ExperimentRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    /// Markdown section for EXPERIMENTS.md.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&format!("## {} — {}\n\n", r.id, r.title));
            out.push_str(&format!("- **Paper:** {}\n", r.paper_claim));
            out.push_str(&format!("- **Measured:** {}\n", r.measured));
            out.push_str(&format!("- **Verdict:** {}\n", r.verdict));
            if !r.metrics.is_empty() {
                out.push_str("- **Metrics:**\n");
                for (k, v) in &r.metrics {
                    out.push_str(&format!("  - `{k}` = {v:.2}\n"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Machine-readable dump.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("registry serialization cannot fail")
    }

    /// Merge these records into the registry already in `dir`, write
    /// both renderings of the result there, and return it.
    ///
    /// A record replaces the one with the same id in place, and every
    /// other record already there is kept. A new id goes before the
    /// first kept record that `order` ranks after it (ids absent from
    /// `order` rank last), so a registry built in `order` stays in it.
    /// An `experiments.json` that does not parse is an error naming its
    /// path, and nothing is written. So is a non-finite metric, named
    /// with its record: JSON would store it as `null`, which the next
    /// merge could not read back.
    pub fn merge_into(&self, dir: &Path, order: &[&str]) -> io::Result<Registry> {
        for r in &self.records {
            if let Some((name, v)) = r.metrics.iter().find(|(_, v)| !v.is_finite()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("record {}: metric {name} is {v}, not a finite number", r.id),
                ));
            }
        }
        let path = dir.join("experiments.json");
        let named = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
        let mut merged = match fs::read_to_string(&path) {
            Ok(text) => serde_json::from_str::<Registry>(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, named(&e)))?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Registry::new(),
            Err(e) => return Err(io::Error::new(e.kind(), named(&e))),
        };
        let rank = |id: &str| order.iter().position(|o| *o == id).unwrap_or(order.len());
        for record in &self.records {
            let records = &mut merged.records;
            match records.iter().position(|r| r.id == record.id) {
                Some(i) => records[i] = record.clone(),
                None => {
                    let at = records
                        .iter()
                        .position(|r| rank(&r.id) > rank(&record.id))
                        .unwrap_or(records.len());
                    records.insert(at, record.clone());
                }
            }
        }
        fs::create_dir_all(dir)?;
        fs::write(dir.join("experiments.md"), merged.to_markdown())?;
        fs::write(&path, merged.to_json())?;
        Ok(merged)
    }

    /// Count per verdict: (reproduced, partial, diverged).
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for r in &self.records {
            match r.verdict {
                Verdict::Reproduced => t.0 += 1,
                Verdict::Partial => t.1 += 1,
                Verdict::Diverged => t.2 += 1,
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentRecord {
        ExperimentRecord::new("fig7", "Controller on chetemi", "small 500, large 1800")
            .measured("small 503, large 1795")
            .metric("small_plateau_mhz", 503.0)
            .metric("large_plateau_mhz", 1795.0)
            .verdict(Verdict::Reproduced)
    }

    #[test]
    fn builder_fills_fields() {
        let r = sample();
        assert_eq!(r.id, "fig7");
        assert_eq!(r.verdict, Verdict::Reproduced);
        assert_eq!(r.metrics.len(), 2);
    }

    #[test]
    fn markdown_contains_everything() {
        let mut reg = Registry::new();
        reg.add(sample());
        let md = reg.to_markdown();
        assert!(md.contains("## fig7"));
        assert!(md.contains("**Paper:** small 500"));
        assert!(md.contains("small_plateau_mhz"));
        assert!(md.contains("reproduced"));
    }

    #[test]
    fn json_roundtrip() {
        let mut reg = Registry::new();
        reg.add(sample());
        let json = reg.to_json();
        let back: Registry = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records, reg.records);
    }

    #[test]
    fn tally_counts() {
        let mut reg = Registry::new();
        reg.add(sample());
        reg.add(sample().verdict(Verdict::Partial));
        reg.add(sample().verdict(Verdict::Diverged));
        assert_eq!(reg.tally(), (1, 1, 1));
        assert!(reg.get("fig7").is_some());
        assert!(reg.get("nope").is_none());
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vfc-exp-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ids(reg: &Registry) -> Vec<&str> {
        reg.records.iter().map(|r| r.id.as_str()).collect()
    }

    #[test]
    fn merge_keeps_replaces_and_appends_in_order() {
        let dir = scratch_dir("merge");
        let order = ["table2", "fig3", "fig7", "trace"];
        let mut first = Registry::new();
        for id in ["fig3", "trace"] {
            first.add(ExperimentRecord::new(id, "old", "claim").verdict(Verdict::Partial));
        }
        assert_eq!(
            ids(&first.merge_into(&dir, &order).unwrap()),
            ["fig3", "trace"]
        );

        let mut rerun = Registry::new();
        rerun.add(sample()); // fig7: new, ranks between fig3 and trace
        rerun.add(ExperimentRecord::new("trace", "new", "claim").verdict(Verdict::Reproduced));
        rerun.add(ExperimentRecord::new("table2", "new", "claim"));
        rerun.add(ExperimentRecord::new("extra", "new", "claim")); // not in order
        let merged = rerun.merge_into(&dir, &order).unwrap();
        assert_eq!(ids(&merged), ["table2", "fig3", "fig7", "trace", "extra"]);
        assert_eq!(merged.get("fig3").unwrap().title, "old", "kept");
        let trace = merged.get("trace").unwrap();
        assert_eq!(
            (trace.title.as_str(), trace.verdict),
            ("new", Verdict::Reproduced)
        );

        let on_disk: Registry =
            serde_json::from_str(&fs::read_to_string(dir.join("experiments.json")).unwrap())
                .unwrap();
        assert_eq!(on_disk.records, merged.records);
        let md = fs::read_to_string(dir.join("experiments.md")).unwrap();
        assert!(md.find("## table2").unwrap() < md.find("## trace").unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_refuses_a_corrupt_registry_and_leaves_it_untouched() {
        let dir = scratch_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("experiments.json");
        fs::write(&path, "{\"records\": [ {\"id\": ").unwrap();
        let mut reg = Registry::new();
        reg.add(sample());
        let err = reg.merge_into(&dir, &["fig7"]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "{err}"
        );
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "{\"records\": [ {\"id\": "
        );
        assert!(!dir.join("experiments.md").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_refuses_a_non_finite_metric_and_writes_nothing() {
        let dir = scratch_dir("nonfinite");
        let mut reg = Registry::new();
        reg.add(sample());
        reg.add(ExperimentRecord::new("fig10", "t", "c").metric("cv", f64::NAN));
        let err = reg.merge_into(&dir, &["fig7", "fig10"]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("fig10") && msg.contains("cv"), "{msg}");
        assert!(!dir.exists(), "nothing written");
    }
}
