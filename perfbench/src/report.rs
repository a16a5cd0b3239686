//! Collected metrics, checks and the printed result.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
    /// How the value was summarised (`median`, `p93.1`, `total`, ...).
    pub summary: String,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (untraced rounds).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced rounds).
    pub per_layer: Vec<Metric>,
    /// Compiles or requests attempted.
    pub attempted: u64,
    /// Of those, the ones that errored, trapped or mismatched the
    /// reference.
    pub failed: u64,
    /// Outputs checked against the reference.
    pub checked: u64,
    /// Named self-checks of the benchmark and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Informational lines (per-program rows, shares).
    pub notes: Vec<String>,
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        summary: &str,
    ) {
        self.end_to_end
            .push(metric(name, value, unit, samples, summary));
    }

    /// Adds a per-layer metric.
    pub fn layer(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        summary: &str,
    ) {
        self.per_layer
            .push(metric(name, value, unit, samples, summary));
    }

    /// Records a self-check.
    pub fn check(&mut self, name: &str, holds: bool) {
        self.checks.push((name.to_string(), holds));
    }

    /// Orders the per-layer metrics as `declared` lists them, adding a
    /// zero without samples for each layer this workload does not
    /// exercise.
    ///
    /// # Panics
    ///
    /// Panics on a measured metric that is not declared.
    pub fn complete_layers(&mut self, declared: &[(&str, &'static str)]) {
        for m in &self.per_layer {
            assert!(
                declared.iter().any(|(n, _)| *n == m.name),
                "per-layer metric {} is not declared",
                m.name
            );
        }
        self.per_layer = declared
            .iter()
            .map(|&(name, unit)| {
                self.per_layer
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| metric(name, 0.0, unit, 0, "not exercised by this workload"))
            })
            .collect();
    }

    /// Checks that the end-to-end metrics are exactly `declared`.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric is missing or an undeclared one present.
    pub fn assert_end_to_end(&self, declared: &[&str]) {
        let names: Vec<&str> = self.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names, declared,
            "end-to-end metrics differ from the declared list"
        );
    }

    /// Whether every output matched and every self-check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checked == self.attempted && self.checks.iter().all(|c| c.1)
    }

    /// Human-readable lines followed by the one-line JSON result, which
    /// carries the end-to-end metrics (`traced == false`) or the per-layer
    /// ones.
    pub fn render(&self, host: &str, traced: bool) -> String {
        let mut out = String::new();
        let w = &mut out;
        writeln!(w, "host {host}").expect("String write");
        for n in &self.notes {
            writeln!(w, "{n}").expect("String write");
        }
        let shown = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        for m in shown {
            writeln!(
                w,
                "metric {} = {} {} ({}, n={})",
                m.name, m.value, m.unit, m.summary, m.samples
            )
            .expect("String write");
        }
        for (name, holds) in &self.checks {
            let verdict = if *holds { "ok" } else { "FAILED" };
            writeln!(w, "check {name}: {verdict}").expect("String write");
        }
        let frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        writeln!(
            w,
            "failed_frac = {frac} ({} of {} attempted; {} checked against the reference)",
            self.failed, self.attempted, self.checked
        )
        .expect("String write");
        let metrics: Vec<String> = shown
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        writeln!(
            w,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
        .expect("String write");
        out
    }
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize, summary: &str) -> Metric {
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
        summary: summary.to_string(),
    }
}
