//! The benchmark's output: one details line (workload properties,
//! sample counts, failures), then the result line the contract reads.

use serde::Value;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub props: Vec<(String, Value)>,
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        let name = name.into();
        if !value.is_finite() {
            self.errors.push(format!("metric {name} is not finite"));
        }
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn prop(&mut self, key: &str, v: impl Into<PropValue>) {
        self.props.push((key.to_string(), v.into().0));
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Print the details line and the result line.
    pub fn print(&self, workload: &str) {
        let samples = Value::Object(
            self.metrics
                .iter()
                .map(|m| (m.name.clone(), Value::U64(m.samples as u64)))
                .collect(),
        );
        let details = Value::Object(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("properties".into(), Value::Object(self.props.clone())),
            ("samples".into(), samples),
            (
                "errors".into(),
                Value::Array(
                    self.errors
                        .iter()
                        .take(20)
                        .cloned()
                        .map(Value::Str)
                        .collect(),
                ),
            ),
        ]);
        println!(
            "{}",
            serde_json::to_string(&details).expect("details serialize")
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A property value for the details line.
pub struct PropValue(pub Value);

impl From<f64> for PropValue {
    fn from(v: f64) -> Self {
        PropValue(Value::F64(v))
    }
}

impl From<u64> for PropValue {
    fn from(v: u64) -> Self {
        PropValue(Value::U64(v))
    }
}

impl From<usize> for PropValue {
    fn from(v: usize) -> Self {
        PropValue(Value::U64(v as u64))
    }
}

impl From<&str> for PropValue {
    fn from(v: &str) -> Self {
        PropValue(Value::Str(v.into()))
    }
}

impl From<String> for PropValue {
    fn from(v: String) -> Self {
        PropValue(Value::Str(v))
    }
}

impl From<Value> for PropValue {
    fn from(v: Value) -> Self {
        PropValue(v)
    }
}
