//! What one run prints: the machine it ran on, every metric with its
//! unit (or the reason it is absent), and the final one-line JSON result.
//!
//! The result holds every metric of its kind, end-to-end or per-layer,
//! on every workload. A metric the run could not measure is never
//! written as 0: it is printed as absent and fails the run.

use std::fmt::Write as _;

/// A metric value, or why the run could not measure it.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A measured number.
    Num(f64),
    /// Not measured on this workload, with the reason.
    Absent(String),
}

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: Value,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Broadcasts judged in the window.
    pub attempted: u64,
    /// Judged broadcasts that were not atomic.
    pub failed: u64,
    /// Metrics of the result, in print order.
    pub metrics: Vec<Metric>,
    /// Figures printed with the metrics but left out of the result:
    /// those only one workload has.
    pub extra: Vec<Metric>,
    /// Failed correctness checks; the run is correct when empty.
    pub problems: Vec<String>,
    /// Free-form lines printed before the result (sample counts, the
    /// traced run's checks).
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a measured metric.
    pub fn num(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.opt(name, unit, Some(value), "no samples");
    }

    /// Adds a metric that may be absent, with the reason used if it is.
    /// An absent metric fails the run.
    pub fn opt(&mut self, name: &'static str, unit: &'static str, value: Option<f64>, why: &str) {
        let metric = Metric {
            name,
            unit,
            value: value_of(value, why),
        };
        if let Value::Absent(why) = &metric.value {
            self.problems.push(format!("{name} is absent: {why}"));
        }
        self.metrics.push(metric);
    }

    /// Adds a figure that is printed but not part of the result; it may
    /// be absent.
    pub fn info(&mut self, name: &'static str, unit: &'static str, value: Option<f64>, why: &str) {
        self.extra.push(Metric {
            name,
            unit,
            value: value_of(value, why),
        });
    }

    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The human-readable lines printed before the result.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = match &m.value {
                Value::Num(v) => writeln!(out, "{:<40} {v:>16.4} {}", m.name, m.unit),
                Value::Absent(why) => writeln!(out, "{:<40} {:>16} ({why})", m.name, "absent"),
            };
        }
        let _ = writeln!(out, "attempted {} failed {}", self.attempted, self.failed);
        for p in &self.problems {
            let _ = writeln!(out, "CHECK FAILED: {p}");
        }
        out
    }

    /// The final result line. Absent metrics are left out rather than
    /// written as 0; they have already failed the run.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter_map(|m| match m.value {
                Value::Num(v) => Some(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(v),
                    m.unit
                )),
                Value::Absent(_) => None,
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn value_of(value: Option<f64>, why: &str) -> Value {
    match value {
        Some(v) if v.is_finite() => Value::Num(v),
        Some(v) => Value::Absent(format!("not finite ({v})")),
        None => Value::Absent(why.to_string()),
    }
}

/// A finite f64 as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The machine a run is measured on, printed with every result.
pub fn machine_line(workload: &str, seed: u64, trace: bool, threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let env_threads = std::env::var("AGB_THREADS").unwrap_or_else(|_| "unset".to_string());
    format!(
        "machine: workload={workload} seed={seed} trace={} nproc={nproc} cpu=\"{cpu}\" \
         kernel={kernel} network=loopback-only engine_threads={threads} AGB_THREADS={env_threads}",
        u8::from(trace)
    )
}

/// `VmHWM` (peak resident set) of this process, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time this process has used, all threads
/// (exited ones included), seconds.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    ticks / USER_HZ
}

/// CPU time the live threads of this process have used, seconds, with
/// nanosecond resolution (`/proc/self/task/*/schedstat`). Threads that
/// exit take their time with them, so this measures intervals over
/// which the same threads run throughout.
pub fn live_threads_cpu_s() -> f64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    let mut ns = 0u64;
    for task in tasks.flatten() {
        // A thread may exit between listing and reading; it then counts 0.
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    ns as f64 / 1e9
}

/// Clock ticks per second in `/proc` times; 100 on every Linux
/// architecture.
const USER_HZ: f64 = 100.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_metrics_are_left_out_and_fail_the_run() {
        let mut r = Report {
            attempted: 10,
            failed: 2,
            ..Report::default()
        };
        r.num("a_ms", "ms", 1.25);
        r.num("c", "count", 3.0);
        r.info("e_us", "us", None, "runtime only");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 2, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"c\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        assert!(r.text().contains("runtime only"));
        r.opt("b_ratio", "ratio", None, "series not registered");
        r.opt("d_ms", "ms", Some(f64::INFINITY), "");
        assert!(r.json().starts_with("{\"correct\": false"));
        assert!(!r.json().contains("b_ratio") && !r.json().contains("d_ms"));
        assert!(r
            .text()
            .contains("b_ratio is absent: series not registered"));
    }

    #[test]
    fn proc_readers_work() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(process_cpu_s() >= 0.0);
        assert!(live_threads_cpu_s() > 0.0);
    }
}
