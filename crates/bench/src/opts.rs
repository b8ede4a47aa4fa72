//! Command-line options shared by all benchmark binaries.

use std::time::Duration;

/// Options controlling benchmark scale.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Run the full-scale configuration (larger trees, longer windows,
    /// unscaled latencies).  Default is a quick mode that preserves shape.
    pub full: bool,
    /// Factor applied to simulated storage latencies (1.0 = the paper's
    /// nominal values).
    pub latency_scale: f64,
    /// Measurement window per data point.
    pub duration: Duration,
    /// Closed-loop client threads for application benchmarks.
    pub clients: usize,
    /// Random seed.
    pub seed: u64,
    /// Write the full metrics-registry snapshot (JSON) to this path after
    /// the run.
    pub metrics_out: Option<String>,
}

impl BenchOpts {
    /// Parses options from the process arguments.
    ///
    /// Supported flags: `--full`, `--scale <f64>`, `--seconds <u64>`,
    /// `--clients <usize>`, `--seed <u64>`, `--metrics-out <path>`.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::from_slice(&args)
    }

    /// Parses options from an explicit argument list (tests).
    pub fn from_slice(args: &[String]) -> Self {
        let mut opts = BenchOpts::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--metrics-out" => {
                    if let Some(v) = args.get(i + 1) {
                        opts.metrics_out = Some(v.clone());
                        i += 1;
                    }
                }
                "--full" => {
                    opts.full = true;
                    opts.latency_scale = 1.0;
                    opts.duration = Duration::from_secs(20);
                    opts.clients = 32;
                }
                "--scale" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.latency_scale = v;
                        i += 1;
                    }
                }
                "--seconds" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.duration = Duration::from_secs(v);
                        i += 1;
                    }
                }
                "--clients" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.clients = v;
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.seed = v;
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        opts
    }

    /// A very small configuration used by smoke tests of the harness itself.
    pub fn smoke() -> Self {
        BenchOpts {
            full: false,
            latency_scale: 0.0,
            duration: Duration::from_millis(300),
            clients: 2,
            seed: 7,
            metrics_out: None,
        }
    }
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            full: false,
            latency_scale: 0.05,
            duration: Duration::from_secs(3),
            clients: 16,
            seed: 42,
            metrics_out: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_are_quick_mode() {
        let opts = BenchOpts::from_slice(&[]);
        assert!(!opts.full);
        assert!(opts.latency_scale < 1.0);
    }

    #[test]
    fn full_flag_switches_to_paper_scale() {
        let opts = BenchOpts::from_slice(&s(&["bench", "--full"]));
        assert!(opts.full);
        assert_eq!(opts.latency_scale, 1.0);
    }

    #[test]
    fn individual_flags_parse() {
        let opts = BenchOpts::from_slice(&s(&[
            "bench",
            "--scale",
            "0.5",
            "--seconds",
            "9",
            "--clients",
            "4",
            "--seed",
            "123",
        ]));
        assert_eq!(opts.latency_scale, 0.5);
        assert_eq!(opts.duration, Duration::from_secs(9));
        assert_eq!(opts.clients, 4);
        assert_eq!(opts.seed, 123);
    }

    #[test]
    fn output_paths_parse() {
        let opts = BenchOpts::from_slice(&s(&["bench", "--metrics-out", "m.json"]));
        assert_eq!(opts.metrics_out.as_deref(), Some("m.json"));
    }

    #[test]
    fn malformed_values_are_ignored() {
        let opts = BenchOpts::from_slice(&s(&["bench", "--scale", "not-a-number"]));
        assert_eq!(opts.latency_scale, BenchOpts::default().latency_scale);
    }
}
