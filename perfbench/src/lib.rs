//! The repository benchmark: three workloads over the public API of the
//! DASPOS crates, each timed from outside the library.
//!
//! * `chain` replays preserved RAW→ntuple chains;
//! * `archive` deposits, re-skims and scrubs AOD tiers in an erasure vault;
//! * `service` drives a loopback preservation server at a fixed rate.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics of its
//! workload. A traced run (`--trace 1`) reports the per-layer metrics of
//! every layer, each measured on the pipeline that exercises it, plus the
//! tracing overhead on the chosen workload. See `perfbench/README.md`.

pub mod archive;
pub mod chain;
pub mod service;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod timing;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stats::Better;

/// One metric the benchmark reports, as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: every workload reports each of them, in its own
/// terms (README.md, "End-to-end metrics").
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("latency_tail_ratio", "ratio", Lower, 0.25),
    e2e("mb_per_s", "MB/s", Higher, 0.25),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("gen.ns_per_event", "ns/event", Lower),
    layer("detsim.ns_per_event", "ns/event", Lower),
    layer("reco.ns_per_event", "ns/event", Lower),
    layer("tiers.encode_raw_ns_per_event", "ns/event", Lower),
    layer("tiers.encode_aod_ns_per_event", "ns/event", Lower),
    layer("tiers.skim_ns_per_event", "ns/event", Lower),
    layer("rivet.analysis_ns_per_event", "ns/event", Lower),
    layer("provenance.ns_per_run", "ns/run", Lower),
    layer("core.runner_overhead_ns_per_event", "ns/event", Lower),
    layer("chain.stage_coverage", "ratio", Higher),
    layer("conditions.iov_hit_ratio", "ratio", Higher),
    layer("tiers.skim_pass_ratio", "ratio", Higher),
    layer("vault.backend_put_ns_per_mb", "ns/MB", Lower),
    layer("vault.backend_get_ns_per_mb", "ns/MB", Lower),
    layer("vault.backend_ops_per_object", "count", Lower),
    layer("vault.verify_ns_per_mb", "ns/MB", Lower),
    layer("vault.envelope_ns_per_mb", "ns/MB", Lower),
    layer("vault.rs_encode_ns_per_mb", "ns/MB", Lower),
    layer("vault.rs_decode_ns_per_mb", "ns/MB", Lower),
    layer("vault.shard_codec_ns_per_mb", "ns/MB", Lower),
    layer("vault.get_residual_ns_per_mb", "ns/MB", Lower),
    layer("tiers.row_encode_ns_per_event", "ns/event", Lower),
    layer("tiers.col_encode_ns_per_event", "ns/event", Lower),
    layer("tiers.unseal_ns_per_event", "ns/event", Lower),
    layer("tiers.skim_row_ns_per_event", "ns/event", Lower),
    layer("tiers.skim_col_ns_per_event", "ns/event", Lower),
    layer("vault.scrub_rebuilt_shards", "count", Higher),
    layer("serve.handle_put_us", "us", Lower),
    layer("serve.handle_get_us", "us", Lower),
    layer("serve.handle_verify_us", "us", Lower),
    layer("serve.transport_wait_us", "us", Lower),
    layer("serve.proto_ns_per_op", "ns/op", Lower),
    layer("vault.backend_put_us", "us", Lower),
    layer("vault.backend_get_us", "us", Lower),
    layer("serve.scrub_steps_per_s", "1/s", Higher),
    layer("serve.admitted_ratio", "ratio", Higher),
    layer("obs.trace_overhead_ratio", "ratio", Lower),
];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Speed-kernel ticks before each set-up.
pub const SETUP_TICKS: usize = 8;

/// The median of `secs`, set-up times, each taken after
/// [`SETUP_TICKS`] ticks of `gauge`, at the reference speed; the raw
/// median and the speed scale go to the record. A set-up is timed by the
/// ticks beside it, not by those of the measurement after it: the VM's
/// speed at the start of a process can differ from its speed seconds
/// into a busy run.
pub fn setup_at_reference(out: &mut Outcome, secs: &[f64], gauge: &speed::Gauge) -> f64 {
    let raw = stats::median(secs);
    out.note("setup.raw_s", raw);
    out.note("setup.speed_scale", gauge.overall());
    raw * gauge.overall()
}

/// Record the raw median of `raw_ns` (before speed normalisation) and
/// the run's overall speed scale under `label`.
pub fn speed_record(out: &mut Outcome, label: &str, raw_ns: &[f64], gauge: &speed::Gauge) {
    out.note(&format!("{label}.raw_p50_us"), stats::median(raw_ns) / 1e3);
    out.note(&format!("{label}.speed_scale"), gauge.overall());
}

/// The workloads `BENCHMARK.json` declares, in its order.
pub const WORKLOADS: &[&str] = &["chain", "archive"];
/// Workloads that run but that `BENCHMARK.json` does not declare:
/// `service` spreads too far from run to run on a shared 2-vCPU VM to
/// gate a change (README.md, "Why `service` is not gated"). Every traced
/// run still measures its layers.
pub const UNGATED_WORKLOADS: &[&str] = &["service"];

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Fault hook for the benchmark's own tests: corrupt the output the
    /// correctness check reads at this op index, so the check must fail.
    pub corrupt_at: Option<u64>,
}

impl Run {
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }

    /// Capacity to reserve for a run's per-unit samples. Untouched
    /// capacity costs no resident memory, so `peak_rss_mb` grows smoothly
    /// with the number of units measured instead of jumping when a
    /// growing buffer doubles.
    pub fn unit_capacity(&self) -> usize {
        (self.seconds * 4000.0) as usize
    }

    /// Whether the fault hook fires at op `index`.
    pub fn corrupts(&self, index: u64) -> bool {
        self.corrupt_at == Some(index)
    }
}

/// What one measurement produced: op counts, metric values, and the
/// run record printed beside them.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Extra figures and settings (`key` → JSON value text).
    pub record: BTreeMap<String, String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.record.insert(key.to_string(), value.to_string());
    }

    pub fn note_str(&mut self, key: &str, value: &str) {
        self.record.insert(key.to_string(), json_string(value));
    }

    /// Fold another outcome into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.record.extend(other.record);
    }
}

/// A correctness check failed: the run must exit nonzero without a
/// result.
#[derive(Debug)]
pub struct Mismatch(pub String);

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "output mismatch: {}", self.0)
    }
}

impl std::error::Error for Mismatch {}

/// Fail with a [`Mismatch`] unless `ok`.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), Mismatch> {
    if ok {
        Ok(())
    } else {
        Err(Mismatch(what()))
    }
}

/// Flip one bit of `data` (the corruption the fault hook applies).
pub fn flip(data: &bytes::Bytes) -> bytes::Bytes {
    let mut v = data.to_vec();
    if let Some(b) = v.last_mut() {
        *b ^= 1;
    } else {
        v.push(1);
    }
    bytes::Bytes::from(v)
}

/// Digest of an ntuple's rows, the form ntuple outputs are compared in.
pub fn ntuple_digest(nt: &daspos_tiers::Ntuple) -> u64 {
    let mut bytes = Vec::with_capacity(nt.n_rows() * 8 * nt.schema().width());
    for i in 0..nt.n_rows() {
        for v in nt.row(i) {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    daspos_tiers::codec::fnv64(&bytes)
}

/// SplitMix64: the benchmark's seeded input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// Median and p99 of all of a run's `samples_ns`, in microseconds, with
/// the sample count behind them recorded under `label`.
pub fn latency_pair(out: &mut Outcome, label: &str, samples_ns: &[f64]) -> (f64, Option<f64>) {
    let us: Vec<f64> = samples_ns.iter().map(|ns| ns / 1e3).collect();
    let p50 = stats::percentile(&us, 0.5);
    let p99 = stats::percentile(&us, 0.99);
    out.note(&format!("{label}.samples"), us.len());
    for (name, value) in [("p50_us", p50), ("p99_us", p99)] {
        if let Some(v) = value {
            out.note(&format!("{label}.{name}"), v);
        }
    }
    (p50.unwrap_or(f64::NAN), p99)
}

/// Set `latency_p50_us` and `latency_tail_ratio` (p99 over p50) from
/// `samples_ns`, recording both
/// percentiles under `label`; returns the p50 in microseconds. The tail
/// is gated as a ratio because it then keeps its meaning when the whole
/// machine runs slower for a while, which moves p50 and p99 together.
pub fn latency_metrics(out: &mut Outcome, label: &str, samples_ns: &[f64]) -> f64 {
    let (p50, p99) = latency_pair(out, label, samples_ns);
    out.metric("latency_p50_us", p50);
    out.metric("latency_tail_ratio", p99.map_or(f64::NAN, |p99| p99 / p50));
    p50
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The box and build a result was measured on.
pub fn machine_record(out: &mut Outcome) {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    out.note("nproc", nproc);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    out.note_str("cpu_model", &cpu);
    out.note_str("rustc", &command_line("rustc", &["-V"]));
    out.note_str("git_commit", &command_line("git", &["rev-parse", "HEAD"]));
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run record line: `{"record": {...}}`.
pub fn render_record(out: &Outcome) -> String {
    let fields: Vec<String> = out
        .record
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{\"record\": {{{}}}}}", fields.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `specs`.
pub fn render_result(out: &Outcome, specs: &[MetricSpec]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for spec in specs {
        let v = *out
            .metrics
            .get(spec.name)
            .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not a finite number ({v})", spec.name));
        }
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(spec.name),
            v,
            json_string(spec.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics and workloads this
    /// harness reports, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let compact: String = text.split_whitespace().collect();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            let better = match spec.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let mut entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"",
                spec.name, spec.unit
            );
            if let Some(bound) = spec.bound {
                entry.push_str(&format!(",\"bound\":{bound}"));
            }
            entry.push('}');
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = compact.matches("{\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
        for w in WORKLOADS {
            assert!(compact.contains(&format!("{{\"name\":\"{w}\",\"why\":")));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        for spec in END_TO_END {
            out.metric(spec.name, 1.5);
        }
        out.metric("extra", 2.0);
        let line = render_result(&out, END_TO_END).expect("all metrics present");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("extra"));
        out.metrics.remove("mb_per_s");
        assert!(render_result(&out, END_TO_END).is_err());
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(spec.name), "{} twice", spec.name);
            assert!(spec.name.len() <= 64 && spec.unit.len() <= 16);
            assert!(spec.bound.is_none_or(|b| b <= 0.25));
        }
    }
}
