//! Timing, statistics, span tracing and result output shared by every
//! workload.

use std::collections::BTreeMap;
use std::time::Instant;
use vanguard_sim::SimStats;

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sample (0 for an
/// empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// SplitMix64: the seeded source behind op-order shuffles.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `0..n` in a seed-determined order (Fisher-Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix::new(seed);
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// What one run of a workload measured, accumulated over its passes. A
/// pass is one complete execution of the workload's op set, in the same
/// seed-determined order every time, on freshly set-up inputs.
#[derive(Default)]
pub struct Samples {
    /// Wall time of each pass's timed phase.
    pub pass_walls: Vec<f64>,
    /// Set-up time of each set-up performed.
    pub setups: Vec<f64>,
    /// Latency of every op, in milliseconds, pass after pass.
    pub op_ms: Vec<f64>,
    /// Ops per pass.
    pub ops_per_pass: usize,
    /// Ops attempted, over all passes.
    pub attempted: u64,
    /// Ops that failed a check, over all passes.
    pub failed: u64,
    /// Whether every check of every pass held.
    pub correct: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples {
            correct: true,
            ..Samples::default()
        }
    }

    /// The median over passes of each pass's op-latency quantile `q`, so
    /// a burst of host load during a few passes cannot move it.
    fn pass_quantile_median(&self, q: f64) -> f64 {
        assert_eq!(
            self.op_ms.len(),
            self.ops_per_pass * self.pass_walls.len(),
            "every pass records one latency per timed op"
        );
        let per_pass: Vec<f64> = self
            .op_ms
            .chunks(self.ops_per_pass.max(1))
            .map(|pass| quantile(pass, q))
            .collect();
        median(&per_pass)
    }

    /// The end-to-end metrics of this run.
    pub fn end_to_end(&self) -> Metrics {
        let wall = median(&self.pass_walls);
        let mut m = Metrics::default();
        m.put("wall_s", wall, "s");
        m.put("setup_s", median(&self.setups), "s");
        m.put("ops_per_s", self.ops_per_pass as f64 / wall, "1/s");
        m.put("op_p50_ms", self.pass_quantile_median(0.50), "ms");
        m.put("op_p95_ms", self.pass_quantile_median(0.95), "ms");
        m.put("peak_rss_mib", peak_rss_mib(), "MiB");
        m
    }
}

/// Named metrics with units, printed in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map(|&(v, _)| v).unwrap_or(0.0)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }

    /// Human-readable rendering, one metric a line.
    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|(name, (value, unit))| format!("  {name:<28} {value:>16.6} {unit}\n"))
            .collect()
    }
}

/// One recorded span: a call into a layer, made from this benchmark's
/// own code.
struct Span {
    layer: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Spans nest through an explicit stack; each
/// op's spans share the op's id. A disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-layer totals derived from spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// Spans recorded for the layer.
    pub calls: u64,
    /// Span time not covered by child spans, in seconds.
    pub self_s: f64,
}

/// The root span name of one op.
pub const OP: &str = "op";

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        if layer == OP {
            self.op += 1;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Calls, self time per layer (self time = span duration minus the
    /// part of it that child spans cover).
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.layer).or_default();
            t.calls += 1;
            t.self_s += (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e9;
        }
        out
    }

    /// Total time of root op spans, in seconds.
    pub fn op_total_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == OP)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Ops recorded so far.
    pub fn ops(&self) -> u64 {
        self.spans.iter().map(|s| s.op).max().unwrap_or(0)
    }
}

/// The layer metrics every workload's traced run reports, filled from
/// span totals and exact counts; layers a workload never calls stay 0.
pub struct LayerReport {
    pub m: Metrics,
}

impl LayerReport {
    pub fn new() -> Self {
        let mut m = Metrics::default();
        for (name, unit) in PER_LAYER {
            m.put(name, 0.0, unit);
        }
        LayerReport { m }
    }

    /// Sets `<prefix>.calls`/`.busy_s` (or `sim.jobs`) from span totals.
    pub fn set_spans(&mut self, layers: &BTreeMap<&'static str, LayerTotals>) {
        for (layer, calls_name) in [
            ("profile", "profile.calls"),
            ("compile", "compile.calls"),
            ("lint", "lint.calls"),
            ("interp", "interp.calls"),
            ("decode", "decode.calls"),
            ("sim", "sim.jobs"),
        ] {
            if let Some(t) = layers.get(layer) {
                self.set(calls_name, t.calls as f64);
                self.set(&format!("{layer}.busy_s"), t.self_s);
            }
        }
        if let Some(t) = layers.get("journal.read") {
            self.set("journal.read_s", t.self_s);
        }
        if let Some(t) = layers.get("journal.append") {
            self.set("journal.append_s", t.self_s);
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.m.put(name, value, unit);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        let v = self.m.get(name);
        self.set(name, v + value);
    }

    /// Adds one simulation's exact counts (simulator, predictor, memory).
    pub fn add_sim(&mut self, s: &SimStats) {
        self.add("sim.cycles", s.cycles as f64);
        self.add("sim.insts", s.committed() as f64);
        self.add("bpred.branch_mispredicts", s.branch_mispredicts as f64);
        self.add("bpred.resolve_mispredicts", s.resolve_mispredicts as f64);
        self.add("bpred.redirects", s.redirects as f64);
        self.add("mem.l1i_misses", s.mem.l1i.misses as f64);
        self.add("mem.l1d_misses", s.mem.l1d.misses as f64);
        self.add("mem.l2_misses", s.mem.l2.misses as f64);
        self.add("mem.memory_accesses", s.mem.memory_accesses as f64);
    }

    /// Derives the simulator's host rates from its busy time and counts.
    pub fn finish_sim(&mut self) {
        let busy = self.m.get("sim.busy_s");
        let cycles = self.m.get("sim.cycles");
        if busy > 0.0 && cycles > 0.0 {
            self.set("sim.host_ns_per_cycle", busy * 1e9 / cycles);
            self.set("sim_mips", self.m.get("sim.insts") / 1e6 / busy);
        }
    }
}

/// Every per-layer metric name and unit (the `per_layer` list of
/// `BENCHMARK.json`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("workloads.kernels", "count"),
    ("profile.calls", "count"),
    ("profile.busy_s", "s"),
    ("profile.hit_ratio", "ratio"),
    ("compile.calls", "count"),
    ("compile.busy_s", "s"),
    ("compile.hit_ratio", "ratio"),
    ("transform.sites_converted", "count"),
    ("lint.calls", "count"),
    ("lint.busy_s", "s"),
    ("interp.calls", "count"),
    ("interp.busy_s", "s"),
    ("decode.calls", "count"),
    ("decode.busy_s", "s"),
    ("sim.jobs", "count"),
    ("sim.busy_s", "s"),
    ("sim.cycles", "count"),
    ("sim.insts", "count"),
    ("sim.host_ns_per_cycle", "ns"),
    ("sim_mips", "MIPS"),
    ("bpred.branch_mispredicts", "count"),
    ("bpred.resolve_mispredicts", "count"),
    ("bpred.redirects", "count"),
    ("mem.l1i_misses", "count"),
    ("mem.l1d_misses", "count"),
    ("mem.l2_misses", "count"),
    ("mem.memory_accesses", "count"),
    ("diskcache.store_s", "s"),
    ("diskcache.load_s", "s"),
    ("diskcache.bytes", "bytes"),
    ("diskcache.disk_hits", "count"),
    ("diskcache.corrupt", "count"),
    ("journal.read_s", "s"),
    ("journal.append_s", "s"),
    ("journal.records", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
];
