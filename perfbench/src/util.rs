//! Small helpers: order statistics, an in-memory span recorder, a JSON
//! writer, a seeded generator and the host fingerprint.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Ratio that reads 0 instead of NaN when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: the benchmark's own seeded choices (displacements, read
/// targets), independent of the workload generators' streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One recorded span. `parent` indexes the enclosing span in the same
/// recorder (`u32::MAX` for a root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

/// Per-thread span recorder. When off, `begin`/`end` do nothing beyond
/// one branch, so untraced runs pay no recording cost.
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

pub const ROOT: u32 = u32::MAX;

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("end() without begin()") as usize;
        self.spans[i].end_ns = self.now_ns();
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Share of span `outer`'s wall time covered by its direct children.
    pub fn child_coverage(&self, outer: &str) -> f64 {
        let mut covered = 0u64;
        let mut total = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != outer {
                continue;
            }
            total += s.end_ns - s.start_ns;
            covered += self
                .spans
                .iter()
                .filter(|c| c.parent == i as u32)
                .map(|c| c.end_ns - c.start_ns)
                .sum::<u64>();
        }
        ratio(covered as f64, total as f64)
    }
}

/// Minimal JSON object writer (keys are plain identifiers).
#[derive(Default)]
pub struct Json {
    buf: String,
}

impl Json {
    fn key(&mut self, k: &str) {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        let _ = write!(self.buf, "{}:", quote(k));
    }

    pub fn num(mut self, k: &str, v: f64) -> Json {
        self.key(k);
        self.buf.push_str(&number(v));
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Json {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn boolean(mut self, k: &str, v: bool) -> Json {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Json {
        self.key(k);
        self.buf.push_str(&quote(v));
        self
    }

    pub fn raw(mut self, k: &str, json: &str) -> Json {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    pub fn done(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host fingerprint: available parallelism, CPU model, kernel release.
pub fn host() -> (usize, String, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    (nproc, cpu, kernel)
}

/// The checked-out commit, read from `.git` in the working directory
/// (never a parent directory, so a run reads only its own checkout);
/// "unknown" where there is none.
pub fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let head = read(".git/HEAD").map(|h| h.trim().to_owned());
    let rev = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(name) => read(&format!(".git/{name}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .map(str::to_owned)
        }),
        None => head,
    };
    rev.map(|r| r.trim().chars().take(12).collect())
        .unwrap_or_else(|| "unknown".into())
}
