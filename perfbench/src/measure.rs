//! Process counters, order statistics and output fingerprints.

use std::time::Instant;

/// FNV-1a 64-bit over a sequence of byte strings, each length-prefixed so
/// that moving a byte between parts changes the hash.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, part: &[u8]) {
        for b in (part.len() as u64).to_le_bytes().iter().chain(part) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn add_str(&mut self, part: &str) {
        self.add(part.as_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// User + system CPU seconds of this process, all threads included (also
/// threads that have exited), at nanosecond resolution.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through a pointer to a live, writable value
    // of that layout, and keeps no reference to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    if rc == 0 {
        t.tv_sec as f64 + t.tv_nsec as f64 / 1e9
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nanoseconds since a process-wide epoch: the clock every span uses.
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Times `calls` back-to-back invocations of `f` per sample, for at least
/// `samples` samples, and returns the per-call nanoseconds of each sample.
/// Batching keeps the clock's own cost (tens of ns) out of sub-100 ns calls.
pub fn batched_ns(samples: usize, calls: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    let mut out = Vec::with_capacity(samples);
    let mut k = 0usize;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..calls {
            f(k);
            k += 1;
        }
        out.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    out
}
