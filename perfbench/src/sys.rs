//! Process and host readings: resident memory, CPU time, run context.

use std::time::Duration;

/// Bytes per reported megabyte (decimal, like the simulator's `*_mb` fields).
pub const MB: f64 = 1e6;

/// Reads a `kB` field of `/proc/self/status` in bytes (0 where unavailable).
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Current resident set size (`VmRSS`) in bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS")
}

/// Peak resident set size of this process so far (`VmHWM`) in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM")
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// User plus system CPU time of every thread of this process so far.
pub fn cpu_time() -> Duration {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the x86-64 /
    // aarch64 Linux layout (two `timeval`s then fourteen `long`s), and
    // RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return Duration::ZERO;
    }
    let micros = |t: &Timeval| t.sec.max(0) as u64 * 1_000_000 + t.usec.max(0) as u64;
    Duration::from_micros(micros(&usage.utime) + micros(&usage.stime))
}

/// Returns freed heap pages to the kernel, so that a following `VmRSS`
/// delta counts what the next stage allocates rather than what earlier
/// stages left behind in the allocator.
pub fn release_free_heap() {
    // SAFETY: glibc's `malloc_trim` takes a padding size, touches only the
    // allocator's free lists, and is safe to call at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// The commit the checkout is at, read from `.git/HEAD` without running git;
/// `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|rev| rev.trim().to_string())
            .or_else(|_| packed_ref(reference).ok_or(()))
            .unwrap_or_else(|_| format!("unresolved {reference}")),
        None => head.to_string(),
    }
}

fn packed_ref(reference: &str) -> Option<String> {
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// The host and build facts a result of `workload` on `seed` is only
/// meaningful with, as `(key, value)` rows; `sizes` describes the inputs.
pub fn run_context(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    sizes: String,
) -> Vec<(&'static str, String)> {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    vec![
        ("workload", workload.to_string()),
        ("seed", format!("{seed:#x}")),
        ("seconds", seconds.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("sizes", sizes),
        ("git_revision", git_revision()),
        ("nproc", cloudsim_parallel::available_workers().to_string()),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ("kernel", kernel),
    ]
}
