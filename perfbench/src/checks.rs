//! Output checks and result digests.
//!
//! Every check is one attempted operation; a check that does not hold is one
//! failed operation. `error_rate` is `failed / attempted`.

/// A running tally of output checks.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// An empty tally.
    pub fn new() -> Checks {
        Checks::default()
    }

    /// Records one check; `what` names it in the failure log.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    /// Records that `digest` equals the `reference` digest of the same
    /// workload (the first repetition's result).
    pub fn same_digest(&mut self, what: &str, reference: u64, digest: u64) {
        self.check(
            &format!("{what}: digest {digest:016x} != reference {reference:016x}"),
            digest == reference,
        );
    }

    /// Checks attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks that did not hold.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed checks divided by attempted checks (0 when nothing was checked).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The names of the checks that did not hold, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// FNV-1a over a byte stream: a stable 64-bit digest of a result, independent
/// of the simulator's own hash kernels.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The digest of one byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.update(bytes);
    d.value()
}
