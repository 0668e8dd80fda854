//! Small shared pieces: the seeded generator every schedule and input is
//! drawn from, the output digest, order statistics and `VmHWM`.

/// SplitMix64: the only source of randomness in the benchmark. Everything a
/// workload feeds the program is a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so two uses of one seed
    /// (inputs, schedule, sampling) do not share a sequence.
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ fnv_bytes(stream.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME)
    })
}

/// FNV-1a over 64-bit words: the per-workload `output_digest`. Folding is
/// order-sensitive, so two runs agree only if every op produced the same
/// bits in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    /// Fold one op's per-trial outputs and pass counts.
    pub fn trials(&mut self, outputs: &[Vec<f64>], passes: &[u64]) {
        self.word(outputs.len() as u64);
        for out in outputs {
            for v in out {
                self.word(v.to_bits());
            }
        }
        for p in passes {
            self.word(*p);
        }
    }
}

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`); 0 for an
/// empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn rng_streams_differ_and_repeat() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, "inputs");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut again = Rng::new(7, "inputs");
        assert_eq!(a[0], again.next_u64());
        assert_ne!(a[0], Rng::new(7, "schedule").next_u64());
        assert_ne!(a[0], Rng::new(8, "inputs").next_u64());
        let mut r = Rng::new(1, "x");
        for _ in 0..1000 {
            let k = r.range(4, 12);
            assert!((4..=12).contains(&k));
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn digest_sees_order_and_bits() {
        let mut a = Digest::default();
        a.trials(&[vec![1.0, 2.0]], &[3]);
        let mut b = Digest::default();
        b.trials(&[vec![2.0, 1.0]], &[3]);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.trials(&[vec![1.0, 2.0]], &[3]);
        assert_eq!(a, c);
        let mut z = Digest::default();
        z.trials(&[vec![0.0]], &[1]);
        let mut nz = Digest::default();
        nz.trials(&[vec![-0.0]], &[1]);
        assert_ne!(z, nz);
    }
}
