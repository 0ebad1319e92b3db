//! Order statistics and the seeded generator the load generators share.

/// The `q`-quantile (0–1) of `values` by linear interpolation between the
/// two nearest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::max)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the rule the acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Median cost in nanoseconds of one `call`, for calls too short to time
/// singly: 100 samples, each the mean over 1,000 back-to-back calls.
pub fn ns_per_call<T>(mut call: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..NS_SAMPLES)
        .map(|_| {
            let begin = std::time::Instant::now();
            for _ in 0..NS_CALLS_PER_SAMPLE {
                std::hint::black_box(call());
            }
            begin.elapsed().as_secs_f64() * 1e9 / NS_CALLS_PER_SAMPLE as f64
        })
        .collect();
    median(&samples)
}

const NS_SAMPLES: u64 = 100;
const NS_CALLS_PER_SAMPLE: u64 = 1000;
/// Calls behind one [`ns_per_call`] figure.
pub const NS_CALLS: u64 = NS_SAMPLES * NS_CALLS_PER_SAMPLE;

/// SplitMix64: every seeded choice of the benchmark (day order, query
/// mixes, reader alternation) draws from one of these.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `stream` of `seed`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻³² here.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u32 + 1) as usize);
        }
    }
}
