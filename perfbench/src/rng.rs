//! Seeded input generation. Everything a workload sends — token ids,
//! sequence lengths, request order and arrival times — comes from one
//! `--seed`, so the same seed always produces the same inputs.

/// SplitMix64: tiny, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a named stream, so independent inputs
    /// drawn from one seed do not share a sequence.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        Rng(h)
    }

    /// Next 64 random bits.
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One request input: token ids and segment ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// Token ids, all below the model's vocabulary.
    pub ids: Vec<usize>,
    /// Segment ids: empty, or one per token.
    pub type_ids: Vec<usize>,
}

/// A pool of inputs whose lengths are fixed by the workload — each
/// length in `lengths` appears `copies` times — and whose token ids and
/// order come from the seed. Fixing the length mix keeps the amount of
/// work per run the same across seeds; the seed varies what is sent.
/// With `pairs`, the second half of every input is segment 1, as in a
/// sentence-pair task.
pub fn input_pool(
    seed: u64,
    lengths: &[usize],
    copies: usize,
    vocab: usize,
    pairs: bool,
) -> Vec<Input> {
    let mut rng = Rng::new(seed, "input-pool");
    let mut pool = Vec::with_capacity(lengths.len() * copies);
    for _ in 0..copies {
        for &len in lengths {
            // Ids 0..3 stand in for special tokens; draw real tokens above.
            let ids = (0..len).map(|_| 4 + rng.below(vocab - 4)).collect();
            let type_ids = if pairs {
                (0..len).map(|t| usize::from(t >= len / 2)).collect()
            } else {
                Vec::new()
            };
            pool.push(Input { ids, type_ids });
        }
    }
    rng.shuffle(&mut pool);
    pool
}

/// Length of the windows a schedule is conditioned on, seconds.
pub const WINDOW_S: f64 = 1.0;

/// A Poisson arrival schedule at `rate` requests per second over
/// `seconds`, as offsets from the start in seconds, each paired with the
/// pool index it sends. Generated in full before the run starts.
///
/// The process is conditioned on its count in every [`WINDOW_S`]
/// window: each window holds `rate × WINDOW_S` arrivals (rounded so the
/// total is `rate × seconds`) at sorted uniform times within it. Within
/// a window arrivals are as bursty as Poisson; across windows the
/// offered load stays level, so a seed cannot make one run carry a
/// seconds-long surge that another run lacks. Requests walk a seeded
/// permutation of the pool, so every seed offers the same load and the
/// same mix in a different order.
pub fn poisson_schedule(
    seed: u64,
    stream: &str,
    rate: f64,
    seconds: f64,
    pool_len: usize,
) -> Vec<(f64, usize)> {
    let mut rng = Rng::new(seed, stream);
    let windows = (seconds / WINDOW_S).ceil() as usize;
    let arrivals_by = |t: f64| (rate * t.min(seconds)).round() as usize;
    let mut times: Vec<f64> = Vec::with_capacity(arrivals_by(seconds));
    for w in 0..windows {
        let from = w as f64 * WINDOW_S;
        let to = (from + WINDOW_S).min(seconds);
        let count = arrivals_by(to) - arrivals_by(from);
        let mut window: Vec<f64> = (0..count).map(|_| from + rng.unit() * (to - from)).collect();
        window.sort_by(f64::total_cmp);
        times.extend(window);
    }
    let mut order: Vec<usize> = (0..pool_len).collect();
    rng.shuffle(&mut order);
    times.into_iter().zip(order.into_iter().cycle()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = input_pool(7, &[1, 2, 3, 8], 3, 1024, true);
        let b = input_pool(7, &[1, 2, 3, 8], 3, 1024, true);
        assert_eq!(a, b);
        let c = input_pool(8, &[1, 2, 3, 8], 3, 1024, true);
        assert_ne!(a, c);
        // The length mix is fixed by the workload, not the seed.
        let lens = |p: &[Input]| {
            let mut l: Vec<usize> = p.iter().map(|i| i.ids.len()).collect();
            l.sort_unstable();
            l
        };
        assert_eq!(lens(&a), lens(&c));
        assert!(a.iter().all(|i| i.ids.iter().all(|&t| (4..1024).contains(&t))));
        assert!(a.iter().all(|i| i.type_ids.len() == i.ids.len()));
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(3, "hi", 40.0, 10.0, 32);
        let b = poisson_schedule(3, "hi", 40.0, 10.0, 32);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(4, "hi", 40.0, 10.0, 32));
        assert_ne!(a, poisson_schedule(3, "lo", 40.0, 10.0, 32));
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.iter().all(|&(t, i)| (0.0..10.0).contains(&t) && i < 32));
        // Every seed offers the same load and the same input mix.
        assert_eq!(a.len(), 400);
        let mut uses = vec![0; 32];
        for &(_, i) in &a {
            uses[i] += 1;
        }
        assert!(uses.iter().all(|&u| u == 12 || u == 13), "{uses:?}");
        // Every window carries the same load.
        for w in 0..10 {
            let n = a.iter().filter(|&&(t, _)| (w as f64..(w + 1) as f64).contains(&t)).count();
            assert_eq!(n, 40, "window {w}");
        }
        // A fractional rate and a partial last window keep the total.
        let b = poisson_schedule(3, "hi", 6.5, 4.5, 32);
        assert_eq!(b.len(), 29);
        assert!(b.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(b.iter().all(|&(t, _)| (0.0..4.5).contains(&t)));
    }
}
