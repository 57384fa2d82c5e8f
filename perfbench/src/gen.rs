//! Seeded kernel generator.
//!
//! Every input the benchmark sends is a draw from the `fpfa_workloads`
//! families, made from the workload seed alone: the same seed gives
//! byte-identical kernel sources, names, tile counts and data.  Draws are
//! stratified over log-size (one draw per stratum, jittered by the seed), so
//! two seeds exercise the same size spectrum with different kernels and the
//! aggregate metrics do not swing with one lucky draw.

use fpfa_workloads::Kernel;
use std::collections::HashSet;

/// L1 (in-memory mapping cache) capacity of a default daemon, in entries.
pub const L1_CAPACITY: usize = fpfa_core::cache::DEFAULT_CAPACITY;
/// L0 (per-shard pre-encoded frame table) capacity, in entries.
pub const L0_CAPACITY: usize = 4096;

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
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

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i);
            items.swap(i, j);
        }
    }
}

/// The eleven kernel families of `fpfa_workloads`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    Fir,
    Dot,
    Saxpy,
    Iir,
    Mavg,
    Horner,
    PowSum,
    Fft,
    Dct,
    Matmul,
    Conv,
}

pub const FAMILIES: [Family; 11] = [
    Family::Fir,
    Family::Dot,
    Family::Saxpy,
    Family::Iir,
    Family::Mavg,
    Family::Horner,
    Family::PowSum,
    Family::Fft,
    Family::Dct,
    Family::Matmul,
    Family::Conv,
];

impl Family {
    /// Mapped operations of the family's registry instance (the smallest
    /// size any draw asks for).
    fn registry_ops(self) -> f64 {
        match self {
            Family::Fir => 9.0,
            Family::Dot => 15.0,
            Family::Saxpy => 16.0,
            Family::Iir => 34.0,
            Family::Mavg => 28.0,
            Family::Horner => 42.0,
            Family::PowSum => 22.0,
            Family::Fft => 40.0,
            Family::Dct => 44.0,
            Family::Matmul => 45.0,
            Family::Conv => 102.0,
        }
    }

    /// A kernel of this family with roughly `ops` mapped operations.  The
    /// per-element costs below were measured on the mapped graphs; a draw
    /// only needs to land near its stratum, not on it.
    fn kernel(self, ops: f64, rng: &mut Rng) -> Kernel {
        let at_least = |value: f64, floor: usize| (value.round() as usize).max(floor);
        match self {
            Family::Fir => fpfa_workloads::fir(at_least((ops + 1.0) / 2.0, 5)),
            Family::Dot => fpfa_workloads::dot_product(at_least((ops + 1.0) / 2.0, 8)),
            Family::Saxpy => {
                let alpha = rng.range(2, 99) as i64;
                fpfa_workloads::vector_scale_add(at_least(ops / 2.0, 8), alpha)
            }
            Family::Iir => fpfa_workloads::iir_biquad(at_least(ops / 7.0, 6)),
            Family::Mavg => fpfa_workloads::moving_average(at_least(ops / 4.0 + 3.0, 10)),
            Family::Horner => {
                // Degree 7's leading coefficient is 0, so it folds to the
                // degree-6 kernel; it is never drawn.
                let degree = [2, 3, 4, 5, 6, 8][rng.range(0, 5)];
                fpfa_workloads::horner(at_least(ops / (2.0 * degree as f64 - 1.0), 2), degree)
            }
            Family::PowSum => fpfa_workloads::power_sum(at_least(ops / 4.0, 6)),
            Family::Fft => fpfa_workloads::fft_butterfly_stage(at_least(ops / 10.0, 4)),
            Family::Dct => fpfa_workloads::dct4(at_least(ops / 22.0, 2)),
            Family::Matmul => fpfa_workloads::matmul(at_least((ops / 2.0).cbrt(), 3)),
            Family::Conv => {
                let side = at_least((ops / 10.5).sqrt() + 2.0, 5);
                let height = (side + rng.range(0, 2)).saturating_sub(1).max(5);
                fpfa_workloads::conv2d_3x3(side, height)
            }
        }
    }
}

/// One generated input: a kernel (source, data) plus the tile count it is
/// mapped at.
#[derive(Clone, Debug)]
pub struct Draw {
    pub kernel: Kernel,
    pub tiles: usize,
}

/// Log-uniform size for stratum `index` of `count`, between a family's
/// registry size and `cap` ops.
fn stratum_ops(family: Family, index: usize, count: usize, cap: f64, rng: &mut Rng) -> f64 {
    let lo = family.registry_ops().min(cap);
    let u = (index as f64 + rng.unit()) / count as f64;
    lo * (cap / lo).powf(u)
}

/// A kernel of `family` near `ops` that is not in `taken` (which receives
/// it), or `None` when a few jittered draws all collide (small sizes of a
/// family repeat).
fn distinct(
    family: Family,
    ops: impl Fn(&mut Rng) -> f64,
    rng: &mut Rng,
    taken: &mut HashSet<String>,
) -> Option<Kernel> {
    (0..16).find_map(|_| {
        let kernel = family.kernel(ops(rng), rng);
        taken.insert(kernel.source.clone()).then_some(kernel)
    })
}

/// Draws `count` distinct kernels, one per log-size stratum, each from a
/// seeded family.  `taken` holds sources that must not be drawn again and
/// receives the new ones.
fn stratified(
    rng: &mut Rng,
    count: usize,
    cap: f64,
    tiles: usize,
    taken: &mut HashSet<String>,
) -> Vec<Draw> {
    let mut draws = Vec::with_capacity(count);
    let mut families = FAMILIES.to_vec();
    for index in 0..count {
        // Cycle through a fresh seeded permutation of the families so each
        // family appears almost equally often at every seed.
        if index % FAMILIES.len() == 0 {
            rng.shuffle(&mut families);
        }
        // A family with no unused kernel left in this stratum hands it to
        // the next one.
        let kernel = (0..FAMILIES.len())
            .find_map(|offset| {
                let family = families[(index + offset) % FAMILIES.len()];
                distinct(
                    family,
                    |rng| stratum_ops(family, index, count, cap, rng),
                    rng,
                    taken,
                )
            })
            .expect("a stratum with no unused kernel in any family");
        draws.push(Draw { kernel, tiles });
    }
    draws
}

/// Kernels of the `compile` workload: `count` draws (a multiple of 44) spread
/// log-uniformly from registry size to ~2k ops at one tile, a quarter of them
/// mapped at four tiles and capped near 1k ops (partition cost grows faster
/// than quadratically), in seeded order.
///
/// Every family covers the whole size range on its own, one draw per
/// stratum, so each seed maps the same number of kernels of each family at
/// each size and the slowest kernels — the tail the latency quantiles read —
/// are the same families' largest sizes at every seed.  Nothing is cached
/// here, so a draw may repeat an earlier one.
pub fn compile_set(seed: u64, count: usize) -> Vec<Draw> {
    let mut rng = Rng::new(seed, 1);
    let per_family = count / FAMILIES.len();
    let four = per_family / 4;
    let mut draws = Vec::with_capacity(count);
    for family in FAMILIES {
        for (strata, cap, tiles) in [(per_family - four, 2000.0, 1), (four, 1000.0, 4)] {
            for index in 0..strata {
                let ops = stratum_ops(family, index, strata, cap, &mut rng);
                let kernel = family.kernel(ops, &mut rng);
                draws.push(Draw { kernel, tiles });
            }
        }
    }
    rng.shuffle(&mut draws);
    draws
}

/// Registry-sized draws (up to the largest registry kernel) — the serving
/// catalog and the fresh kernels of `serve_mixed`.
pub const REGISTRY_CAP_OPS: f64 = 400.0;

/// The serving catalog: `count` distinct registry-sized kernels at the
/// daemon's default single tile.
pub fn catalog(seed: u64, count: usize, taken: &mut HashSet<String>) -> Vec<Draw> {
    let mut rng = Rng::new(seed, 2);
    let mut draws = stratified(&mut rng, count, REGISTRY_CAP_OPS, 1, taken);
    rng.shuffle(&mut draws);
    draws
}

/// Fresh registry-sized kernels never drawn before (`taken` covers the
/// catalog and earlier fresh draws).  The families take turns in a seeded
/// order and each family's log-sizes follow a golden-ratio sequence from a
/// seeded start, so every stretch of the stream covers the families and the
/// size range evenly: a short phase maps the same mix of work at every
/// seed.  A size whose kernel was drawn before is jittered upwards; a family
/// with no unused kernel near it hands its turn to the next.
pub struct Fresh {
    rng: Rng,
    families: [Family; 11],
    start: f64,
    drawn: usize,
}

impl Fresh {
    pub fn new(seed: u64) -> Fresh {
        let mut rng = Rng::new(seed, 3);
        let mut families = FAMILIES;
        rng.shuffle(&mut families);
        let start = rng.unit();
        Fresh {
            rng,
            families,
            start,
            drawn: 0,
        }
    }

    pub fn next(&mut self, taken: &mut HashSet<String>) -> Draw {
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        let (turn, families, rng) = (self.drawn, self.families, &mut self.rng);
        self.drawn += 1;
        let u = (self.start + (turn / FAMILIES.len()) as f64 * GOLDEN).fract();
        // Sizes just above `u` first; once every family has used those up
        // (the catalog holds most small kernels), any size.
        let near = |rng: &mut Rng| (u + 0.05 * rng.unit()).min(1.0);
        let anywhere = |rng: &mut Rng| rng.unit();
        let sizes: [&dyn Fn(&mut Rng) -> f64; 2] = [&near, &anywhere];
        let kernel = sizes
            .iter()
            .find_map(|size| {
                (0..FAMILIES.len()).find_map(|offset| {
                    let family = families[(turn + offset) % FAMILIES.len()];
                    let lo = family.registry_ops();
                    distinct(
                        family,
                        |rng| lo * (REGISTRY_CAP_OPS / lo).powf(size(rng)),
                        rng,
                        taken,
                    )
                })
            })
            .expect("no unused registry-sized kernel left");
        Draw { kernel, tiles: 1 }
    }
}

/// The `index`-th whitespace-only variant of `source`: every line
/// re-indented with `1 + index % 8` spaces, then `1 + index / 8` blank
/// lines.  Each index gives a new text while the frontend sees the same
/// token stream, so the flow's post-transform key is unchanged and the
/// full-mapping key is new.
pub fn whitespace_variant(source: &str, index: usize) -> String {
    let indent = " ".repeat(1 + index % 8);
    let mut variant = String::with_capacity(source.len() + 64);
    for line in source.lines() {
        let body = line.trim_start();
        if !body.is_empty() {
            variant.push_str(&indent);
            variant.push_str(body);
        }
        variant.push('\n');
    }
    variant.push_str(&"\n".repeat(1 + index / 8));
    variant
}

/// Simulation inputs of a kernel: its arrays at the frontend's layout.
pub fn sim_inputs(kernel: &Kernel, layout: &fpfa_frontend::MemoryLayout) -> fpfa_sim::SimInputs {
    let arrays: Vec<(&str, &[i64])> = kernel
        .arrays
        .iter()
        .map(|(name, values)| (name.as_str(), values.as_slice()))
        .collect();
    let mut inputs = fpfa_sim::SimInputs::new();
    inputs.statespace = fpfa_frontend::initial_state(layout, &arrays);
    for (name, value) in &kernel.scalars {
        inputs.scalars.insert(name.clone(), *value);
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a: Vec<String> = compile_set(7, 40)
            .into_iter()
            .map(|d| d.kernel.source)
            .collect();
        let b: Vec<String> = compile_set(7, 40)
            .into_iter()
            .map(|d| d.kernel.source)
            .collect();
        assert_eq!(a, b);
        let c: Vec<String> = compile_set(8, 40)
            .into_iter()
            .map(|d| d.kernel.source)
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn fresh_stream_outlasts_a_run() {
        // A run draws a catalog and then, across its rounds and ladder
        // steps, up to a few thousand fresh kernels.
        for seed in [1, 302, 777] {
            let mut taken = HashSet::new();
            catalog(seed, 1000, &mut taken);
            let mut fresh = Fresh::new(seed);
            for _ in 0..3000 {
                fresh.next(&mut taken);
            }
            assert_eq!(taken.len(), 4000);
        }
    }

    #[test]
    fn variants_differ_only_in_whitespace() {
        let source = fpfa_workloads::fir(8).source;
        let variant = whitespace_variant(&source, 9);
        assert_ne!(variant, source);
        assert_ne!(variant, whitespace_variant(&source, 10));
        let squash = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
        assert_eq!(squash(&variant), squash(&source));
    }
}
