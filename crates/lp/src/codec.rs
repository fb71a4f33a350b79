//! The table-driven batch quantization codec.
//!
//! Every format in this crate has at most 2¹⁶ representable values, so the
//! whole quantization function — transcendentals, field packing, rounding
//! rules and all — collapses into a precomputed [`DecodeTable`]: the sorted
//! set of representable values plus, for each adjacent pair, the exact
//! `f32` input at which the scalar quantizer switches from the lower value
//! to the upper one. Quantization is then a lookup in a block index
//! over the monotone integer image of the input float: one load and one
//! compare per element in the common case, with **no** per-element
//! `log2`/`exp2`.
//!
//! ## Bit-exactness
//!
//! The decision boundaries are *measured from the scalar quantizer itself*
//! by monotone bisection over the `f32` bit lattice, not recomputed from a
//! midpoint formula. Because every scalar quantizer in this crate is
//! monotone non-decreasing, the table path is bit-identical to
//! `q.quantize(f64::from(x)) as f32` for **every** `f32` input — including
//! signed zeros, saturation at ±max, never-round-to-zero posit semantics,
//! subnormals, and NaN/±∞ handling (captured specially at build time).
//! `lp::tests::proptest_codec` proves this property per format family.
//!
//! ## Cost model
//!
//! Building a table costs `O(2ⁿ log 2³²)` scalar quantizations — microseconds
//! for 8-bit formats, a fraction of a second at n = 16 — and is amortized by
//! the global [`cached_table`] keyed on [`Quantizer::codec_key`]. The block
//! index dominates an 8-bit table's memory: 4 bytes per (sign, 2¹⁶-key
//! block) over the magnitudes that hold interior boundaries, 23.8 KB for
//! LP8 (es = 2, rs = 3) and at most 261 KB for any format (every finite
//! block of both signs). The values and boundaries add 8 bytes per
//! representable value.

use crate::quantizer::Quantizer;
use crate::simd;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Index-entry base that marks a key block holding two or more decision
/// boundaries (or none, ahead of the first one). No real base reaches it:
/// a base is at most the boundary count minus one, ≤ 2¹⁶ − 2. The entry's
/// high half then indexes [`BlockIndex::spans`] instead of holding a split.
const MULTI: u32 = 0xFFFF;

/// Entries kept in the global table cache before it is flushed. A genetic
/// search with continuous scale factors can mint unbounded distinct
/// formats; the flush bounds memory. An 8-bit table is at most ~263 KB
/// (its block index can span every finite exponent of both signs, as LP8
/// with es = 5 nearly does at 257 KB) and a fitted LP8 table ~26 KB, so
/// 128 8-bit tables stay under ~34 MB and typically take ~3 MB. A 16-bit
/// table adds ~0.5 MB of values and boundaries.
const MAX_CACHED_TABLES: usize = 128;

/// Maps an `f32` to a `u32` whose unsigned order equals the float total
/// order (sign-magnitude to biased): the standard radix-sort key.
/// Branchless: negatives need `!b`, non-negatives `b ^ 0x8000_0000`, and
/// both are `b ^ (sign-extended sign bit | 0x8000_0000)`.
#[inline]
fn sort_key(x: f32) -> u32 {
    let b = x.to_bits();
    b ^ ((((b as i32) >> 31) as u32) | 0x8000_0000)
}

/// Inverse of [`sort_key`].
#[inline]
fn from_key(k: u32) -> f32 {
    let b = if k & 0x8000_0000 != 0 {
        k ^ 0x8000_0000
    } else {
        !k
    };
    f32::from_bits(b)
}

/// Whether `x` is ±0.0 or non-finite, the inputs the block index does not
/// cover: its magnitude bits lie outside `1..=f32::MAX.to_bits()`. One
/// integer compare, so the common finite non-zero case takes one
/// predictable branch.
#[inline]
fn is_special(x: f32) -> bool {
    (x.to_bits() & 0x7FFF_FFFF).wrapping_sub(1) >= f32::MAX.to_bits()
}

/// The one lookup structure of a [`DecodeTable`]: one 4-byte entry per
/// (input sign, magnitude block), where a magnitude block is
/// `(|x| bits) >> 16` — 2⁻⁷ of an octave, i.e. one 2¹⁶-key block of the
/// input's sort key.
///
/// An entry is `base | split << 16`, and the value index of a key `k` in
/// its block is `base + (k & 0xFFFF >= split)`: one load and one compare.
/// A block with one boundary stores its first value index and the
/// boundary's offset in the block; a block with none stores its index
/// minus one and split 0. A block with several boundaries (or none, ahead
/// of the first) has base [`MULTI`] and indexes [`BlockIndex::spans`].
///
/// **Clamp exactness.** The magnitude bits of an input are clamped to
/// `[mag_lo, mag_hi]` before the lookup, so only the blocks between the
/// extreme *interior* boundaries — those that split a sign's finite
/// non-zero keys — are indexed. Every other boundary lies at or beyond
/// the extreme finite non-zero key of its sign: the zero-interval edges,
/// or the unreachable `k_max + 1` sentinel. The clamp range covers each
/// sign's interior boundaries (from one key below the lowest) and stays
/// inside the finite non-zero magnitudes, so no boundary lies between a
/// finite non-zero input's key and its clamped key, and the clamped key
/// indexes exactly as the input would. Clamping also keeps every lookup in
/// bounds, which the gathers of the AVX2 tier rely on.
#[derive(Debug, Clone)]
pub(crate) struct BlockIndex {
    /// `per_sign` entries for positive inputs, then as many for negative
    /// inputs, each in ascending magnitude.
    pub(crate) entries: Vec<u32>,
    /// `(first, end)`: the boundaries `bounds[first..end]` of each
    /// [`MULTI`] block.
    spans: Vec<(u16, u16)>,
    /// The clamp range of an input's magnitude bits.
    pub(crate) mag_lo: u32,
    pub(crate) mag_hi: u32,
    /// Entries per sign: `(mag_hi >> 16) - (mag_lo >> 16) + 1`.
    pub(crate) per_sign: u32,
}

impl BlockIndex {
    /// Indexes ascending `bounds` in one ascending-key sweep per sign.
    fn build(bounds: &[u32]) -> Self {
        let mag = |k: u32| from_key(k).to_bits() & 0x7FFF_FFFF;
        // Each sign's finite non-zero keys, positive first.
        let finite = [
            (sort_key(f32::from_bits(1)), sort_key(f32::MAX)),
            (sort_key(f32::MIN), sort_key(-f32::from_bits(1))),
        ];
        let (mut mag_lo, mut mag_hi) = (u32::MAX, 0);
        for (lo, hi) in finite {
            // The interior boundaries: those in (lo, hi].
            let a = bounds.partition_point(|&b| b <= lo);
            let z = bounds.partition_point(|&b| b <= hi);
            if a < z {
                let (m1, m2) = (mag(bounds[a] - 1), mag(bounds[z - 1]));
                mag_lo = mag_lo.min(m1.min(m2));
                mag_hi = mag_hi.max(m1.max(m2));
            }
        }
        if mag_lo > mag_hi {
            // No interior boundary: each sign maps to one index.
            (mag_lo, mag_hi) = (1, 1);
        }
        let (block_lo, block_hi) = (mag_lo >> 16, mag_hi >> 16);
        let per_sign = block_hi - block_lo + 1;
        let mut index = BlockIndex {
            entries: vec![0; 2 * per_sign as usize],
            spans: Vec::new(),
            mag_lo,
            mag_hi,
            per_sign,
        };
        for sign in 0..2 {
            // Sweep the sign's key blocks in ascending key order: positive
            // keys grow with the magnitude, negative keys shrink.
            let block_of = |i: u32| {
                if sign == 0 {
                    (block_lo + i, 0x8000 + block_lo + i)
                } else {
                    (block_hi - i, 0x7FFF - (block_hi - i))
                }
            };
            let mut cursor = bounds.partition_point(|&b| b >> 16 < block_of(0).1);
            for i in 0..per_sign {
                let (mag_block, key_block) = block_of(i);
                let first = cursor;
                while cursor < bounds.len() && bounds[cursor] >> 16 == key_block {
                    cursor += 1;
                }
                let entry = match cursor - first {
                    0 if first > 0 => first as u32 - 1,
                    1 => first as u32 | (bounds[first] & 0xFFFF) << 16,
                    _ => {
                        index.spans.push((first as u16, cursor as u16));
                        MULTI | (index.spans.len() as u32 - 1) << 16
                    }
                };
                index.entries[(sign * per_sign + mag_block - block_lo) as usize] = entry;
            }
        }
        index
    }

    /// The entry of a (finite, non-zero) input and its clamped sort key.
    #[inline]
    fn locate(&self, x: f32) -> (u32, u32) {
        let b = x.to_bits();
        let neg = ((b as i32) >> 31) as u32;
        let m = (b & 0x7FFF_FFFF).max(self.mag_lo).min(self.mag_hi);
        let e = self.entries[((m >> 16) - (self.mag_lo >> 16) + (neg & self.per_sign)) as usize];
        (e, m ^ neg ^ 0x8000_0000)
    }
}

/// A precomputed quantization table for one `(format, params)` pair: the
/// sorted representable values and the exact input boundaries between them.
///
/// # Examples
///
/// ```
/// use lp::format::LpParams;
/// use lp::codec::DecodeTable;
/// use lp::Quantizer;
///
/// # fn main() -> Result<(), lp::LpError> {
/// let p = LpParams::new(8, 2, 3, 0.25)?;
/// let table = DecodeTable::build(&p);
/// // Bit-identical to the scalar path, without per-element transcendentals.
/// for x in [0.37f32, -1.4, 1e-9, 1e9, 0.0] {
///     assert_eq!(
///         table.quantize_one(x).to_bits(),
///         (p.quantize(f64::from(x)) as f32).to_bits(),
///     );
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DecodeTable {
    /// Cache identity of the source quantizer.
    key: String,
    /// Storage bits of the source format.
    bits: u32,
    /// Distinct representable values (after `f32` cast), ascending.
    values: Vec<f32>,
    /// `bounds[i]` = [`sort_key`] of the smallest `f32` input whose scalar
    /// quantization exceeds `values[i]`; non-decreasing, one per adjacent
    /// pair. The sentinel `sort_key(f32::MAX) + 1` marks values unreachable
    /// from any finite input.
    bounds: Vec<u32>,
    /// The lookup structure over `bounds`.
    pub(crate) index: BlockIndex,
    /// Index of the value `+0.0` inputs map to.
    zero_index: u16,
    /// What the scalar path returns for non-zero inputs inside the zero
    /// interval, per input sign bit (`[+, −]`): formats with a linear grid
    /// flush tiny negative inputs to `-0.0` (the rounding is
    /// sign-preserving), which the collapsed `0.0` table entry cannot
    /// express on its own.
    pub(crate) zero_from: [f32; 2],
    /// Exact scalar outputs for the special inputs.
    q_pos_zero: f32,
    q_neg_zero: f32,
    q_nan: f32,
    q_pos_inf: f32,
    q_neg_inf: f32,
}

/// Probes a seeded search spends galloping away from one seed (steps 1,
/// 2, 4: a boundary within 7 keys of the seed) before it gives the seed up.
const GALLOP_PROBES: u32 = 3;

/// The two seeds of the boundary between adjacent values `a < b`: first
/// the geometric midpoint, where formats that round in the log domain (LP,
/// LNS) switch, then the arithmetic midpoint, where linear-grid formats
/// (posit fractions, minifloat, integer) switch. Next to a zero value the
/// first seed is instead the zero's edge, where formats that never round
/// to zero (LP, posit) switch. Both are `None` next to an infinite value,
/// and the first where the values differ in sign.
fn boundary_seeds(a: f32, b: f32) -> [Option<u32>; 2] {
    if !(a.is_finite() && b.is_finite()) {
        return [None, None];
    }
    let first = if b == 0.0 {
        Some(sort_key(-0.0))
    } else if a == 0.0 {
        Some(sort_key(f32::from_bits(1)))
    } else {
        let (a, b) = (f64::from(a), f64::from(b));
        (a * b > 0.0).then(|| sort_key((a.signum() * (a * b).sqrt()) as f32))
    };
    let arith = Some(sort_key(((f64::from(a) + f64::from(b)) * 0.5) as f32));
    [first, arith]
}

/// The smallest key in `(lo, hi]` for which `above` holds, given
/// `!above(lo) && above(hi)`, by plain bisection.
fn bisect(mut lo: u32, mut hi: u32, above: impl Fn(u32) -> bool) -> u32 {
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if above(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// [`bisect`] seeded at `seeds`, tried in order: probe a seed, gallop
/// away from it by doubling steps for up to [`GALLOP_PROBES`] probes, and
/// bisect only the bracket that is left. A seed that lands within a few
/// keys of the boundary costs a handful of probes in place of ~20; one
/// that misses has still narrowed the bracket it probed, so the fallback
/// bisection has less left to do.
///
/// Returns the boundary and the index of the seed whose gallop crossed it
/// (`None` when every seed missed). `above` is monotone, so the smallest
/// key that maps above the lower value is unique: any search order
/// returns exactly what [`bisect`] returns.
fn seeded_bisect(
    mut lo: u32,
    mut hi: u32,
    seeds: [Option<u32>; 2],
    above: impl Fn(u32) -> bool,
) -> (u32, Option<usize>) {
    for (which, seed) in seeds.into_iter().enumerate() {
        let Some(s) = seed.filter(|&s| lo < s && s < hi) else {
            continue;
        };
        let mut step = 1u32;
        if above(s) {
            hi = s;
            for _ in 0..GALLOP_PROBES {
                if hi - lo <= 1 {
                    return (hi, Some(which));
                }
                let t = hi - step.min(hi - lo - 1);
                if !above(t) {
                    return (bisect(t, hi, &above), Some(which));
                }
                hi = t;
                step *= 2;
            }
        } else {
            lo = s;
            for _ in 0..GALLOP_PROBES {
                if hi - lo <= 1 {
                    return (hi, Some(which));
                }
                let t = lo + step.min(hi - lo - 1);
                if above(t) {
                    return (bisect(lo, t, &above), Some(which));
                }
                lo = t;
                step *= 2;
            }
        }
    }
    (bisect(lo, hi, &above), None)
}

/// Measures `bounds[i]`, the sort key of the smallest `f32` input whose
/// scalar quantization exceeds `values[i]`, for each adjacent pair of the
/// sorted, deduplicated `values`.
///
/// With `seeded`, each bisection starts at the pair's midpoints
/// ([`seeded_bisect`]), trying first the kind of midpoint that found the
/// previous boundary, so a format pays for a wrong guess only where its
/// rounding changes character (a posit's fraction bits running out).
/// Without it, every boundary is bisected from its full bracket; the
/// tests keep that as the oracle the seeded search must equal.
fn measure_bounds(values: &[f32], scalar: &impl Fn(f32) -> f32, seeded: bool) -> Vec<u32> {
    let k_min = sort_key(f32::MIN); // most negative finite input
    let k_max = sort_key(f32::MAX);
    let k_unreachable = k_max + 1;
    let mut bounds: Vec<u32> = Vec::with_capacity(values.len().saturating_sub(1));
    let mut prev = k_min;
    // Index into `boundary_seeds` of the midpoint kind tried first.
    let mut first = 0usize;
    for i in 0..values.len().saturating_sub(1) {
        let vi = values[i];
        // Does the input with this key quantize above values[i]?
        // (NaN outputs compare false, which conservatively reads as
        // "not above"; only the unreachable-sentinel path can see them.)
        let above = |k: u32| scalar(from_key(k)) > vi;
        let bound = if prev > k_max {
            k_unreachable
        } else if above(prev) {
            // values[i] is unreachable beyond the previous boundary.
            prev
        } else {
            // Establish an upper bracket at/above the next value.
            let mut hi = if values[i + 1].is_finite() {
                sort_key(values[i + 1]).max(prev)
            } else {
                k_max
            };
            if !above(hi) {
                // Rare: the next value's own bit pattern still rounds
                // down. Expand exponentially toward the top of the
                // finite range.
                let mut step = 1u32;
                loop {
                    if hi >= k_max {
                        hi = k_unreachable;
                        break;
                    }
                    hi = hi.saturating_add(step).min(k_max);
                    if above(hi) {
                        break;
                    }
                    step = step.saturating_mul(2);
                }
            }
            if hi == k_unreachable {
                hi
            } else if seeded {
                // Invariant: !above(prev) && above(hi).
                let mut seeds = boundary_seeds(vi, values[i + 1]);
                seeds.rotate_left(first);
                let (bound, crossed) = seeded_bisect(prev, hi, seeds, above);
                if let Some(which) = crossed {
                    first = (first + which) % seeds.len();
                }
                bound
            } else {
                bisect(prev, hi, above)
            }
        };
        bounds.push(bound);
        prev = bound;
    }
    bounds
}

impl DecodeTable {
    /// Enumerates, sorts and boundary-measures the full decode table of a
    /// quantizer.
    ///
    /// # Panics
    ///
    /// Panics if the quantizer enumerates no finite values (a format must
    /// represent at least one value).
    pub fn build<Q: Quantizer + ?Sized>(q: &Q) -> Self {
        let mut values: Vec<f32> = q
            .enumerate_values()
            .into_iter()
            .filter(|v| !v.is_nan())
            .map(|v| v as f32)
            .collect();
        values.sort_by(|a, b| a.total_cmp(b));
        values.dedup_by(|a, b| a == b); // also collapses -0.0 with +0.0
        assert!(!values.is_empty(), "quantizer enumerates no values");
        assert!(
            values.len() <= usize::from(u16::MAX) + 1,
            "more than 2^16 representable values"
        );

        let scalar = |x: f32| -> f32 { q.quantize(f64::from(x)) as f32 };
        let bounds = measure_bounds(&values, &scalar, true);
        let k_min = sort_key(f32::MIN);
        let k_max = sort_key(f32::MAX);

        let q_pos_zero = scalar(0.0);
        let zero_index = {
            // Index +0.0 inputs resolve to through the boundary structure.
            let k = sort_key(0.0);
            bounds.partition_point(|&b| b <= k) as u16
        };

        // Measure the per-sign outputs of the zero interval (if any): the
        // probe points are the extreme in-interval inputs on each side.
        let (mut zero_from_neg, mut zero_from_pos) = (0.0f32, 0.0f32);
        let zi = values.partition_point(|&v| v < 0.0);
        if zi < values.len() && values[zi] == 0.0 {
            let start = if zi == 0 { k_min } else { bounds[zi - 1] };
            let lo_probe = from_key(start);
            zero_from_neg = if lo_probe < 0.0 {
                scalar(lo_probe)
            } else {
                values[zi]
            };
            let end = if zi + 1 == values.len() {
                k_max
            } else {
                bounds[zi].saturating_sub(1).min(k_max)
            };
            let hi_probe = from_key(end);
            zero_from_pos = if hi_probe > 0.0 {
                scalar(hi_probe)
            } else {
                values[zi]
            };
        }

        DecodeTable {
            key: q.codec_key(),
            bits: q.bits(),
            values,
            index: BlockIndex::build(&bounds),
            bounds,
            zero_index,
            zero_from: [zero_from_pos, zero_from_neg],
            q_pos_zero,
            q_neg_zero: scalar(-0.0),
            q_nan: q.quantize(f64::NAN) as f32,
            q_pos_inf: q.quantize(f64::INFINITY) as f32,
            q_neg_inf: q.quantize(f64::NEG_INFINITY) as f32,
        }
    }

    /// The cache identity of the source quantizer.
    pub fn codec_key(&self) -> &str {
        &self.key
    }

    /// Storage bits of the source format.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of distinct representable values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty (never true for a built table).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sorted representable values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Index of the value that `+0.0` quantizes to.
    pub fn zero_index(&self) -> u16 {
        self.zero_index
    }

    /// Index of the representable value a finite non-zero input
    /// quantizes to: one compare in its key block, or a binary search of
    /// exactly the block's boundaries when it holds several.
    #[inline]
    fn index_of_finite(&self, x: f32) -> usize {
        let (e, k) = self.index.locate(x);
        let base = e & 0xFFFF;
        if base != MULTI {
            return (base + u32::from(k & 0xFFFF >= e >> 16)) as usize;
        }
        let (first, end) = self.index.spans[(e >> 16) as usize];
        let (first, end) = (usize::from(first), usize::from(end));
        first + self.bounds[first..end].partition_point(|&b| b <= k)
    }

    /// Quantizes one value, bit-identical to the scalar path.
    #[inline]
    pub fn quantize_one(&self, x: f32) -> f32 {
        if is_special(x) {
            return if x == 0.0 {
                if x.is_sign_negative() {
                    self.q_neg_zero
                } else {
                    self.q_pos_zero
                }
            } else if x.is_nan() {
                self.q_nan
            } else if x > 0.0 {
                self.q_pos_inf
            } else {
                self.q_neg_inf
            };
        }
        let v = self.values[self.index_of_finite(x)];
        if v == 0.0 {
            // Inside the zero interval the scalar grid formats preserve the
            // input sign on the flushed zero.
            self.zero_from[(x.to_bits() >> 31) as usize]
        } else {
            v
        }
    }

    /// Quantizes a slice in place (the batch fake-quant hot path).
    ///
    /// The AVX2 tier (`lp::simd`) runs eight lanes per step: a magnitude
    /// clamp, one gathered block-index entry and compare, one gathered
    /// value, and a select on the sign bit for the zero interval's
    /// sign-preserving flush. Lanes with ±0.0 or non-finite inputs, or in
    /// a multi-boundary block, are redone from their original inputs by
    /// [`DecodeTable::quantize_one`], which also takes whatever the vector
    /// tier leaves (the whole slice on the portable tier). So the kernel
    /// stays bit-identical to the scalar map (pinned per format by
    /// `lp::tests::proptest_codec`).
    pub fn quantize_slice(&self, xs: &mut [f32]) {
        let done = simd::decode_table_quantize(self, xs);
        for x in &mut xs[done..] {
            *x = self.quantize_one(*x);
        }
    }

    /// The `u16` code of one input under the datapath semantics of
    /// [`DecodeTable::quantize_batch`]: ±0.0 and NaN flush to the zero
    /// code, ±∞ saturate to the extreme codes, finite values index their
    /// quantized value.
    #[inline]
    pub(crate) fn code_one(&self, x: f32) -> u16 {
        if !is_special(x) {
            self.index_of_finite(x) as u16
        } else if x == f32::INFINITY {
            (self.values.len() - 1) as u16
        } else if x == f32::NEG_INFINITY {
            0
        } else {
            self.zero_index
        }
    }

    /// Quantizes a batch into table indices (`u16` codes), reusing `out`'s
    /// allocation — the zero-allocation entry point for per-call encode
    /// loops (`lpa`'s tile output encode, packed-weight registration).
    ///
    /// `out` is cleared first; on return `out.len() == xs.len()`. Runs
    /// the same kernels as [`DecodeTable::quantize_slice`] (codes need no
    /// zero-interval flush: a finite non-zero input's code *is*
    /// `index_of_finite`, even when that index holds the value `0.0`).
    pub fn quantize_batch_into(&self, xs: &[f32], out: &mut Vec<u16>) {
        out.clear();
        out.reserve(xs.len());
        let done = simd::decode_table_codes(self, xs, out);
        out.extend(xs[done..].iter().map(|&x| self.code_one(x)));
    }

    /// Quantizes a batch into table indices (`u16` codes).
    ///
    /// Finite inputs map to the index of their quantized value. Non-finite
    /// inputs follow the LPA datapath's exception handling: NaN flushes to
    /// the zero code, ±∞ saturate to the extreme codes. Thin allocating
    /// wrapper over [`DecodeTable::quantize_batch_into`].
    pub fn quantize_batch(&self, xs: &[f32]) -> Vec<u16> {
        let mut out = Vec::new();
        self.quantize_batch_into(xs, &mut out);
        out
    }

    /// Decodes a batch of table indices back to values.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for this table.
    pub fn dequantize_batch(&self, codes: &[u16]) -> Vec<f32> {
        codes.iter().map(|&c| self.values[usize::from(c)]).collect()
    }
}

/// A bounded, process-wide memo map: `Arc`-shared values keyed by an
/// arbitrary hashable key, flushed wholesale when `cap` entries accumulate
/// (searches over continuous parameters can mint unbounded distinct keys;
/// the flush bounds memory while keeping steady-state hits cheap).
///
/// One implementation serves the three cache sites in the workspace: the
/// decode-table cache here, `lpa`'s lane-LUT cache, and `dnn`'s
/// quantized-weight cache.
pub struct BoundedCache<K, V> {
    map: Mutex<HashMap<K, Arc<V>>>,
    cap: usize,
}

impl<K: std::hash::Hash + Eq, V> BoundedCache<K, V> {
    /// An empty cache flushed at `cap` entries.
    pub fn new(cap: usize) -> Self {
        BoundedCache {
            map: Mutex::new(HashMap::new()),
            cap,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<K, Arc<V>>> {
        self.map.lock().expect("bounded cache poisoned")
    }

    /// The cached value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        self.lock().get(key).map(Arc::clone)
    }

    /// Inserts `value` under `key` (flushing first at capacity) and
    /// returns the stored `Arc` — the existing one if a racing insert got
    /// there first.
    pub fn insert(&self, key: K, value: V) -> Arc<V> {
        let mut map = self.lock();
        if map.len() >= self.cap {
            map.clear();
        }
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(value)))
    }

    /// The cached value for `key`, building it with `build` on a miss.
    ///
    /// `build` runs *outside* the lock so concurrent first-time builders
    /// of other keys are not serialized; a racing duplicate build is
    /// harmless (one result wins).
    pub fn get_or_insert_with(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let value = build();
        self.insert(key, value)
    }

    /// Number of cached entries (diagnostics).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: std::hash::Hash + Eq, V> std::fmt::Debug for BoundedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedCache")
            .field("entries", &self.len())
            .field("cap", &self.cap)
            .finish()
    }
}

fn cache() -> &'static BoundedCache<String, DecodeTable> {
    static CACHE: OnceLock<BoundedCache<String, DecodeTable>> = OnceLock::new();
    CACHE.get_or_init(|| BoundedCache::new(MAX_CACHED_TABLES))
}

/// The process-wide decode-table cache, keyed by
/// [`Quantizer::codec_key`]. Builds the table on first use; repeated
/// requests for the same `(format, params)` are a map lookup.
pub fn cached_table<Q: Quantizer + ?Sized>(q: &Q) -> Arc<DecodeTable> {
    cache().get_or_insert_with(q.codec_key(), || DecodeTable::build(q))
}

/// Number of tables currently cached (diagnostics).
pub fn cached_table_count() -> usize {
    cache().len()
}

/// Batch-quantizes `xs` through the cached table of `q`, returning the
/// `u16` codes together with the table that decodes them — the
/// tensor-granular API the `dnn`/`lpa` crates build on (packed serving
/// weights are exactly these codes plus the shared table).
///
/// # Examples
///
/// ```
/// use lp::codec::{dequantize_batch, quantize_batch};
/// use lp::format::LpParams;
/// use lp::Quantizer;
///
/// let lp8 = LpParams::clamped(8, 2, 3, 0.0);
/// let xs = [0.0_f32, 0.37, -1.25, 7.0];
/// let (codes, table) = quantize_batch(&lp8, &xs);
/// assert_eq!(codes.len(), xs.len());
///
/// // Decoding a code yields the representable value the scalar
/// // quantizer would have produced — the table path is bit-identical
/// // to the reference path by construction.
/// let decoded = dequantize_batch(&codes, &table);
/// for (&x, &d) in xs.iter().zip(&decoded) {
///     assert_eq!(d, lp8.quantize(f64::from(x)) as f32);
/// }
/// assert_eq!(decoded[0], 0.0, "signed zero round-trips");
/// ```
pub fn quantize_batch<Q: Quantizer + ?Sized>(q: &Q, xs: &[f32]) -> (Vec<u16>, Arc<DecodeTable>) {
    let table = cached_table(q);
    let codes = table.quantize_batch(xs);
    (codes, table)
}

/// Decodes `codes` produced by [`quantize_batch`] against `table`.
pub fn dequantize_batch(codes: &[u16], table: &DecodeTable) -> Vec<f32> {
    table.dequantize_batch(codes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptivfloat::AdaptivFloat;
    use crate::baselines::{FixedPoint, IntQuantizer, LnsQuantizer, MiniFloat};
    use crate::format::LpParams;
    use crate::posit::PositParams;

    fn all_8bit() -> Vec<Box<dyn Quantizer + Send + Sync>> {
        vec![
            Box::new(LpParams::new(8, 2, 3, 0.25).unwrap()),
            Box::new(PositParams::new(8, 2).unwrap()),
            Box::new(AdaptivFloat::new(8, 3, 2).unwrap()),
            Box::new(MiniFloat::new(8, 4).unwrap()),
            Box::new(IntQuantizer::new(8, 0.05).unwrap()),
            Box::new(FixedPoint::new(8, 4).unwrap()),
            Box::new(LnsQuantizer::new(8, 3, 0.5).unwrap()),
        ]
    }

    fn probe_inputs() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN,
            f32::MAX,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-40, // f32 subnormal
            -1e-40,
            1.0,
            -1.0,
        ];
        for i in 0..4000 {
            let t = (i as f32 * 0.618_034).fract();
            let mag = (t * 60.0 - 30.0).exp2();
            xs.push(if i % 2 == 0 { mag } else { -mag });
        }
        xs
    }

    #[test]
    fn table_matches_scalar_for_every_8bit_format() {
        for q in all_8bit() {
            let table = DecodeTable::build(q.as_ref());
            for &x in &probe_inputs() {
                let want = (q.quantize(f64::from(x)) as f32).to_bits();
                let got = table.quantize_one(x).to_bits();
                assert_eq!(
                    got,
                    want,
                    "{}: input {x:?} ({:#010x})",
                    q.codec_key(),
                    x.to_bits()
                );
            }
        }
    }

    /// The adversarial inputs of a table: each value and its negation,
    /// each measured boundary and one key either side of it, and the
    /// specials (both NaN extremes included).
    fn boundary_probes(table: &DecodeTable) -> Vec<f32> {
        let mut probes = vec![
            0.0,
            -0.0,
            f32::NAN,
            f32::from_bits(0x7FFF_FFFF),
            f32::from_bits(0xFFFF_FFFF),
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for &v in table.values() {
            probes.extend([v, -v]);
        }
        for &b in &table.bounds {
            if b <= sort_key(f32::MAX) {
                probes.extend([from_key(b.wrapping_sub(1)), from_key(b), from_key(b + 1)]);
            }
        }
        probes
    }

    #[test]
    fn table_matches_scalar_at_boundaries() {
        // Every boundary ±1 key through all three entry points, with the
        // probe slice shifted so each probe meets every lane of an 8-lane
        // vector and the scalar tail (the shifted lengths are not all
        // multiples of 8). The wider formats hold multi-boundary blocks.
        let mut formats = all_8bit();
        formats.push(Box::new(PositParams::new(12, 1).unwrap()));
        formats.push(Box::new(IntQuantizer::new(12, 0.01).unwrap()));
        let mut multi_blocks = 0;
        for q in formats {
            let table = DecodeTable::build(q.as_ref());
            multi_blocks += table.index.spans.len();
            let probes = boundary_probes(&table);
            for shift in 0..8 {
                let xs = &probes[shift..];
                let mut sliced = xs.to_vec();
                table.quantize_slice(&mut sliced);
                let mut codes = Vec::new();
                table.quantize_batch_into(xs, &mut codes);
                for ((&x, &got), &code) in xs.iter().zip(&sliced).zip(&codes) {
                    let want = (q.quantize(f64::from(x)) as f32).to_bits();
                    let key = q.codec_key();
                    let one = table.quantize_one(x).to_bits();
                    assert_eq!(
                        one,
                        want,
                        "{key}: quantize_one {x:?} ({:#010x})",
                        x.to_bits()
                    );
                    assert_eq!(got.to_bits(), want, "{key}: quantize_slice {x:?}");
                    let want_code = if x == 0.0 || x.is_nan() {
                        table.zero_index()
                    } else if x.is_infinite() {
                        if x > 0.0 {
                            table.len() as u16 - 1
                        } else {
                            0
                        }
                    } else {
                        table.bounds.partition_point(|&b| b <= sort_key(x)) as u16
                    };
                    assert_eq!(code, want_code, "{key}: quantize_batch_into {x:?}");
                }
            }
        }
        assert!(
            multi_blocks > 0,
            "no format exercised a multi-boundary block"
        );
    }

    /// One quantizer per knob setting of the codec proptests' family grid
    /// (`tests/proptest_codec.rs`): LP, posit, AdaptivFloat, minifloat,
    /// integer, fixed point and LNS.
    fn family(
        kind: usize,
        n: u32,
        a: u32,
        b: u32,
        sf_step: i32,
    ) -> Box<dyn Quantizer + Send + Sync> {
        let sf = f64::from(sf_step) * 0.5;
        match kind {
            0 => {
                let es = a.min(n.saturating_sub(3)).min(5);
                let rs = (2u32.min(n - 1) + b).min(n - 1);
                Box::new(LpParams::new(n, es, rs, sf).unwrap())
            }
            1 => Box::new(PositParams::new(n, a.min(n - 2)).unwrap()),
            2 => {
                let n = n.max(3);
                Box::new(AdaptivFloat::new(n, (1 + a).clamp(1, n - 1), sf_step - 1).unwrap())
            }
            3 => {
                let n = n.max(3);
                Box::new(MiniFloat::new(n, (1 + a).clamp(1, n - 1)).unwrap())
            }
            4 => {
                let scale = f64::from(1 + a) * 0.05 * f64::from(b + 1);
                Box::new(IntQuantizer::new(n, scale).unwrap())
            }
            5 => Box::new(FixedPoint::new(n, a as i32 * 3 - 2).unwrap()),
            _ => Box::new(LnsQuantizer::new(n.max(3), (1 + a).min(n.max(3) - 2), sf).unwrap()),
        }
    }

    /// Seeded and plain bounds of one quantizer, with the scalar calls
    /// each search made.
    fn both_bounds(q: &dyn Quantizer) -> ((Vec<u32>, usize), (Vec<u32>, usize)) {
        let table = DecodeTable::build(q);
        let calls = std::cell::Cell::new(0usize);
        let scalar = |x: f32| {
            calls.set(calls.get() + 1);
            q.quantize(f64::from(x)) as f32
        };
        let seeded = measure_bounds(table.values(), &scalar, true);
        let seeded_calls = calls.replace(0);
        let plain = measure_bounds(table.values(), &scalar, false);
        assert_eq!(seeded, table.bounds, "{}: build is seeded", q.codec_key());
        ((seeded, seeded_calls), (plain, calls.get()))
    }

    #[test]
    fn seeded_bounds_equal_plain_bisection_for_every_family_and_width() {
        // Every family at every width 2–16 the codec proptests build;
        // the full knob grid up to 10 bits, one setting per family above
        // (a 16-bit table holds 2¹⁶ boundaries). No table may take more
        // scalar calls than plain bisection.
        for kind in 0..7 {
            for n in 2..=16u32 {
                let grid: &[(u32, u32, i32)] = if n <= 10 {
                    &[(0, 0, -1), (0, 1, 0), (1, 0, 1), (1, 1, -1), (1, 1, 0)]
                } else {
                    &[(1, 1, 0)]
                };
                for &(a, b, sf_step) in grid {
                    let q = family(kind, n, a, b, sf_step);
                    let ((seeded, sc), (plain, pc)) = both_bounds(q.as_ref());
                    let key = q.codec_key();
                    assert_eq!(seeded, plain, "{key}");
                    assert!(sc <= pc, "{key}: seeded {sc} scalar calls > plain {pc}");
                }
            }
        }
    }

    #[test]
    fn seeded_bounds_equal_plain_bisection_over_the_lp_space() {
        // Exhaustive over LP n ∈ 2..=8 with every valid (es, rs), on a
        // grid of scale factors; 8-bit tables need ≤ 1/3 of the calls.
        for n in 2..=8u32 {
            for es in 0..=n.saturating_sub(3).min(5) {
                for rs in 2u32.min(n - 1)..=n - 1 {
                    for sf_step in -6..=6 {
                        let sf = f64::from(sf_step) * 0.37;
                        let Ok(p) = LpParams::new(n, es, rs, sf) else {
                            continue;
                        };
                        let ((seeded, sc), (plain, pc)) = both_bounds(&p);
                        let key = p.codec_key();
                        assert_eq!(seeded, plain, "{key}");
                        if n == 8 {
                            assert!(3 * sc <= pc, "{key}: {sc} vs {pc} scalar calls");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_index_is_compact() {
        // The sizes the module docs quote: a fitted LP8 index fits in
        // 24 KB with no multi-boundary block, and no index outgrows one
        // entry per finite 2¹⁶-key block of both signs.
        let lp8 = DecodeTable::build(&LpParams::new(8, 2, 3, 0.25).unwrap());
        assert!(
            lp8.index.entries.len() * 4 <= 24_000,
            "{}",
            lp8.index.entries.len()
        );
        assert!(lp8.index.spans.is_empty());
        let widest = DecodeTable::build(&LpParams::new(8, 5, 5, 0.0).unwrap());
        let finite_blocks = 2 * ((f32::MAX.to_bits() >> 16) + 1) as usize;
        assert!(widest.index.entries.len() <= finite_blocks);
    }

    #[test]
    fn batch_round_trips_through_codes() {
        let p = LpParams::new(8, 2, 3, 0.0).unwrap();
        let xs: Vec<f32> = probe_inputs()
            .into_iter()
            .filter(|x| x.is_finite())
            .collect();
        let (codes, table) = quantize_batch(&p, &xs);
        let decoded = dequantize_batch(&codes, &table);
        let mut direct = xs.clone();
        table.quantize_slice(&mut direct);
        for ((x, d), q) in xs.iter().zip(&decoded).zip(&direct) {
            assert_eq!(d.to_bits(), q.to_bits(), "input {x}");
        }
    }

    #[test]
    fn nonfinite_codes_follow_datapath_semantics() {
        let p = LpParams::new(8, 2, 3, 0.0).unwrap();
        let table = cached_table(&p);
        let codes = table.quantize_batch(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0]);
        assert_eq!(codes[0], table.zero_index());
        assert_eq!(usize::from(codes[1]), table.len() - 1);
        assert_eq!(codes[2], 0);
        assert_eq!(codes[3], table.zero_index());
        assert_eq!(table.dequantize_batch(&[codes[3]])[0], 0.0);
    }

    #[test]
    fn cache_returns_same_table() {
        let p = LpParams::new(7, 1, 4, 0.5).unwrap();
        let a = cached_table(&p);
        let b = cached_table(&p);
        assert!(Arc::ptr_eq(&a, &b));
        let other = LpParams::new(7, 1, 4, 0.75).unwrap();
        let c = cached_table(&other);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn value_counts_match_formats() {
        // 8-bit LP: 256 patterns − NaR − (−0 collapses with +0) = 255.
        let p = LpParams::new(8, 2, 3, 0.0).unwrap();
        assert_eq!(DecodeTable::build(&p).len(), 255);
        // INT8: 2·127 + 1.
        let i = IntQuantizer::new(8, 0.1).unwrap();
        assert_eq!(DecodeTable::build(&i).len(), 255);
    }

    #[test]
    fn values_are_strictly_sorted() {
        for q in all_8bit() {
            let t = DecodeTable::build(q.as_ref());
            for w in t.values().windows(2) {
                assert!(w[0] < w[1], "{}: {} !< {}", q.codec_key(), w[0], w[1]);
            }
            for w in t.bounds.windows(2) {
                assert!(w[0] <= w[1], "bounds must be non-decreasing");
            }
        }
    }
}
