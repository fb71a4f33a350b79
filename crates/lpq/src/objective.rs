//! The LPQ fitness function (§4.1): a global-local contrastive objective
//! over kurtosis-pooled intermediate representations, combined with a
//! compression-ratio term — plus the alternative losses (MSE,
//! KL-divergence, global-only contrastive) the paper compares against in
//! Fig. 5(a).

use crate::params::Candidate;
use dnn::graph::ForwardTrace;
use dnn::tensor::Tensor;

/// Excess kurtosis ("Kurtosis-3" after DeCarlo 1997): `m₄/σ⁴ − 3`.
///
/// The paper pools each intermediate representation with this statistic
/// instead of mean pooling because it better characterizes the
/// *tailedness* of DNN activations. Returns `0.0` for constant or empty
/// input.
///
/// # Examples
///
/// ```
/// use lpq::objective::kurtosis3;
///
/// // A two-point symmetric distribution has kurtosis 1 → excess −2.
/// let k = kurtosis3(&[1.0, -1.0, 1.0, -1.0]);
/// assert!((k + 2.0).abs() < 1e-9);
/// ```
pub fn kurtosis3(xs: &[f32]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().map(|&x| f64::from(x)).sum::<f64>() / n;
    let mut m2 = 0.0;
    let mut m4 = 0.0;
    for &x in xs {
        let d = f64::from(x) - mean;
        let d2 = d * d;
        m2 += d2;
        m4 += d2 * d2;
    }
    m2 /= n;
    m4 /= n;
    if m2 <= 1e-24 {
        return 0.0;
    }
    m4 / (m2 * m2) - 3.0
}

/// Row-wise kurtosis pooling of a trace's intermediate representations:
/// each layer's IR tensor becomes one scalar, yielding a vector with one
/// entry per weighted layer.
pub fn pool_irs(irs: &[Tensor]) -> Vec<f64> {
    irs.iter().map(|t| kurtosis3(t.data())).collect()
}

/// What the objective reads of one calibration image's forward pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Features {
    /// [`kurtosis3`] of each weighted layer's output, in weighted-layer
    /// order (empty when the forward captured no IRs).
    pub pooled: Vec<f64>,
    /// The output logits.
    pub logits: Vec<f32>,
}

impl Features {
    /// Pools a captured trace: bit-identical to pooling the same layer
    /// outputs as a forward observes them.
    pub fn of(trace: &ForwardTrace) -> Self {
        Features {
            pooled: pool_irs(&trace.irs),
            logits: trace.output.data().to_vec(),
        }
    }
}

/// L2-normalizes a vector in place (no-op on zero vectors).
pub fn normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        for x in v {
            *x /= norm;
        }
    }
}

/// The loss functions compared in Fig. 5(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectiveKind {
    /// The paper's global-local contrastive objective over pooled
    /// intermediate representations (Eq. 6).
    GlobalLocalContrastive,
    /// Contrastive objective on the final output only (Evol-Q style).
    GlobalContrastive,
    /// Mean squared error of the final logits.
    Mse,
    /// KL divergence between softmaxed FP and quantized logits.
    KlDivergence,
}

impl ObjectiveKind {
    /// All kinds, in the order Fig. 5(a) plots them.
    pub const ALL: [ObjectiveKind; 4] = [
        ObjectiveKind::GlobalLocalContrastive,
        ObjectiveKind::GlobalContrastive,
        ObjectiveKind::Mse,
        ObjectiveKind::KlDivergence,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            ObjectiveKind::GlobalLocalContrastive => "global-local contrastive",
            ObjectiveKind::GlobalContrastive => "global contrastive",
            ObjectiveKind::Mse => "MSE",
            ObjectiveKind::KlDivergence => "KL-divergence",
        }
    }

    /// Whether this objective needs intermediate representations captured.
    pub fn needs_irs(&self) -> bool {
        matches!(self, ObjectiveKind::GlobalLocalContrastive)
    }
}

/// Precomputed full-precision reference features plus the fitness
/// computation `L_F = L_CO · (L_CR / L_CR,max)^λ`.
///
/// Pooled features are *batch-centered* before normalization: the kurtosis
/// profile of a DNN is dominated by per-layer structure shared across
/// images, so without centering every positive *and* negative pair has
/// cosine similarity ≈ 1 and the contrastive objective loses its dynamic
/// range. Subtracting the calibration-batch mean feature (a standard step
/// in contrastive representation comparison) leaves the image-specific
/// component the objective is meant to compare.
#[derive(Debug, Clone)]
pub struct FitnessEvaluator {
    kind: ObjectiveKind,
    tau: f64,
    lambda: f64,
    /// Centered, unit-normalized pooled IR vector per calibration image.
    fp_pooled: Vec<Vec<f64>>,
    /// Per-layer mean of FP pooled features over the batch (centering
    /// reference for quantized features too).
    pooled_mean: Vec<f64>,
    /// Centered, unit-normalized logits per calibration image.
    fp_logits: Vec<Vec<f64>>,
    /// Batch-mean logit vector.
    logit_mean: Vec<f64>,
    /// Raw logits per image (for MSE / KL).
    fp_raw_logits: Vec<Vec<f32>>,
    param_counts: Vec<usize>,
    total_param_bits_max: f64,
}

/// Mean vector over a batch of equal-length vectors.
fn batch_mean(vs: &[Vec<f64>]) -> Vec<f64> {
    if vs.is_empty() {
        return Vec::new();
    }
    let mut mean = vec![0.0; vs[0].len()];
    for v in vs {
        for (m, x) in mean.iter_mut().zip(v) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= vs.len() as f64;
    }
    mean
}

fn center_and_normalize(v: &mut [f64], mean: &[f64]) {
    for (x, m) in v.iter_mut().zip(mean) {
        *x -= m;
    }
    normalize(v);
}

impl FitnessEvaluator {
    /// Builds an evaluator from the FP model's calibration traces.
    pub fn new(
        kind: ObjectiveKind,
        tau: f64,
        lambda: f64,
        fp_traces: &[ForwardTrace],
        param_counts: Vec<usize>,
    ) -> Self {
        let fp: Vec<Features> = fp_traces.iter().map(Features::of).collect();
        Self::from_features(kind, tau, lambda, &fp, param_counts)
    }

    /// Builds an evaluator from the FP model's pooled calibration
    /// features.
    pub fn from_features(
        kind: ObjectiveKind,
        tau: f64,
        lambda: f64,
        fp: &[Features],
        param_counts: Vec<usize>,
    ) -> Self {
        let raw_pooled: Vec<Vec<f64>> = fp.iter().map(|f| f.pooled.clone()).collect();
        let pooled_mean = batch_mean(&raw_pooled);
        let fp_pooled = raw_pooled
            .into_iter()
            .map(|mut v| {
                center_and_normalize(&mut v, &pooled_mean);
                v
            })
            .collect();
        let raw_logits: Vec<Vec<f64>> = fp
            .iter()
            .map(|f| f.logits.iter().map(|&x| f64::from(x)).collect())
            .collect();
        let logit_mean = batch_mean(&raw_logits);
        let fp_logits = raw_logits
            .into_iter()
            .map(|mut v| {
                center_and_normalize(&mut v, &logit_mean);
                v
            })
            .collect();
        let fp_raw_logits = fp.iter().map(|f| f.logits.clone()).collect();
        let total: usize = param_counts.iter().sum();
        FitnessEvaluator {
            kind,
            tau,
            lambda,
            fp_pooled,
            pooled_mean,
            fp_logits,
            logit_mean,
            fp_raw_logits,
            param_counts,
            total_param_bits_max: (total * 8) as f64,
        }
    }

    /// The objective kind.
    pub fn kind(&self) -> ObjectiveKind {
        self.kind
    }

    /// Whether quantized traces must capture IRs for this evaluator.
    pub fn needs_irs(&self) -> bool {
        self.kind.needs_irs()
    }

    /// The compression term `L_CR / L_CR,max ∈ (0, 1]`: parameter-weighted
    /// bits relative to an all-8-bit model.
    pub fn compression_term(&self, candidate: &Candidate) -> f64 {
        let bits: f64 = candidate
            .layers
            .iter()
            .zip(&self.param_counts)
            .map(|(l, &c)| f64::from(l.n) * c as f64)
            .sum();
        (bits / self.total_param_bits_max).max(1e-9)
    }

    /// The representational-divergence term of the configured objective
    /// over the quantized model's pooled calibration features (lower is
    /// better).
    ///
    /// # Panics
    ///
    /// Panics if the number of feature sets differs from the calibration
    /// size.
    pub fn divergence(&self, q: &[Features]) -> f64 {
        assert_eq!(
            q.len(),
            self.fp_pooled.len(),
            "trace count must match calibration size"
        );
        let centered_logits = || -> Vec<Vec<f64>> {
            q.iter()
                .map(|f| {
                    let mut v: Vec<f64> = f.logits.iter().map(|&x| f64::from(x)).collect();
                    center_and_normalize(&mut v, &self.logit_mean);
                    v
                })
                .collect()
        };
        match self.kind {
            ObjectiveKind::GlobalLocalContrastive => {
                let q_pooled: Vec<Vec<f64>> = q
                    .iter()
                    .map(|f| {
                        let mut v = f.pooled.clone();
                        center_and_normalize(&mut v, &self.pooled_mean);
                        v
                    })
                    .collect();
                // Global part on logits plus local part on pooled IRs.
                contrastive(&q_pooled, &self.fp_pooled, self.tau)
                    + contrastive(&centered_logits(), &self.fp_logits, self.tau)
            }
            ObjectiveKind::GlobalContrastive => {
                contrastive(&centered_logits(), &self.fp_logits, self.tau)
            }
            ObjectiveKind::Mse => {
                let mut acc = 0.0;
                let mut count = 0usize;
                for (f, fp) in q.iter().zip(&self.fp_raw_logits) {
                    for (&a, &b) in f.logits.iter().zip(fp) {
                        let d = f64::from(a) - f64::from(b);
                        acc += d * d;
                        count += 1;
                    }
                }
                acc / count.max(1) as f64
            }
            ObjectiveKind::KlDivergence => {
                let mut acc = 0.0;
                for (f, fp) in q.iter().zip(&self.fp_raw_logits) {
                    acc += kl_div(fp, &f.logits);
                }
                acc / q.len().max(1) as f64
            }
        }
    }

    /// The complete fitness `L_F = L_CO · (L_CR/L_CR,max)^λ` (lower is
    /// better).
    ///
    /// The divergence term is shifted to be strictly positive so the
    /// multiplicative combination preserves ordering.
    pub fn fitness(&self, q_traces: &[ForwardTrace], candidate: &Candidate) -> f64 {
        let q: Vec<Features> = q_traces.iter().map(Features::of).collect();
        self.fitness_of(&q, candidate)
    }

    /// [`FitnessEvaluator::fitness`] over pooled features.
    pub fn fitness_of(&self, q: &[Features], candidate: &Candidate) -> f64 {
        let div = self.divergence(q).max(1e-12);
        div * self.compression_term(candidate).powf(self.lambda)
    }
}

/// The contrastive loss of Eq. 6: for each sample `p`, the positive is the
/// FP feature of the same image and the negatives are the FP features of
/// every other calibration image.
fn contrastive(q: &[Vec<f64>], fp: &[Vec<f64>], tau: f64) -> f64 {
    let n = q.len();
    let mut total = 0.0;
    for p in 0..n {
        let pos = dot(&q[p], &fp[p]) / tau;
        let mut neg_sum = 0.0;
        for (j, fp_j) in fp.iter().enumerate() {
            if j != p {
                neg_sum += (dot(&q[p], fp_j) / tau - pos).exp();
            }
        }
        // log(1 + e^{−pos}·Σ e^{neg}) computed in a shifted form for
        // stability: e^{neg−pos} summed directly.
        total += (1.0 + neg_sum).ln();
    }
    total / n.max(1) as f64
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// KL(softmax(fp) ‖ softmax(q)).
fn kl_div(fp: &[f32], q: &[f32]) -> f64 {
    let p = softmax64(fp);
    let r = softmax64(q);
    p.iter()
        .zip(&r)
        .map(|(&pi, &ri)| {
            if pi > 1e-12 {
                pi * (pi / ri.max(1e-12)).ln()
            } else {
                0.0
            }
        })
        .sum()
}

fn softmax64(xs: &[f32]) -> Vec<f64> {
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f64> = xs.iter().map(|&x| f64::from(x - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LayerParams;
    use dnn::tensor::Tensor;

    fn trace(logits: Vec<f32>, irs: Vec<Vec<f32>>) -> ForwardTrace {
        ForwardTrace {
            output: Tensor::from_vec(&[logits.len()], logits),
            irs: irs
                .into_iter()
                .map(|v| Tensor::from_vec(&[v.len()], v))
                .collect(),
        }
    }

    fn features(traces: &[ForwardTrace]) -> Vec<Features> {
        traces.iter().map(Features::of).collect()
    }

    fn candidate(ns: &[u32]) -> Candidate {
        Candidate {
            layers: ns
                .iter()
                .map(|&n| LayerParams::clamped(i64::from(n), 1, 3, 0.0, false))
                .collect(),
        }
    }

    #[test]
    fn kurtosis_of_gaussianish_is_small() {
        // 12-uniform sums ≈ Gaussian → excess kurtosis ≈ 0.
        let xs: Vec<f32> = (0..4000)
            .map(|i| {
                let mut s = 0.0f64;
                for k in 0..12 {
                    s += (((i * 12 + k) as f64 * 0.61803).fract()) - 0.5;
                }
                s as f32
            })
            .collect();
        let k = kurtosis3(&xs);
        // A light-tailed near-Gaussian sits near 0 — far below the
        // heavy-tailed values the pooling is meant to flag.
        assert!(k.abs() < 1.0, "k={k}");
        assert_eq!(kurtosis3(&[]), 0.0);
        assert_eq!(kurtosis3(&[3.0; 10]), 0.0);
    }

    #[test]
    fn kurtosis_detects_heavy_tails() {
        let mut xs = vec![0.1f32; 1000];
        xs.extend([10.0f32; 5]); // rare outliers → leptokurtic
        assert!(kurtosis3(&xs) > 10.0);
    }

    #[test]
    fn normalize_makes_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((v[0] - 0.6).abs() < 1e-12);
        assert!((v[1] - 0.8).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn identical_traces_minimize_contrastive() {
        // Distinct per-image features; matching q/fp should score lower
        // than mismatched.
        let fp = vec![
            trace(vec![1.0, 0.0, 0.0], vec![vec![1.0, 5.0, -2.0, 0.1]]),
            trace(vec![0.0, 1.0, 0.0], vec![vec![-3.0, 0.2, 0.2, 0.2]]),
            trace(vec![0.0, 0.0, 1.0], vec![vec![0.5, 0.5, 8.0, -8.0]]),
        ];
        let eval = FitnessEvaluator::new(
            ObjectiveKind::GlobalLocalContrastive,
            0.1,
            0.4,
            &fp,
            vec![10],
        );
        let matched = eval.divergence(&features(&fp));
        // Shuffled: q features point at the wrong positives.
        let shuffled = vec![fp[1].clone(), fp[2].clone(), fp[0].clone()];
        let mismatched = eval.divergence(&features(&shuffled));
        assert!(matched < mismatched, "{matched} vs {mismatched}");
    }

    #[test]
    fn mse_and_kl_zero_on_identical() {
        let fp = vec![
            trace(vec![1.0, 2.0], vec![]),
            trace(vec![-1.0, 0.5], vec![]),
        ];
        for kind in [ObjectiveKind::Mse, ObjectiveKind::KlDivergence] {
            let eval = FitnessEvaluator::new(kind, 0.1, 0.4, &fp, vec![1]);
            assert!(eval.divergence(&features(&fp)).abs() < 1e-12, "{kind:?}");
            assert!(!eval.needs_irs());
        }
    }

    #[test]
    fn mse_grows_with_perturbation() {
        let fp = vec![trace(vec![1.0, 2.0, 3.0], vec![])];
        let eval = FitnessEvaluator::new(ObjectiveKind::Mse, 0.1, 0.4, &fp, vec![1]);
        let small = vec![trace(vec![1.1, 2.0, 3.0], vec![])];
        let large = vec![trace(vec![2.0, 0.0, 5.0], vec![])];
        assert!(eval.divergence(&features(&small)) < eval.divergence(&features(&large)));
    }

    #[test]
    fn compression_term_prefers_fewer_bits() {
        let fp = vec![trace(vec![1.0], vec![])];
        let eval = FitnessEvaluator::new(ObjectiveKind::Mse, 0.1, 0.4, &fp, vec![100, 100]);
        let low = eval.compression_term(&candidate(&[2, 2]));
        let high = eval.compression_term(&candidate(&[8, 8]));
        assert!(low < high);
        assert!((high - 1.0).abs() < 1e-12); // all-8-bit = max
        assert!((low - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fitness_balances_divergence_and_compression() {
        let fp = vec![trace(vec![1.0, -1.0], vec![])];
        let eval = FitnessEvaluator::new(ObjectiveKind::Mse, 0.1, 0.4, &fp, vec![100]);
        // Same divergence, fewer bits → better fitness.
        let q = vec![trace(vec![1.05, -1.0], vec![])];
        let f_small = eval.fitness(&q, &candidate(&[2]));
        let f_large = eval.fitness(&q, &candidate(&[8]));
        assert!(f_small < f_large);
    }

    #[test]
    fn objective_kind_metadata() {
        assert_eq!(ObjectiveKind::ALL.len(), 4);
        assert!(ObjectiveKind::GlobalLocalContrastive.needs_irs());
        assert!(!ObjectiveKind::GlobalContrastive.needs_irs());
        assert_eq!(ObjectiveKind::Mse.name(), "MSE");
    }
}
