//! The four-step genetic-algorithm search of §4 (Fig. 2): candidate
//! initialization, block-wise regeneration (crossover + mutation),
//! diversity-promoting selection, and evaluation / population update.

use crate::activation::{derive_activation_params, SfRule};
use crate::objective::{kurtosis3, Features, FitnessEvaluator, ObjectiveKind};
use crate::params::{Candidate, LayerParams};
use dnn::graph::{LayerObserver, Model, QuantScheme, Snapshot};
use dnn::tensor::Tensor;
use lp::format::LpParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serve::pool::par_map_pooled;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Search hyper-parameters (§6: K = 20, P = 10, C = 4, B = 4 for CNNs and
/// one attention block for transformers, 5 diversity children, λ = 0.4).
#[derive(Debug, Clone)]
pub struct LpqConfig {
    /// Population size `K`.
    pub population: usize,
    /// Number of passes `P` over all blocks.
    pub passes: usize,
    /// Cycles `C` per block per pass.
    pub cycles: usize,
    /// Block size `B` over weighted layers; `0` uses the model's own block
    /// boundaries (attention blocks for transformers).
    pub block_size: usize,
    /// Diversity-promoting children per update (paper: 5).
    pub diversity_children: usize,
    /// Compression-term exponent `λ`.
    pub lambda: f64,
    /// Contrastive temperature `τ`.
    pub tau: f64,
    /// Scale-factor perturbation radius `η`.
    pub sf_radius: f64,
    /// Restrict `n` to `{2, 4, 8}` for LPA weight packing (§5.1).
    pub hw_constrained: bool,
    /// RNG seed (the whole search is deterministic given the seed).
    pub seed: u64,
    /// Fitness objective.
    pub objective: ObjectiveKind,
    /// Number of calibration images used in fitness evaluation.
    pub calib_size: usize,
    /// Population cap (worst candidates are dropped beyond this).
    pub max_population: usize,
}

impl LpqConfig {
    /// The paper's full search configuration.
    pub fn paper() -> Self {
        LpqConfig {
            population: 20,
            passes: 10,
            cycles: 4,
            block_size: 4,
            diversity_children: 5,
            lambda: 0.4,
            tau: 0.5,
            sf_radius: 0.1,
            hw_constrained: true,
            seed: 7,
            objective: ObjectiveKind::GlobalLocalContrastive,
            calib_size: 128,
            max_population: 40,
        }
    }

    /// A reduced configuration for quick runs and CI (same algorithm,
    /// smaller budgets).
    pub fn quick() -> Self {
        LpqConfig {
            population: 8,
            passes: 2,
            cycles: 1,
            block_size: 8,
            diversity_children: 3,
            calib_size: 32,
            max_population: 16,
            ..Self::paper()
        }
    }

    /// Reads `LPQ_PRESET=paper|quick` from the environment, defaulting to
    /// `quick`.
    pub fn from_env() -> Self {
        match std::env::var("LPQ_PRESET").as_deref() {
            Ok("paper") => Self::paper(),
            _ => Self::quick(),
        }
    }
}

/// The outcome of an LPQ search.
#[derive(Debug, Clone)]
pub struct LpqResult {
    /// Best weight-parameter candidate found (the raw genome).
    pub best: Candidate,
    /// The genome resolved into deployable per-layer LP formats
    /// (saturation-aware scale factors).
    pub weight_params: Vec<lp::format::LpParams>,
    /// Derived activation parameters (one per weighted layer).
    pub activation_params: Vec<LayerParams>,
    /// Parameter-weighted average weight bit-width ("MP4.2"-style).
    pub avg_weight_bits: f64,
    /// Average activation bit-width (IR-size weighted).
    pub avg_activation_bits: f64,
    /// Quantized model size in MB.
    pub model_size_mb: f64,
    /// Best fitness after each population update.
    pub fitness_history: Vec<f64>,
    /// Snapshot of the best candidate after each population update (for
    /// convergence plots).
    pub best_history: Vec<Candidate>,
    /// Total candidate evaluations performed.
    pub evaluations: usize,
    /// Where the evaluations spent their time.
    pub profile: EvalProfile,
}

impl LpqResult {
    /// Builds the full weight + activation [`QuantScheme`] for deployment
    /// evaluation.
    pub fn scheme(&self) -> QuantScheme {
        QuantScheme::new(
            self.weight_params
                .iter()
                .map(|p| Some(Arc::new(*p) as Arc<dyn lp::Quantizer + Send + Sync>))
                .collect(),
            self.activation_params
                .iter()
                .map(|p| Some(Arc::new(p.to_lp()) as Arc<dyn lp::Quantizer + Send + Sync>))
                .collect(),
        )
    }

    /// Builds a weight-only scheme (activations in full precision).
    pub fn weight_scheme(&self) -> QuantScheme {
        QuantScheme::new(
            self.weight_params
                .iter()
                .map(|p| Some(Arc::new(*p) as Arc<dyn lp::Quantizer + Send + Sync>))
                .collect(),
            vec![None; self.weight_params.len()],
        )
    }
}

/// Builds a [`QuantScheme`] from weight parameters and optional activation
/// parameters.
pub fn scheme_from(weights: &Candidate, acts: Option<&[LayerParams]>) -> QuantScheme {
    let to_arc = |p: &LayerParams| -> Option<Arc<dyn lp::Quantizer + Send + Sync>> {
        Some(Arc::new(p.to_lp()))
    };
    QuantScheme::new(
        weights.layers.iter().map(to_arc).collect(),
        match acts {
            Some(a) => a.iter().map(to_arc).collect(),
            None => vec![None; weights.len()],
        },
    )
}

/// Calibration images per batched forward: the batch interpreter
/// amortizes each GEMM layer over the chunk, and 32 images make 4 chunks,
/// enough for the pool to keep every core busy.
const CALIB_BATCH: usize = 8;

/// Where an LPQ search's candidate evaluations spent their time, summed
/// over every evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalProfile {
    /// Resolving genomes and quantizing weights, decode-table builds
    /// included.
    pub quantize_ms: f64,
    /// Calibration forward passes, kurtosis pooling inside them included.
    pub forward_ms: f64,
    /// The fitness over the pooled features.
    pub fitness_ms: f64,
    /// Graph nodes × calibration images the evaluations had to compute.
    pub nodes_total: u64,
    /// Of those, the ones resumed from a cached prefix instead.
    pub nodes_resumed: u64,
}

impl EvalProfile {
    /// Share of calibration node work resumed from a snapshot, in `[0, 1]`.
    pub fn resumed_share(&self) -> f64 {
        self.nodes_resumed as f64 / self.nodes_total.max(1) as f64
    }
}

/// One candidate's cached calibration prefix, which later candidates that
/// share its leading genes resume from.
#[derive(Debug, Clone)]
struct Prefix {
    /// The genome the values were computed under.
    genes: Candidate,
    /// Per regeneration block after the first: one snapshot per
    /// calibration chunk at the block's first weighted layer. A child
    /// shares its parent's entries up to the block it regenerated.
    marks: Vec<Arc<Vec<Snapshot>>>,
    /// Pooled features per calibration image.
    features: Vec<Features>,
}

/// The calibration observer: pools each element's weighted-layer outputs
/// into [`kurtosis3`] as the forward produces them, keeps the first
/// `keep_irs` elements' outputs whole, and takes the snapshots asked for.
struct CalibObserver<'a> {
    pool: bool,
    /// `pooled[e]`: element `e`'s kurtosis per observed layer.
    pooled: Vec<Vec<f64>>,
    keep_irs: usize,
    /// `irs[l][e]`: layer `l`'s output for kept element `e`.
    irs: Vec<Vec<Tensor>>,
    /// Weighted layers to snapshot at, ascending.
    snap_at: &'a [usize],
    snaps: Vec<Snapshot>,
}

impl<'a> CalibObserver<'a> {
    fn new(batch: usize, pool: bool, keep_irs: usize, snap_at: &'a [usize]) -> Self {
        CalibObserver {
            pool,
            pooled: vec![Vec::new(); batch],
            keep_irs,
            irs: Vec::new(),
            snap_at,
            snaps: Vec::new(),
        }
    }
}

impl LayerObserver for CalibObserver<'_> {
    fn layer_output(&mut self, _layer: usize, out: &Tensor) {
        if self.pool {
            let elem = out.len() / self.pooled.len();
            for (p, t) in self.pooled.iter_mut().zip(out.data().chunks_exact(elem)) {
                p.push(kurtosis3(t));
            }
        }
        if self.keep_irs > 0 {
            let mut irs = out.unstack();
            irs.truncate(self.keep_irs);
            self.irs.push(irs);
        }
    }

    fn wants_snapshot(&self, layer: usize) -> bool {
        self.snap_at.contains(&layer)
    }

    fn snapshot(&mut self, snap: Snapshot) {
        self.snaps.push(snap);
    }
}

/// The first weighted layer at which two genomes differ (their length if
/// none does). Scale factors compare by bits.
fn first_difference(a: &Candidate, b: &Candidate) -> usize {
    a.layers
        .iter()
        .zip(&b.layers)
        .position(|(x, y)| (x.n, x.es, x.rs, x.sf.to_bits()) != (y.n, y.es, y.rs, y.sf.to_bits()))
        .unwrap_or(a.len())
}

/// The LPQ search engine, bound to a model and calibration data.
///
/// Evaluations pay only for what a candidate changed: the engine keeps the
/// current best candidate's calibration prefix (node snapshots at each
/// block start, plus its pooled features), and a candidate that shares
/// leading genes with it resumes each calibration forward from the latest
/// snapshot at or before its first differing layer. The same ops run on
/// the same values, so every fitness is bit-identical to a full
/// evaluation.
pub struct Lpq<'m> {
    model: &'m Model,
    cfg: LpqConfig,
    /// Calibration images in chunks of [`CALIB_BATCH`].
    calib: Vec<Vec<Tensor>>,
    evaluator: FitnessEvaluator,
    sf_centers: Vec<f64>,
    /// Per-layer `log2(max|w|)` used for saturation-aware sf resolution.
    weight_max_log: Vec<f64>,
    blocks: Vec<Range<usize>>,
    /// First weighted layer of each block after the first: where prefixes
    /// keep snapshots.
    marks: Vec<usize>,
    /// Node count of the graph, for the resumed-work share.
    nodes: u64,
    /// Per-layer concatenated FP activations for activation-sf fitting.
    layer_acts: Vec<Tensor>,
    /// Quantized-weight cache shared by every candidate scheme of this
    /// search: generations only re-quantize layers whose genes changed.
    weight_cache: Arc<dnn::graph::WeightCache>,
    /// The current best candidate's prefix, once the search has one.
    best: Option<Prefix>,
    profile: EvalProfile,
    rng: ChaCha8Rng,
    evaluations: usize,
}

impl<'m> Lpq<'m> {
    /// Prepares a search: builds the calibration set, runs the FP model
    /// once to cache reference features, and fits per-layer scale-factor
    /// centers.
    pub fn new(model: &'m Model, cfg: LpqConfig) -> Self {
        let calib: Vec<Tensor> = dnn::data::calibration_set(model)
            .into_iter()
            .take(cfg.calib_size)
            .collect();
        Self::with_calibration(model, cfg, calib)
    }

    /// Like [`Lpq::new`] with explicit calibration inputs.
    pub fn with_calibration(model: &'m Model, cfg: LpqConfig, calib: Vec<Tensor>) -> Self {
        // Calibration forwards run as batched chunks on the pooled
        // work-stealing executor (candidate evaluation below rides the
        // same pool, so a whole search reuses one set of workers). Only
        // the images activation fitting concatenates keep their IRs whole.
        const FIT_IMAGES: usize = 8;
        let calib: Vec<Vec<Tensor>> = calib.chunks(CALIB_BATCH).map(<[Tensor]>::to_vec).collect();
        let chunks: Vec<usize> = (0..calib.len()).collect();
        let fp_chunks = par_map_pooled(&chunks, |&c| {
            let keep = FIT_IMAGES.saturating_sub(c * CALIB_BATCH);
            let mut obs = CalibObserver::new(calib[c].len(), true, keep, &[]);
            let logits = model.forward_observed(&calib[c], None, &mut obs);
            (obs, logits)
        });
        let fp: Vec<Features> = fp_chunks
            .iter()
            .flat_map(|(obs, logits)| {
                obs.pooled.iter().zip(logits).map(|(p, l)| Features {
                    pooled: p.clone(),
                    logits: l.data().to_vec(),
                })
            })
            .collect();
        let evaluator = FitnessEvaluator::from_features(
            cfg.objective,
            cfg.tau,
            cfg.lambda,
            &fp,
            model.layer_param_counts(),
        );
        // Concatenate up to 8 images' IRs per layer for activation fitting.
        let layers = model.num_quant_layers();
        let mut layer_acts = Vec::with_capacity(layers);
        for l in 0..layers {
            let mut buf = Vec::new();
            for t in fp_chunks
                .iter()
                .filter_map(|(obs, _)| obs.irs.get(l))
                .flatten()
            {
                buf.extend_from_slice(t.data());
            }
            let len = buf.len();
            layer_acts.push(Tensor::from_vec(&[len], buf));
        }
        let sf_centers: Vec<f64> = model
            .layer_weights()
            .iter()
            .map(|w| LpParams::fit_sf(w))
            .collect();
        let weight_max_log: Vec<f64> = model
            .layer_weights()
            .iter()
            .map(|w| {
                w.iter()
                    .filter(|x| x.is_finite() && **x != 0.0)
                    .map(|x| f64::from(x.abs()).log2())
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        let blocks = make_blocks(model, cfg.block_size);
        let marks = blocks.iter().skip(1).map(|b| b.start).collect();
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        Lpq {
            model,
            cfg,
            calib,
            evaluator,
            sf_centers,
            weight_max_log,
            blocks,
            marks,
            nodes: model.nodes().len() as u64,
            layer_acts,
            weight_cache: Arc::default(),
            best: None,
            profile: EvalProfile::default(),
            rng,
            evaluations: 0,
        }
    }

    /// Resolves a genome into concrete per-layer LP formats: the genome's
    /// scale factor is clamped so the layer's largest weight never
    /// saturates under the genome's `⟨n, es, rs⟩` (saturation-aware
    /// deployment of the searched parameters).
    pub fn resolve(&self, cand: &Candidate) -> Vec<LpParams> {
        cand.layers
            .iter()
            .zip(&self.weight_max_log)
            .map(|(l, &max_log)| {
                let base = l.to_lp();
                let sf = if max_log.is_finite() {
                    l.sf.min(base.max_scale() - max_log).clamp(-256.0, 256.0)
                } else {
                    l.sf
                };
                base.with_sf(sf)
            })
            .collect()
    }

    /// Builds the weight-only scheme for a resolved candidate, bound to
    /// the search-wide quantized-weight cache.
    fn resolved_scheme(&self, cand: &Candidate) -> QuantScheme {
        let resolved = self.resolve(cand);
        QuantScheme::new(
            resolved
                .into_iter()
                .map(|p| Some(Arc::new(p) as Arc<dyn lp::Quantizer + Send + Sync>))
                .collect(),
            vec![None; cand.len()],
        )
        .with_shared_cache(Arc::clone(&self.weight_cache))
    }

    /// The block partition in use.
    pub fn blocks(&self) -> &[Range<usize>] {
        &self.blocks
    }

    /// Number of `(layer, format)` weight tensors held by the search-wide
    /// quantized-weight cache (diagnostics).
    pub fn weight_cache_len(&self) -> usize {
        self.weight_cache.len()
    }

    /// Evaluates one candidate's fitness (lower is better).
    pub fn evaluate(&mut self, cand: &Candidate) -> f64 {
        self.evaluate_prefix(cand).0
    }

    /// Evaluates a candidate, resuming from the best candidate's prefix
    /// where their genes agree, and returns the fitness with the
    /// candidate's own prefix.
    fn evaluate_prefix(&mut self, cand: &Candidate) -> (f64, Prefix) {
        self.evaluations += 1;
        let t = Instant::now();
        // Resume from the latest mark at or before the first differing
        // layer; `m` prefix marks are shared.
        let (d, m) = match &self.best {
            Some(best) => {
                let d = first_difference(&best.genes, cand);
                (d, self.marks.partition_point(|&l| l <= d))
            }
            None => (0, 0),
        };
        let images: u64 = self.calib.iter().map(|c| c.len() as u64).sum();
        self.profile.nodes_total += self.nodes * images;
        let mut quantized = t;
        let prefix = match &self.best {
            // The best's own genome: nothing to recompute.
            Some(best) if d == cand.len() => {
                self.profile.nodes_resumed += self.nodes * images;
                best.clone()
            }
            best => {
                let qm = self.model.quantize_weights(&self.resolved_scheme(cand));
                quantized = Instant::now();
                let resume = best.as_ref().filter(|_| m > 0).map(|b| &b.marks[m - 1]);
                let from = resume.map_or(0, |snaps| snaps[0].layer());
                let skipped = resume.map_or(0, |snaps| snaps[0].node() as u64);
                self.profile.nodes_resumed += skipped * images;
                let pool = self.evaluator.needs_irs();
                let snap_at = &self.marks[m..];
                let chunks: Vec<usize> = (0..self.calib.len()).collect();
                let ran = par_map_pooled(&chunks, |&c| {
                    let mut obs = CalibObserver::new(self.calib[c].len(), pool, 0, snap_at);
                    let logits = match resume {
                        Some(snaps) => qm.resume_observed(&snaps[c], None, &mut obs),
                        None => qm.forward_observed(&self.calib[c], None, &mut obs),
                    };
                    (obs, logits)
                });
                let mut features = Vec::with_capacity(images as usize);
                for (obs, logits) in &ran {
                    for (tail, out) in obs.pooled.iter().zip(logits) {
                        let i = features.len();
                        let pooled = match best {
                            Some(b) if pool => [&b.features[i].pooled[..from], tail].concat(),
                            _ => tail.clone(),
                        };
                        features.push(Features {
                            pooled,
                            logits: out.data().to_vec(),
                        });
                    }
                }
                let mut marks: Vec<Arc<Vec<Snapshot>>> =
                    best.as_ref().map_or(&[][..], |b| &b.marks[..m]).to_vec();
                let mut fresh: Vec<Vec<Snapshot>> = vec![Vec::new(); snap_at.len()];
                for (obs, _) in ran {
                    for (slot, snap) in fresh.iter_mut().zip(obs.snaps) {
                        slot.push(snap);
                    }
                }
                marks.extend(fresh.into_iter().map(Arc::new));
                Prefix {
                    genes: cand.clone(),
                    marks,
                    features,
                }
            }
        };
        let forwarded = Instant::now();
        let fitness = self.evaluator.fitness_of(&prefix.features, cand);
        self.profile.quantize_ms += ms_between(t, quantized);
        self.profile.forward_ms += ms_between(quantized, forwarded);
        self.profile.fitness_ms += ms_between(forwarded, Instant::now());
        (fitness, prefix)
    }

    /// Runs the full four-step search and derives activation parameters for
    /// the winner.
    pub fn run(mut self) -> LpqResult {
        let layers = self.model.num_quant_layers();
        // Step 1: candidate initialization. K − 1 random candidates plus an
        // all-8-bit anchor (a known-safe starting point). The best so far
        // keeps its prefix.
        let mut population: Vec<(Candidate, f64)> = Vec::new();
        let anchor = Candidate {
            layers: self
                .sf_centers
                .iter()
                .map(|&c| LayerParams::clamped(8, 2, 3, c, self.cfg.hw_constrained))
                .collect(),
        };
        let mut inits = vec![anchor];
        for _ in 1..self.cfg.population {
            inits.push(Candidate::random(
                &mut self.rng,
                &self.sf_centers,
                self.cfg.sf_radius,
                self.cfg.hw_constrained,
            ));
        }
        let mut best_fit = f64::INFINITY;
        for c in inits {
            let (f, prefix) = self.evaluate_prefix(&c);
            if self.best.is_none() || f < best_fit {
                best_fit = f;
                self.best = Some(prefix);
            }
            population.push((c, f));
        }
        let mut fitness_history = Vec::new();
        let mut best_history = Vec::new();
        // P passes over all blocks, C cycles each.
        let blocks = self.blocks.clone();
        for _pass in 0..self.cfg.passes {
            for block in &blocks {
                for _cycle in 0..self.cfg.cycles {
                    population.sort_by(|a, b| a.1.total_cmp(&b.1));
                    // Step 2: regeneration from the top two candidates.
                    let p1 = population[0].0.clone();
                    let p2 = population[1.min(population.len() - 1)].0.clone();
                    let child = Candidate::regenerate_block(
                        &p1,
                        &p2,
                        block.clone(),
                        &mut self.rng,
                        self.cfg.sf_radius,
                        self.cfg.hw_constrained,
                    );
                    // Step 3: diversity-promoting selection — cross the
                    // child with fresh random parents.
                    let mut diverse = Vec::new();
                    for _ in 0..self.cfg.diversity_children {
                        let rand_parent = Candidate::random(
                            &mut self.rng,
                            &self.sf_centers,
                            self.cfg.sf_radius,
                            self.cfg.hw_constrained,
                        );
                        diverse.push(Candidate::regenerate_block(
                            &child,
                            &rand_parent,
                            block.clone(),
                            &mut self.rng,
                            self.cfg.sf_radius,
                            self.cfg.hw_constrained,
                        ));
                    }
                    // Step 4: evaluation and population update. Prefixes
                    // held: the best's, the child's and the best diversity
                    // child's so far.
                    let (child_fit, child_prefix) = self.evaluate_prefix(&child);
                    population.push((child, child_fit));
                    let mut best_div: Option<(Candidate, f64, Prefix)> = None;
                    for d in diverse {
                        let (f, prefix) = self.evaluate_prefix(&d);
                        if best_div.as_ref().is_none_or(|(_, bf, _)| f < *bf) {
                            best_div = Some((d, f, prefix));
                        }
                    }
                    let mut div_prefix = None;
                    if let Some((d, f, prefix)) = best_div {
                        population.push((d, f));
                        div_prefix = Some(prefix);
                    }
                    population.sort_by(|a, b| a.1.total_cmp(&b.1));
                    population.truncate(self.cfg.max_population);
                    // The new best is the old one, the child or the best
                    // diversity child; keep whichever prefix it owns.
                    let leader = &population[0].0;
                    if let Some(p) = [Some(child_prefix), div_prefix]
                        .into_iter()
                        .flatten()
                        .find(|p| p.genes == *leader)
                    {
                        if self.best.as_ref().is_none_or(|b| b.genes != *leader) {
                            self.best = Some(p);
                        }
                    }
                    fitness_history.push(population[0].1);
                    best_history.push(population[0].0.clone());
                }
            }
        }
        self.best = None;
        population.sort_by(|a, b| a.1.total_cmp(&b.1));
        let best = population
            .into_iter()
            .next()
            .map(|(c, _)| c)
            .expect("population is never empty");
        let weight_params = self.resolve(&best);
        let activation_params = derive_activation_params(&best, &self.layer_acts, SfRule::Fitted);
        let param_counts = self.model.layer_param_counts();
        let ir_sizes: Vec<usize> = self.layer_acts.iter().map(Tensor::len).collect();
        let avg_weight_bits = best.avg_bits(&param_counts);
        let avg_activation_bits =
            crate::activation::avg_activation_bits(&activation_params, Some(&ir_sizes));
        let model_size_mb = best.model_size_mb(&param_counts);
        assert_eq!(best.len(), layers);
        LpqResult {
            best,
            weight_params,
            activation_params,
            avg_weight_bits,
            avg_activation_bits,
            model_size_mb,
            fitness_history,
            best_history,
            evaluations: self.evaluations,
            profile: self.profile,
        }
    }
}

/// Milliseconds from `a` to `b`.
fn ms_between(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e3
}

/// Splits the model's weighted layers into regeneration blocks: fixed-size
/// chunks when `block_size > 0`, else the model's own block boundaries
/// (falling back to chunks of 4 when the model has none).
fn make_blocks(model: &Model, block_size: usize) -> Vec<Range<usize>> {
    let layers = model.num_quant_layers();
    if block_size == 0 && !model.block_ends().is_empty() {
        let mut out = Vec::new();
        let mut start = 0usize;
        for &end in model.block_ends() {
            if end > start {
                out.push(start..end);
                start = end;
            }
        }
        if start < layers {
            out.push(start..layers);
        }
        return out;
    }
    let b = if block_size == 0 { 4 } else { block_size };
    (0..layers)
        .step_by(b)
        .map(|s| s..(s + b).min(layers))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn::models;

    fn tiny_config() -> LpqConfig {
        LpqConfig {
            population: 4,
            passes: 1,
            cycles: 1,
            block_size: 8,
            diversity_children: 2,
            calib_size: 8,
            max_population: 8,
            ..LpqConfig::paper()
        }
    }

    #[test]
    fn presets_are_sane() {
        let p = LpqConfig::paper();
        assert_eq!((p.population, p.passes, p.cycles), (20, 10, 4));
        assert_eq!(p.diversity_children, 5);
        assert!((p.lambda - 0.4).abs() < 1e-12);
        assert_eq!(p.calib_size, 128);
        let q = LpqConfig::quick();
        assert!(q.population < p.population);
    }

    #[test]
    fn block_partition_fixed_size() {
        let m = models::resnet18_like(); // 21 layers
        let blocks = make_blocks(&m, 4);
        assert_eq!(blocks.len(), 6);
        assert_eq!(blocks[0], 0..4);
        assert_eq!(blocks[5], 20..21);
    }

    #[test]
    fn block_partition_model_blocks() {
        let m = models::vit_b_like();
        let blocks = make_blocks(&m, 0);
        // 13 marked blocks + trailing head layer.
        assert_eq!(blocks.len(), 14);
        assert_eq!(blocks[0], 0..1); // patch embed
        assert_eq!(blocks[1], 1..7); // first encoder block
        let last = blocks.last().unwrap().clone();
        assert_eq!(last.end, m.num_quant_layers());
    }

    #[test]
    fn search_runs_and_improves_over_random() {
        let m = models::resnet18_like();
        let cfg = tiny_config();
        let lpq = Lpq::new(&m, cfg);
        let result = lpq.run();
        assert_eq!(result.best.len(), m.num_quant_layers());
        assert!(!result.fitness_history.is_empty());
        assert!(result.evaluations > 4);
        // Fitness history must be non-increasing (we always keep the best).
        for w in result.fitness_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert!(result.avg_weight_bits >= 2.0 && result.avg_weight_bits <= 8.0);
        assert!(result.avg_activation_bits >= 4.0 && result.avg_activation_bits <= 8.0);
        assert!(result.model_size_mb > 0.0);
    }

    #[test]
    fn evaluate_populates_shared_weight_cache() {
        let m = models::resnet18_like();
        let mut lpq = Lpq::new(&m, tiny_config());
        let anchor = Candidate {
            layers: (0..m.num_quant_layers())
                .map(|_| LayerParams::clamped(8, 2, 3, 0.0, true))
                .collect(),
        };
        assert_eq!(lpq.weight_cache_len(), 0);
        let f1 = lpq.evaluate(&anchor);
        let filled = lpq.weight_cache_len();
        assert_eq!(filled, m.num_quant_layers(), "one entry per layer");
        // Re-evaluating the same genome hits the cache (no growth) and is
        // bit-identical.
        let f2 = lpq.evaluate(&anchor);
        assert_eq!(lpq.weight_cache_len(), filled);
        assert_eq!(f1.to_bits(), f2.to_bits());
    }

    #[test]
    fn search_is_deterministic() {
        let m = models::mobilenetv2_like();
        let r1 = Lpq::new(&m, tiny_config()).run();
        let r2 = Lpq::new(&m, tiny_config()).run();
        assert_eq!(r1.best, r2.best);
        assert_eq!(r1.fitness_history, r2.fitness_history);
    }

    #[test]
    fn hw_constrained_candidates_pack() {
        let m = models::mobilenetv2_like();
        let mut cfg = tiny_config();
        cfg.hw_constrained = true;
        let result = Lpq::new(&m, cfg).run();
        for l in &result.best.layers {
            assert!([2, 4, 8].contains(&l.n));
        }
        for a in &result.activation_params {
            assert!([4, 8].contains(&a.n), "activations are 4- or 8-bit");
        }
    }

    #[test]
    fn scheme_lengths_match() {
        let m = models::resnet18_like();
        let result = Lpq::new(&m, tiny_config()).run();
        let s = result.scheme();
        assert_eq!(s.weights.len(), m.num_quant_layers());
        assert_eq!(s.activations.len(), m.num_quant_layers());
        assert!(s.weights.iter().all(Option::is_some));
        assert!(s.activations.iter().all(Option::is_some));
        let ws = result.weight_scheme();
        assert!(ws.activations.iter().all(Option::is_none));
    }
}
