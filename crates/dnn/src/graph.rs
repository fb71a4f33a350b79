//! A small DAG-based model IR with the operators the paper's model families
//! need: convolutions (plain and depthwise), linear layers, patch embedding,
//! multi-head attention, normalization and pooling.
//!
//! Forward passes can run in full precision or *fake-quantized* (the PTQ
//! evaluation mode): weighted layers carry per-layer weight quantizers and
//! the outputs of weighted layers are optionally re-quantized as
//! activations, exactly as LPA would store them between tiles. Forward
//! passes can also capture every weighted layer's output tensor — the
//! *intermediate representations* that LPQ's contrastive fitness compares
//! against the full-precision model.

use crate::tensor::{softmax_rows, QTensor, Tensor};
use lp::codec::BoundedCache;
use lp::Quantizer;
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// How a weighted layer's parameters are resident in memory.
///
/// `Dense` is the full-precision (or fake-quantized) `f32` tensor;
/// `Packed` stores the layer as `u16` codes plus the shared decode table
/// ([`QTensor`]) — half the bytes, `Arc`-shared across clones, decoded
/// inside the GEMM kernel rather than materialized. Packed storage is
/// produced by [`Model::quantize_weights_packed`] and is what the serving
/// path runs on.
#[derive(Clone, Debug)]
pub enum WeightStorage {
    /// Dense row-major `f32` weights.
    Dense(Tensor),
    /// Quantized `u16` codes + shared decode table.
    Packed(QTensor),
}

impl From<Tensor> for WeightStorage {
    fn from(t: Tensor) -> Self {
        WeightStorage::Dense(t)
    }
}

impl From<QTensor> for WeightStorage {
    fn from(q: QTensor) -> Self {
        WeightStorage::Packed(q)
    }
}

impl WeightStorage {
    /// The stored tensor's shape.
    pub fn shape(&self) -> &[usize] {
        match self {
            WeightStorage::Dense(t) => t.shape(),
            WeightStorage::Packed(q) => q.shape(),
        }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        match self {
            WeightStorage::Dense(t) => t.len(),
            WeightStorage::Packed(q) => q.len(),
        }
    }

    /// Whether the storage has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the weights are stored as packed codes.
    pub fn is_packed(&self) -> bool {
        matches!(self, WeightStorage::Packed(_))
    }

    /// The dense tensor, if stored densely.
    pub fn as_dense(&self) -> Option<&Tensor> {
        match self {
            WeightStorage::Dense(t) => Some(t),
            WeightStorage::Packed(_) => None,
        }
    }

    /// The packed tensor, if stored as codes.
    pub fn as_packed(&self) -> Option<&QTensor> {
        match self {
            WeightStorage::Packed(q) => Some(q),
            WeightStorage::Dense(_) => None,
        }
    }

    /// A reshaped view: dense storage copies (as [`Tensor::reshaped`]),
    /// packed storage shares the code buffer.
    pub fn reshaped(&self, shape: &[usize]) -> WeightStorage {
        match self {
            WeightStorage::Dense(t) => WeightStorage::Dense(t.reshaped(shape)),
            WeightStorage::Packed(q) => WeightStorage::Packed(q.reshaped(shape)),
        }
    }

    /// Resident bytes held by this storage: 4 per element dense, 2 per
    /// element packed. Packed clones share their bytes — dedupe with
    /// [`QTensor::codes_ptr`] when aggregating across models.
    pub fn resident_bytes(&self) -> usize {
        match self {
            WeightStorage::Dense(t) => t.len() * std::mem::size_of::<f32>(),
            WeightStorage::Packed(q) => q.resident_bytes(),
        }
    }
}

/// `x[M,K] × w[N,K]ᵀ` dispatching on the weight storage: dense weights run
/// the blocked kernel directly, packed weights decode codes panel-wise
/// inside it. Both paths are bit-identical for equal weight values.
fn matmul_t_storage(x: &Tensor, w: &WeightStorage) -> Tensor {
    // Weights of any rank are read in place as `[shape[0], rest]`, so a
    // conv filter bank needs no reshaped copy.
    match w {
        WeightStorage::Dense(t) => x.matmul_t(t),
        WeightStorage::Packed(q) => x.matmul_t_packed(q),
    }
}

/// A graph operator. Weighted variants ([`Op::Conv2d`], [`Op::DwConv2d`],
/// [`Op::Linear`], [`Op::PatchEmbed`]) are the paper's "layers": they are
/// the unit of per-layer quantization and of intermediate-representation
/// capture.
///
/// Shapes below are those of one batch element. The interpreter holds
/// each node's value for a whole batch as one tensor with a leading batch
/// axis, `[B, …]`, and evaluates every op once over it.
#[derive(Clone, Debug)]
pub enum Op {
    /// Graph input placeholder.
    Input,
    /// 2-D convolution; weight `[out, in, k, k]` over input `[in, H, W]`.
    Conv2d {
        /// Filter bank `[out, in, k, k]`.
        weight: WeightStorage,
        /// Per-output-channel bias (batch-norm folded).
        bias: Vec<f32>,
        /// Spatial stride.
        stride: usize,
        /// Zero padding on each border.
        pad: usize,
    },
    /// Depthwise 2-D convolution; weight `[c, k, k]` over input `[c, H, W]`.
    DwConv2d {
        /// Per-channel filters `[c, k, k]`.
        weight: WeightStorage,
        /// Per-channel bias.
        bias: Vec<f32>,
        /// Spatial stride.
        stride: usize,
        /// Zero padding on each border.
        pad: usize,
    },
    /// Fully connected layer; weight `[out, in]` over input `[in]` or
    /// `[T, in]`.
    Linear {
        /// Weight matrix `[out, in]`.
        weight: WeightStorage,
        /// Bias of length `out`.
        bias: Vec<f32>,
    },
    /// ViT patch embedding: splits `[C, H, W]` into `p×p` patches, projects
    /// each to `dim`, prepends a class token and adds positional embeddings,
    /// producing `[T+1, dim]`.
    PatchEmbed {
        /// Projection `[dim, C·p·p]`.
        weight: WeightStorage,
        /// Bias of length `dim`.
        bias: Vec<f32>,
        /// Patch side length.
        patch: usize,
        /// Learned class token of length `dim`.
        cls: Vec<f32>,
        /// Positional embedding `[T+1, dim]`.
        pos: Tensor,
    },
    /// ReLU activation.
    Relu,
    /// GELU activation (tanh approximation).
    Gelu,
    /// Element-wise addition of two inputs (residual connections).
    Add,
    /// Layer normalization over the last axis.
    LayerNorm {
        /// Scale, one per feature.
        gamma: Vec<f32>,
        /// Shift, one per feature.
        beta: Vec<f32>,
    },
    /// Multi-head self-attention core: takes projected `q, k, v` (each
    /// `[T, D]`), returns `[T, D]`.
    Mha {
        /// Number of attention heads; must divide `D`.
        heads: usize,
    },
    /// Swin-style patch merging: tokens laid out on a `g×g` grid (`[g², D]`)
    /// are grouped 2×2 and each concatenated group is projected, producing
    /// `[(g/2)², out]`. Weighted (counts as a quantizable layer).
    TokenMerge {
        /// Projection `[out, 4·D]`.
        weight: WeightStorage,
        /// Bias of length `out`.
        bias: Vec<f32>,
        /// Input grid side `g` (token count must be `g²`).
        grid: usize,
    },
    /// Global average pooling `[C, H, W] → [C]`.
    GlobalAvgPool,
    /// Mean over tokens `[T, D] → [D]` (transformer head pooling).
    MeanTokens,
}

impl Op {
    /// Whether this op carries quantizable weights.
    pub fn is_weighted(&self) -> bool {
        matches!(
            self,
            Op::Conv2d { .. }
                | Op::DwConv2d { .. }
                | Op::Linear { .. }
                | Op::PatchEmbed { .. }
                | Op::TokenMerge { .. }
        )
    }

    /// Immutable access to the weight storage, if any.
    pub fn storage(&self) -> Option<&WeightStorage> {
        match self {
            Op::Conv2d { weight, .. }
            | Op::DwConv2d { weight, .. }
            | Op::Linear { weight, .. }
            | Op::PatchEmbed { weight, .. }
            | Op::TokenMerge { weight, .. } => Some(weight),
            _ => None,
        }
    }

    /// Mutable access to the weight storage, if any.
    pub fn storage_mut(&mut self) -> Option<&mut WeightStorage> {
        match self {
            Op::Conv2d { weight, .. }
            | Op::DwConv2d { weight, .. }
            | Op::Linear { weight, .. }
            | Op::PatchEmbed { weight, .. }
            | Op::TokenMerge { weight, .. } => Some(weight),
            _ => None,
        }
    }

    /// Immutable access to the **dense** weight tensor, if any. `None` for
    /// unweighted ops *and* for packed layers — callers that must handle
    /// both storages use [`Op::storage`].
    pub fn weight(&self) -> Option<&Tensor> {
        self.storage().and_then(WeightStorage::as_dense)
    }

    /// Short kind name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Input => "input",
            Op::Conv2d { .. } => "conv2d",
            Op::DwConv2d { .. } => "dwconv2d",
            Op::Linear { .. } => "linear",
            Op::PatchEmbed { .. } => "patch_embed",
            Op::TokenMerge { .. } => "token_merge",
            Op::Relu => "relu",
            Op::Gelu => "gelu",
            Op::Add => "add",
            Op::LayerNorm { .. } => "layer_norm",
            Op::Mha { .. } => "mha",
            Op::GlobalAvgPool => "global_avg_pool",
            Op::MeanTokens => "mean_tokens",
        }
    }
}

/// A node: an operator plus the indices of its producer nodes.
#[derive(Clone, Debug)]
pub struct Node {
    /// The operator.
    pub op: Op,
    /// Indices (into the model's node list) of this node's inputs.
    pub inputs: Vec<usize>,
}

/// Cache of quantized weight tensors, keyed by weighted-layer ordinal and
/// the quantizer's [`codec_key`](Quantizer::codec_key).
///
/// The cache is tied to *one* model's original weights: LPQ's genetic
/// search evaluates hundreds of candidates against the same model, and
/// block-wise regeneration copies most genes from the best parent — so
/// most layers of a new candidate carry a format that was already
/// quantized in an earlier generation. Sharing one `WeightCache` across
/// those candidates (see [`QuantScheme::with_shared_cache`]) turns each
/// re-quantization into a `memcpy`.
#[derive(Debug)]
pub struct WeightCache {
    map: BoundedCache<(usize, String), Vec<f32>>,
    /// Packed-code side: one [`QTensor`] per `(layer, format)`. Hits clone
    /// the `QTensor`, which *shares* the `Arc`'d code buffer — so every
    /// scenario of a model that agrees on a layer's codec key holds the
    /// same resident codes, not a copy.
    packed: BoundedCache<(usize, String), QTensor>,
}

/// Entries kept before the cache is flushed wholesale (continuous scale
/// factors can mint unbounded distinct formats over a long search).
const MAX_CACHED_WEIGHTS: usize = 256;

impl Default for WeightCache {
    fn default() -> Self {
        WeightCache {
            map: BoundedCache::new(MAX_CACHED_WEIGHTS),
            packed: BoundedCache::new(MAX_CACHED_WEIGHTS),
        }
    }
}

impl WeightCache {
    /// Quantizes `data` (a layer's original weights) in place with `q`,
    /// copying from the cache when this `(layer, format)` pair was already
    /// quantized.
    fn apply(&self, layer: usize, q: &(dyn Quantizer + Send + Sync), data: &mut [f32]) {
        let key = (layer, q.codec_key());
        if let Some(hit) = self.map.get(&key) {
            if hit.len() == data.len() {
                data.copy_from_slice(&hit);
                return;
            }
        }
        q.quantize_slice(data);
        self.map.insert(key, data.to_vec());
    }

    /// Packs `w` (a layer's original weights) into codes with `q`, sharing
    /// the code buffer with every earlier packing of this `(layer,
    /// format)` pair.
    ///
    /// Same contract as [`WeightCache::apply`]: keys are `(ordinal,
    /// codec_key)`, **not** weight values, so a cache is only valid for
    /// one model's original weights. The shape guard below is defense in
    /// depth against the most detectable misuse, not a license to share a
    /// cache across models.
    fn apply_packed(&self, layer: usize, q: &(dyn Quantizer + Send + Sync), w: &Tensor) -> QTensor {
        let key = (layer, q.codec_key());
        if let Some(hit) = self.packed.get(&key) {
            if hit.shape() == w.shape() {
                return (*hit).clone();
            }
        }
        let fresh = QTensor::quantize(w, q);
        let stored = self.packed.insert(key, fresh.clone());
        // `insert` keeps a pre-existing entry for the key; only adopt it
        // when it actually matches this tensor's shape (a mismatch means
        // another model with differently-shaped layers shares this cache —
        // same guard as the dense path above).
        if stored.shape() == w.shape() {
            (*stored).clone()
        } else {
            fresh
        }
    }

    /// Number of cached layer tensors, dense and packed (diagnostics).
    pub fn len(&self) -> usize {
        self.map.len() + self.packed.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-layer quantizers for a fake-quantized forward pass.
///
/// Indexed by *weighted-layer* ordinal (the order returned by
/// [`Model::quant_layers`]). `None` leaves that layer in full precision.
///
/// Every scheme carries a [`WeightCache`]; clones share it, and
/// [`QuantScheme::with_shared_cache`] lets many schemes (e.g. LPQ's
/// candidate population) pool one cache.
#[derive(Clone, Default)]
pub struct QuantScheme {
    /// Weight quantizer per weighted layer.
    pub weights: Vec<Option<Arc<dyn Quantizer + Send + Sync>>>,
    /// Activation (layer-output) quantizer per weighted layer.
    pub activations: Vec<Option<Arc<dyn Quantizer + Send + Sync>>>,
    /// Quantized-weight cache consulted by [`Model::quantize_weights`].
    cache: Arc<WeightCache>,
}

impl fmt::Debug for QuantScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuantScheme")
            .field("weights", &self.weights.len())
            .field("activations", &self.activations.len())
            .field("cached_layers", &self.cache.len())
            .finish()
    }
}

impl QuantScheme {
    /// An all-`None` (full-precision) scheme for `layers` weighted layers.
    pub fn identity(layers: usize) -> Self {
        QuantScheme {
            weights: vec![None; layers],
            activations: vec![None; layers],
            cache: Arc::default(),
        }
    }

    /// A scheme from per-layer weight and activation quantizers.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors differ in length.
    pub fn new(
        weights: Vec<Option<Arc<dyn Quantizer + Send + Sync>>>,
        activations: Vec<Option<Arc<dyn Quantizer + Send + Sync>>>,
    ) -> Self {
        assert_eq!(
            weights.len(),
            activations.len(),
            "weight/activation scheme length mismatch"
        );
        QuantScheme {
            weights,
            activations,
            cache: Arc::default(),
        }
    }

    /// Rebinds this scheme to a shared quantized-weight cache. The cache
    /// is only valid for the model whose original weights it was first
    /// used with.
    pub fn with_shared_cache(mut self, cache: Arc<WeightCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The scheme's weight cache (shareable via
    /// [`QuantScheme::with_shared_cache`]).
    pub fn weight_cache(&self) -> Arc<WeightCache> {
        Arc::clone(&self.cache)
    }
}

/// The result of a forward pass with capture enabled.
#[derive(Debug, Clone)]
pub struct ForwardTrace {
    /// Final output (logits).
    pub output: Tensor,
    /// Output tensor of each weighted layer, in weighted-layer order.
    pub irs: Vec<Tensor>,
}

/// A DAG model: named, with a fixed input shape and class count.
///
/// # Examples
///
/// ```
/// use dnn::graph::{Model, Op};
/// use dnn::tensor::Tensor;
///
/// let mut m = Model::new("tiny", &[4], 2);
/// let x = m.input_node();
/// let w = Tensor::from_vec(&[2, 4], vec![0.1; 8]);
/// let fc = m.push(Op::Linear { weight: w.into(), bias: vec![0.0; 2] }, &[x]);
/// m.set_output(fc);
/// let out = m.forward(&Tensor::from_vec(&[4], vec![1.0; 4]));
/// assert_eq!(out.shape(), &[2]);
/// ```
#[derive(Clone, Debug)]
pub struct Model {
    name: String,
    input_shape: Vec<usize>,
    num_classes: usize,
    nodes: Vec<Node>,
    output: usize,
    /// Block boundaries over weighted-layer ordinals (for LPQ's block-wise
    /// regeneration); each entry is an exclusive end index.
    block_ends: Vec<usize>,
    /// The paper's FP32 top-1 baseline for the model this one stands in for.
    baseline_top1: f64,
}

impl Model {
    /// Creates an empty model with one input node.
    pub fn new(name: impl Into<String>, input_shape: &[usize], num_classes: usize) -> Self {
        Model {
            name: name.into(),
            input_shape: input_shape.to_vec(),
            num_classes,
            nodes: vec![Node {
                op: Op::Input,
                inputs: vec![],
            }],
            output: 0,
            block_ends: Vec::new(),
            baseline_top1: 0.0,
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Expected input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Index of the input node (always 0).
    pub fn input_node(&self) -> usize {
        0
    }

    /// The nodes, in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Appends a node and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if any input index refers to a node at or after the new one.
    pub fn push(&mut self, op: Op, inputs: &[usize]) -> usize {
        let idx = self.nodes.len();
        for &i in inputs {
            assert!(i < idx, "node input {i} must precede node {idx}");
        }
        self.nodes.push(Node {
            op,
            inputs: inputs.to_vec(),
        });
        idx
    }

    /// Marks `node` as the model output.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn set_output(&mut self, node: usize) {
        assert!(node < self.nodes.len(), "output node out of range");
        self.output = node;
    }

    /// Marks the end of a quantization block at the current weighted-layer
    /// count (used by the model zoo to delimit attention blocks / stages).
    pub fn end_block(&mut self) {
        let n = self.num_quant_layers();
        if self.block_ends.last() != Some(&n) && n > 0 {
            self.block_ends.push(n);
        }
    }

    /// Block boundaries as exclusive end indices over weighted layers.
    /// Empty if the zoo builder marked no blocks.
    pub fn block_ends(&self) -> &[usize] {
        &self.block_ends
    }

    /// Sets the paper's FP32 top-1 baseline this model stands in for.
    pub fn set_baseline_top1(&mut self, acc: f64) {
        self.baseline_top1 = acc;
    }

    /// The paper's FP32 top-1 baseline (0.0 if unset).
    pub fn baseline_top1(&self) -> f64 {
        self.baseline_top1
    }

    /// Node indices of weighted layers, in topological order.
    pub fn quant_layers(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.op.is_weighted())
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of weighted layers.
    pub fn num_quant_layers(&self) -> usize {
        self.nodes.iter().filter(|n| n.op.is_weighted()).count()
    }

    /// Parameter count of each weighted layer, in weighted-layer order.
    pub fn layer_param_counts(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .filter(|n| n.op.is_weighted())
            .map(|n| n.op.storage().map(WeightStorage::len).unwrap_or(0))
            .collect()
    }

    /// Weight storage of each weighted layer, in weighted-layer order.
    pub fn layer_storages(&self) -> Vec<&WeightStorage> {
        self.nodes.iter().filter_map(|n| n.op.storage()).collect()
    }

    /// Bytes of weight storage resident in this model instance: 4 per
    /// dense element, 2 per packed element. Packed layers cloned from a
    /// shared [`WeightCache`] report the same bytes in every sharing
    /// model — aggregate with [`QTensor::codes_ptr`] dedup to count them
    /// once.
    pub fn resident_weight_bytes(&self) -> usize {
        self.layer_storages()
            .iter()
            .map(|s| s.resident_bytes())
            .sum()
    }

    /// Total parameter count over weighted layers.
    pub fn num_params(&self) -> usize {
        self.layer_param_counts().iter().sum()
    }

    /// Immutable view of each weighted layer's flat weights, one entry
    /// per weighted layer in ordinal order.
    ///
    /// # Panics
    ///
    /// Panics if any weighted layer is packed ([`WeightStorage::Packed`])
    /// — the ordinal alignment callers index by cannot be kept with
    /// code-only layers; use [`Model::layer_storages`] on packed models.
    pub fn layer_weights(&self) -> Vec<&[f32]> {
        self.nodes
            .iter()
            .filter(|n| n.op.is_weighted())
            .map(|n| {
                n.op.weight()
                    .expect(
                        "layer_weights requires dense storage; packed models \
                         expose layers via layer_storages",
                    )
                    .data()
            })
            .collect()
    }

    /// Returns a copy of this model with each weighted layer's weights run
    /// through the scheme's weight quantizer (activations untouched —
    /// those are applied during [`Model::forward_traced`]).
    ///
    /// Quantization goes through the scheme's [`WeightCache`]: layers
    /// whose `(ordinal, format)` pair was quantized before — by this
    /// scheme or any scheme sharing its cache — are restored with a copy
    /// instead of re-quantized. The quantizers themselves run on the
    /// `lp::codec` decode tables, so even cache misses avoid per-element
    /// transcendentals.
    ///
    /// # Panics
    ///
    /// Panics if the scheme's length does not match the weighted-layer
    /// count, or if the scheme asks to quantize a layer that is already
    /// packed — re-quantization must start from the original dense model
    /// (silently keeping the old codes would misreport the scheme).
    pub fn quantize_weights(&self, scheme: &QuantScheme) -> Model {
        assert_eq!(
            scheme.weights.len(),
            self.num_quant_layers(),
            "scheme length must match weighted-layer count"
        );
        let mut m = self.clone();
        let mut li = 0usize;
        for node in &mut m.nodes {
            if node.op.is_weighted() {
                if let Some(q) = &scheme.weights[li] {
                    match node.op.storage_mut() {
                        Some(WeightStorage::Dense(w)) => {
                            scheme.cache.apply(li, q.as_ref(), w.data_mut());
                        }
                        Some(WeightStorage::Packed(_)) => panic!(
                            "cannot re-quantize packed layer {li}; \
                             quantize from the original dense model"
                        ),
                        None => {}
                    }
                }
                li += 1;
            }
        }
        m
    }

    /// Returns a copy of this model with each quantized layer's weights
    /// stored as **packed codes** ([`WeightStorage::Packed`]) instead of a
    /// fake-quantized `f32` copy: `u16` codes plus the shared decode
    /// table, decoded inside the GEMM kernel at forward time. Layers whose
    /// scheme entry is `None` stay dense full-precision.
    ///
    /// Packing goes through the scheme's [`WeightCache`], so models (e.g.
    /// serving scenarios) that share a cache and agree on a layer's codec
    /// key share one resident code buffer. Forward passes over the packed
    /// model are bit-identical to passes over
    /// [`Model::quantize_weights`]'s dense copy.
    ///
    /// # Panics
    ///
    /// Panics if the scheme's length does not match the weighted-layer
    /// count, or if the scheme asks to quantize a layer that is already
    /// packed (see [`Model::quantize_weights`]).
    pub fn quantize_weights_packed(&self, scheme: &QuantScheme) -> Model {
        assert_eq!(
            scheme.weights.len(),
            self.num_quant_layers(),
            "scheme length must match weighted-layer count"
        );
        let mut m = self.clone();
        let mut li = 0usize;
        for node in &mut m.nodes {
            if node.op.is_weighted() {
                if let Some(q) = &scheme.weights[li] {
                    if let Some(ws) = node.op.storage_mut() {
                        match ws {
                            WeightStorage::Dense(t) => {
                                let packed = scheme.cache.apply_packed(li, q.as_ref(), t);
                                *ws = WeightStorage::Packed(packed);
                            }
                            WeightStorage::Packed(_) => panic!(
                                "cannot re-quantize packed layer {li}; \
                                 quantize from the original dense model"
                            ),
                        }
                    }
                }
                li += 1;
            }
        }
        m
    }

    /// Full-precision forward pass returning only the logits.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match [`Model::input_shape`].
    pub fn forward(&self, input: &Tensor) -> Tensor {
        self.forward_traced(input, None, false).output
    }

    /// Forward pass with optional activation quantization and optional
    /// intermediate-representation capture: a batch of one through
    /// [`Model::forward_observed`].
    ///
    /// `act_scheme`'s `activations` entries are applied to each weighted
    /// layer's output (post-bias, pre-nonlinearity), matching where LPA's
    /// post-processing unit re-quantizes partial sums. Captured IRs are the
    /// quantized outputs when quantization is active.
    ///
    /// # Panics
    ///
    /// Panics on input-shape mismatch or scheme-length mismatch.
    pub fn forward_traced(
        &self,
        input: &Tensor,
        act_scheme: Option<&QuantScheme>,
        capture: bool,
    ) -> ForwardTrace {
        let mut irs = IrCapture {
            on: capture,
            irs: Vec::new(),
        };
        let output = self
            .forward_observed(std::slice::from_ref(input), act_scheme, &mut irs)
            .pop()
            .expect("one output per input");
        ForwardTrace {
            output,
            irs: irs.irs,
        }
    }

    /// True batched forward pass: evaluates the whole micro-batch through
    /// the graph at once, stacking every GEMM-backed weighted layer
    /// (linear, convolution im2col, patch embedding, token merging) into
    /// **one** matrix product per layer, so the batch amortizes weight
    /// traversal — and, for packed weights, per-panel code decoding —
    /// instead of just scheduling.
    ///
    /// Outputs are **bit-identical** to calling [`Model::forward`] on each
    /// input: the shared GEMM kernel computes each output row from its own
    /// left-hand row with an accumulation order independent of how many
    /// rows are stacked.
    ///
    /// # Panics
    ///
    /// Panics if any input's shape does not match
    /// [`Model::input_shape`].
    pub fn forward_batch(&self, inputs: &[Tensor]) -> Vec<Tensor> {
        self.forward_batch_quant(inputs, None)
    }

    /// [`Model::forward_batch`] with per-layer activation quantization:
    /// `act_scheme`'s `activations` entries are applied batch-wise to each
    /// weighted layer's outputs through the same cached codec tables the
    /// single-input path uses (bit-identical to per-input
    /// [`Model::forward_traced`]).
    ///
    /// Activation fake-quant runs **in place** on the `f32` activations
    /// (`quantize_slice`, vectorized in `lp`) — no `u16` code buffers are
    /// allocated anywhere in this loop, deliberately: codes collapse
    /// `-0.0` and NaN (datapath semantics), so a codes round-trip would
    /// break the batch ≡ per-input bit-identity this method guarantees.
    /// The code-emitting hot paths (packed-weight registration, `lpa`'s
    /// tile output encode) use the allocation-free
    /// `DecodeTable::quantize_batch_into` instead.
    ///
    /// # Panics
    ///
    /// Panics on input-shape mismatch or scheme-length mismatch.
    pub fn forward_batch_quant(
        &self,
        inputs: &[Tensor],
        act_scheme: Option<&QuantScheme>,
    ) -> Vec<Tensor> {
        self.forward_observed(inputs, act_scheme, &mut ())
    }

    /// The batch interpreter every forward pass runs on: stacks the
    /// micro-batch into one `[B, …]` tensor and evaluates it node by node
    /// ([`Model::forward_batch_quant`]) while `observer` sees each
    /// weighted layer's output and takes the [`Snapshot`]s it asks for.
    /// The output node's value is split back into one tensor per input.
    ///
    /// # Panics
    ///
    /// Panics on input-shape mismatch or scheme-length mismatch.
    pub fn forward_observed<O: LayerObserver>(
        &self,
        inputs: &[Tensor],
        act_scheme: Option<&QuantScheme>,
        observer: &mut O,
    ) -> Vec<Tensor> {
        if inputs.is_empty() {
            return Vec::new();
        }
        for input in inputs {
            assert_eq!(
                input.shape(),
                &self.input_shape[..],
                "input shape mismatch for model {}",
                self.name
            );
        }
        let mut values = vec![None; self.nodes.len()];
        values[0] = Some(Arc::new(Tensor::stack(inputs)));
        self.run(values, 1, 0, act_scheme, observer).unstack()
    }

    /// Continues a forward pass from `snap`: evaluates only the nodes from
    /// the snapshot's weighted layer on, over the snapshot's batch.
    ///
    /// Outputs and observed layer outputs are bit-identical to those of
    /// a full [`Model::forward_observed`] over the original inputs, as long
    /// as this model's weighted layers before [`Snapshot::layer`] hold the
    /// weights the snapshot was taken under (later layers may differ —
    /// that is the point) and `act_scheme` agrees on them.
    ///
    /// # Panics
    ///
    /// Panics on scheme-length mismatch, or if the snapshot's boundary
    /// does not sit at this model's weighted layer of that ordinal.
    pub fn resume_observed<O: LayerObserver>(
        &self,
        snap: &Snapshot,
        act_scheme: Option<&QuantScheme>,
        observer: &mut O,
    ) -> Vec<Tensor> {
        assert_eq!(
            self.quant_layers().get(snap.layer),
            Some(&snap.node),
            "snapshot boundary does not match model {}",
            self.name
        );
        let mut values = vec![None; self.nodes.len()];
        for (node, value) in &snap.values {
            values[*node] = Some(Arc::clone(value));
        }
        self.run(values, snap.node, snap.layer, act_scheme, observer)
            .unstack()
    }

    /// The one node loop: evaluates nodes `start..` over the seeded
    /// `values` (one `[B, …]` tensor per node), starting at weighted-layer
    /// ordinal `layer`, and returns the output node's `[B, …]` value. Each
    /// node's value is dropped when its last reader runs, so a batch holds
    /// only the live frontier, an element-wise op can take its input's
    /// buffer over, and a snapshot shares the live values rather than
    /// copying them.
    fn run<O: LayerObserver>(
        &self,
        mut values: Vec<Option<Arc<Tensor>>>,
        start: usize,
        mut layer: usize,
        act_scheme: Option<&QuantScheme>,
        observer: &mut O,
    ) -> Tensor {
        if let Some(s) = act_scheme {
            assert_eq!(
                s.activations.len(),
                self.num_quant_layers(),
                "activation scheme length must match weighted-layer count"
            );
        }
        let last_read = self.last_reads();
        for (idx, node) in self.nodes.iter().enumerate().skip(start) {
            let weighted = node.op.is_weighted();
            if weighted && observer.wants_snapshot(layer) {
                observer.snapshot(Snapshot {
                    layer,
                    node: idx,
                    values: values
                        .iter()
                        .enumerate()
                        .filter_map(|(i, v)| Some((i, Arc::clone(v.as_ref()?))))
                        .collect(),
                });
            }
            let args: Vec<Arc<Tensor>> = node
                .inputs
                .iter()
                .map(|&i| Arc::clone(values[i].as_ref().expect("node input evaluated before use")))
                .collect();
            for &i in &node.inputs {
                if last_read[i] == idx {
                    values[i] = None;
                }
            }
            let mut out = eval_op(&node.op, args);
            if weighted {
                if let Some(q) = act_scheme.and_then(|s| s.activations[layer].as_ref()) {
                    q.slice_quantizer().quantize_slice(out.data_mut());
                }
                observer.layer_output(layer, &out);
                layer += 1;
            }
            values[idx] = Some(Arc::new(out));
        }
        let out = values[self.output]
            .take()
            .expect("output node was not evaluated");
        Arc::unwrap_or_clone(out)
    }

    /// For each node, the index of the last node that reads it (its own
    /// index if none does); `usize::MAX` for the output.
    fn last_reads(&self) -> Vec<usize> {
        let mut last: Vec<usize> = (0..self.nodes.len()).collect();
        for (idx, node) in self.nodes.iter().enumerate() {
            for &i in &node.inputs {
                last[i] = idx;
            }
        }
        last[self.output] = usize::MAX;
        last
    }
}

/// A weighted-layer hook of the batch interpreter
/// ([`Model::forward_observed`], [`Model::resume_observed`]).
///
/// `()` is the no-op observer: a zero-size type whose calls compile away,
/// so the serving forwards do exactly the per-node work they would with no
/// hook at all.
pub trait LayerObserver {
    /// Sees weighted layer `layer`'s output (post-bias, after activation
    /// quantization) for the whole batch: one `[B, …]` tensor, whose
    /// [`Tensor::unstack`] gives each element's output.
    fn layer_output(&mut self, _layer: usize, _out: &Tensor) {}

    /// Whether to take a [`Snapshot`] at the boundary just before weighted
    /// layer `layer` runs.
    fn wants_snapshot(&self, _layer: usize) -> bool {
        false
    }

    /// Receives a snapshot [`LayerObserver::wants_snapshot`] asked for.
    fn snapshot(&mut self, _snap: Snapshot) {}
}

impl LayerObserver for () {}

/// What a forward needs to continue from a weighted-layer boundary
/// ([`Model::resume_observed`]): the `[B, …]` value of every node computed
/// before the layer's node that the layer or a later node still reads —
/// residual skips included.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Weighted-layer ordinal the boundary sits before.
    layer: usize,
    /// Node index of that layer.
    node: usize,
    /// `(node, [B, …] value)` of every live node, shared with the forward
    /// that took the snapshot.
    values: Vec<(usize, Arc<Tensor>)>,
}

impl Snapshot {
    /// Weighted-layer ordinal the boundary sits before.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// Node index at which a resumed forward starts: the number of nodes
    /// (input included) it skips.
    pub fn node(&self) -> usize {
        self.node
    }
}

/// [`Model::forward_traced`]'s observer: copies out each weighted layer's
/// output when capture is on.
struct IrCapture {
    on: bool,
    irs: Vec<Tensor>,
}

impl LayerObserver for IrCapture {
    fn layer_output(&mut self, _layer: usize, out: &Tensor) {
        if self.on {
            self.irs.extend(out.unstack());
        }
    }
}

/// Evaluates one operator over a batch: `args` are the node's inputs,
/// each one `[B, …]` tensor, and the result is the node's `[B, …]` value.
/// Every op runs once over the whole batch. The GEMM-backed ones make one
/// matrix product of all the batch's rows, element-wise ops and
/// `layer_norm` run over all `B` elements' data in one pass, and relu and
/// GELU write over their input when this node was its last reader.
fn eval_op(op: &Op, mut args: Vec<Arc<Tensor>>) -> Tensor {
    let x = &*args[0];
    match op {
        Op::Input => unreachable!("input nodes are seeded, not evaluated"),
        Op::Conv2d {
            weight,
            bias,
            stride,
            pad,
        } => conv2d_batch(x, weight, bias, *stride, *pad),
        Op::DwConv2d {
            weight,
            bias,
            stride,
            pad,
        } => dwconv2d(x, weight, bias, *stride, *pad),
        Op::Linear { weight, bias } => linear(x, weight, bias),
        Op::PatchEmbed {
            weight,
            bias,
            patch,
            cls,
            pos,
        } => patch_embed_batch(x, weight, bias, *patch, cls, pos),
        Op::TokenMerge { weight, bias, grid } => token_merge_batch(x, weight, bias, *grid),
        Op::Relu => {
            let mut t = Arc::unwrap_or_clone(args.swap_remove(0));
            for v in t.data_mut() {
                *v = v.max(0.0);
            }
            t
        }
        Op::Gelu => {
            let mut t = Arc::unwrap_or_clone(args.swap_remove(0));
            gelu_in_place(t.data_mut());
            t
        }
        Op::Add => x.add(&args[1]),
        Op::LayerNorm { gamma, beta } => layer_norm(x, gamma, beta),
        Op::Mha { heads } => mha(x, &args[1], &args[2], *heads),
        Op::GlobalAvgPool => global_avg_pool(x),
        Op::MeanTokens => mean_tokens(x),
    }
}

/// GELU, tanh approximation: the reference function that defines every
/// GELU output, memoized or not.
fn gelu_ref(x: f32) -> f32 {
    let c = (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh();
    0.5 * x * (1.0 + c)
}

/// Slot-index width of the GELU memo: 4096 slots of `(u32, f32)`, 32 KB
/// per thread — room for 12 layers × 256 distinct LP8 activations.
const GELU_MEMO_BITS: u32 = 12;
const GELU_MEMO_SLOTS: usize = 1 << GELU_MEMO_BITS;

thread_local! {
    /// Direct-mapped memo of [`gelu_ref`] keyed by exact input bits. Every
    /// slot always holds some key together with that key's reference
    /// output — it starts as `+0.0 ↦ gelu_ref(+0.0)` — so there is no
    /// empty-slot sentinel that could alias a real input, and a hit
    /// returns the reference output for exactly those bits.
    static GELU_MEMO: RefCell<Box<[(u32, f32); GELU_MEMO_SLOTS]>> =
        RefCell::new(Box::new([(0, gelu_ref(0.0)); GELU_MEMO_SLOTS]));
}

/// Memo slot of an input bit pattern: the top bits of a multiplicative
/// (Fibonacci) hash, which spreads the few hundred values of a quantized
/// layer over the table whatever mantissa bits they use.
fn gelu_slot(bits: u32) -> usize {
    (bits.wrapping_mul(0x9E37_79B9) >> (32 - GELU_MEMO_BITS)) as usize
}

/// Applies GELU in place through this thread's memo: bit-identical to
/// mapping [`gelu_ref`], for any input. In the zoo's transformers GELU
/// follows fc1, whose LP8 activation quantizer leaves at most 256
/// distinct values, so almost every element is a hit and skips `tanh`.
fn gelu_in_place(xs: &mut [f32]) {
    GELU_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        for x in xs {
            let bits = x.to_bits();
            let slot = &mut memo[gelu_slot(bits)];
            if slot.0 != bits {
                *slot = (bits, gelu_ref(*x));
            }
            *x = slot.1;
        }
    });
}

/// Adds `bias` to every row of a row-major `[rows, bias.len()]` product.
fn add_bias(rows: &mut [f32], bias: &[f32]) {
    for row in rows.chunks_exact_mut(bias.len()) {
        for (v, b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// One sliding-window sweep over a `[c, h, w]` image: a `kh × kw` kernel
/// at `stride`, with `pad` implicit zeros on every border, visiting
/// `oh × ow` output positions. Convolution, patch embedding and depthwise
/// convolution all run on it.
#[derive(Clone, Copy, Debug)]
struct Window {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
}

impl Window {
    /// The sweep of a `kh × kw` kernel at `stride` over a padded `image`.
    ///
    /// # Panics
    ///
    /// Panics unless `image` is `[c, h, w]`, the kernel sides and the
    /// stride are positive, and the kernel fits the padded image on both
    /// axes: a larger window has no output position.
    fn new(image: &[usize], kh: usize, kw: usize, stride: usize, pad: usize) -> Self {
        assert_eq!(image.len(), 3, "sliding windows need a [c, h, w] image");
        let (c, h, w) = (image[0], image[1], image[2]);
        let out_dim = |dim: usize, k: usize| {
            (dim + 2 * pad)
                .checked_sub(k)
                .filter(|_| k > 0 && stride > 0)
                .map(|span| span / stride + 1)
                .unwrap_or_else(|| {
                    panic!(
                        "a {kh}x{kw} window at stride {stride}, pad {pad} \
                         does not fit a {c}x{h}x{w} image"
                    )
                })
        };
        Window {
            c,
            h,
            w,
            kh,
            kw,
            stride,
            pad,
            oh: out_dim(h, kh),
            ow: out_dim(w, kw),
        }
    }

    /// Output positions per image (`oh·ow`).
    fn positions(&self) -> usize {
        self.oh * self.ow
    }

    /// Length of one im2col row (`c·kh·kw`).
    fn patch_len(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// The output coordinates along an axis of `n` inputs and `m` outputs
    /// whose `k` taps all lie in bounds.
    fn interior(&self, k: usize, n: usize, m: usize) -> Range<usize> {
        let lo = self.pad.div_ceil(self.stride).min(m);
        let hi = (n + self.pad)
            .checked_sub(k)
            .map_or(0, |span| span / self.stride + 1)
            .min(m);
        lo..hi.max(lo)
    }

    /// Copies image `x` into the interior of `padded`, the image with its
    /// padding written out (`[c, h + 2·pad, w + 2·pad]`). The border is
    /// not touched: it keeps the `+0.0`s the buffer was created with.
    fn pad_into(&self, x: &[f32], padded: &mut [f32]) {
        let Window { h, w, pad, .. } = *self;
        let wp = w + 2 * pad;
        for (plane, xc) in padded
            .chunks_exact_mut((h + 2 * pad) * wp)
            .zip(x.chunks_exact(h * w))
        {
            for (row, src) in plane.chunks_exact_mut(wp).skip(pad).zip(xc.chunks_exact(w)) {
                row[pad..pad + w].copy_from_slice(src);
            }
        }
    }

    /// Writes one image's im2col rows `[oh·ow, c·kh·kw]` (each row laid out
    /// `[c][ky][kx]`) into `dst`. `x` is the image with its padding
    /// written out ([`Window::pad_into`]), so every window lies wholly
    /// inside it and every element of `dst` is written. The fill is a pure
    /// copy: every bit of the image, NaN payloads included, reaches the
    /// operand unchanged, and every padded tap is a `+0.0` of the border.
    fn im2col_into(&self, x: &[f32], dst: &mut [f32]) {
        match (self.kh, self.kw) {
            (1, 1) => self.fill_rows::<1, 1>(x, dst),
            (2, 2) => self.fill_rows::<2, 2>(x, dst),
            (3, 3) => self.fill_rows::<3, 3>(x, dst),
            (4, 4) => self.fill_rows::<4, 4>(x, dst),
            _ => self.fill_rows::<0, 0>(x, dst),
        }
    }

    /// [`Window::im2col_into`] for a `KH × KW` kernel (`0 × 0`: any
    /// shape). Each output position's im2col row is written front to
    /// back, one channel's `KH × KW` block at a time: `KH` windows of `KW`
    /// taps, read from consecutive padded input rows. With the sides known
    /// at compile time every window is a copy of constant width, compiled
    /// to plain moves rather than a call.
    // Out of line on purpose: inlined into `im2col_stacked`, the same
    // loop measured 1.3–1.6× slower on 1×1 windows and 2×2 maps.
    #[inline(never)]
    fn fill_rows<const KH: usize, const KW: usize>(&self, x: &[f32], dst: &mut [f32]) {
        let Window {
            c,
            h,
            w,
            stride,
            pad,
            ow,
            ..
        } = *self;
        let (kh, kw) = if KW == 0 {
            (self.kh, self.kw)
        } else {
            (KH, KW)
        };
        let (plen, hp, wp) = (self.patch_len(), h + 2 * pad, w + 2 * pad);
        // Per output row, where each channel's first kernel row starts.
        let mut planes = Vec::with_capacity(c);
        for (oy, rows) in dst.chunks_exact_mut(ow * plen).enumerate() {
            planes.clear();
            planes.extend((0..c).map(|ch| (ch * hp + oy * stride) * wp));
            for (ox, row) in rows.chunks_exact_mut(plen).enumerate() {
                let ix = ox * stride;
                for (block, &at) in row.chunks_exact_mut(kh * kw).zip(&planes) {
                    let src = &x[at + ix..at + ix + (kh - 1) * wp + kw];
                    for (ky, taps) in block.chunks_exact_mut(kw).enumerate() {
                        taps.copy_from_slice(&src[ky * wp..ky * wp + kw]);
                    }
                }
            }
        }
    }
}

/// The batch size of a `[B, c, h, w]` batch of images, and the sweep of a
/// `kh × kw` kernel at `stride` over each padded image ([`Window::new`]).
fn batch_window(x: &Tensor, kh: usize, kw: usize, stride: usize, pad: usize) -> (usize, Window) {
    let (&b, image) = x.shape().split_first().expect("a batch has rank >= 1");
    (b, Window::new(image, kh, kw, stride, pad))
}

/// The im2col rows of a whole batch, filled straight into the stacked GEMM
/// operand `[B·oh·ow, c·kh·kw]`: one buffer per layer, each image's rows
/// written in place. A padded window reads every image through one
/// zero-bordered copy per layer, whose interior each image rewrites.
fn im2col_stacked(x: &Tensor, win: &Window) -> Tensor {
    let block = win.positions() * win.patch_len();
    let images = x.data().chunks_exact(win.c * win.h * win.w);
    let mut cols = vec![0.0f32; images.len() * block];
    let padded_len = win.c * (win.h + 2 * win.pad) * (win.w + 2 * win.pad);
    let mut padded = vec![0.0f32; if win.pad > 0 { padded_len } else { 0 }];
    for (image, dst) in images.zip(cols.chunks_exact_mut(block)) {
        let image = if win.pad > 0 {
            win.pad_into(image, &mut padded);
            &padded
        } else {
            image
        };
        win.im2col_into(image, dst);
    }
    Tensor::from_vec(&[cols.len() / win.patch_len(), win.patch_len()], cols)
}

/// The im2col operand of a `[B, c, h, w]` batch of images under a `kh ×
/// kw` window at `stride`, with `pad` implicit zeros on every border:
/// `[B·oh·ow, c·kh·kw]`, each row laid out `[c][ky][kx]`. It is the left
/// GEMM operand of every convolution and patch embedding, exposed so the
/// fill can be timed and checked against [`im2col_oracle`] on its own.
///
/// # Panics
///
/// Panics unless `x` is `[B, c, h, w]` and the window fits the padded
/// image.
pub fn im2col(x: &Tensor, kh: usize, kw: usize, stride: usize, pad: usize) -> Tensor {
    im2col_stacked(x, &batch_window(x, kh, kw, stride, pad).1)
}

/// im2col-based 2-D convolution over a `[B, c_in, h, w]` batch: every
/// image's patch rows fill one stacked operand for a single GEMM against
/// the (possibly packed) filter bank, read in place as `[c_out,
/// c_in·kh·kw]`. Each image's `[c_out, oh, ow]` block of the `[B, c_out,
/// oh, ow]` output (product + bias) is written once, straight from its
/// block of the stacked product.
fn conv2d_batch(x: &Tensor, w: &WeightStorage, bias: &[f32], stride: usize, pad: usize) -> Tensor {
    let (c_out, c_in, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    assert_eq!(bias.len(), c_out, "conv2d bias length mismatch");
    let (b, win) = batch_window(x, kh, kw, stride, pad);
    assert_eq!(win.c, c_in, "conv2d channel mismatch");
    let prod = matmul_t_storage(&im2col_stacked(x, &win), w);
    let block = win.positions() * c_out;
    let mut out = vec![0.0f32; b * block];
    for (pd, o) in prod
        .data()
        .chunks_exact(block)
        .zip(out.chunks_exact_mut(block))
    {
        transpose_into(pd, c_out, o, win.positions(), |v, co| v + bias[co]);
    }
    Tensor::from_vec(&[b, c_out, win.oh, win.ow], out)
}

/// The number of channels [`dwconv2d`] computes side by side, and the
/// height of [`transpose_into`]'s strips.
const LANES: usize = 8;

/// Writes `f(src[i·src_ld + j], j)` to `dst[j·dst_ld + i]` for every row
/// `i` of `src` and every row `j` of `dst`: a transpose, with `f` given
/// each element and its destination row. Either side may carry padding
/// columns: `src` columns past `dst`'s row count are not read, and `dst`
/// columns past `src`'s row count are not written.
///
/// It runs in strips of [`LANES`] source rows, and each destination row
/// takes `LANES` consecutive elements from each strip, so no write
/// strides through memory an element at a time. With `f` the identity it
/// is a pure copy.
fn transpose_into<T: Copy>(
    src: &[T],
    src_ld: usize,
    dst: &mut [f32],
    dst_ld: usize,
    f: impl Fn(T, usize) -> f32,
) {
    let rows = src.len().checked_div(src_ld).unwrap_or(0);
    let cols = dst.len().checked_div(dst_ld).unwrap_or(0);
    let full = rows - rows % LANES;
    for i0 in (0..full).step_by(LANES) {
        let strip: [&[T]; LANES] = std::array::from_fn(|i| &src[(i0 + i) * src_ld..][..cols]);
        for (j, d) in (0..cols).zip(dst.chunks_exact_mut(dst_ld)) {
            let d: &mut [f32; LANES] = (&mut d[i0..i0 + LANES])
                .try_into()
                .expect("a strip is LANES rows");
            *d = std::array::from_fn(|i| f(strip[i][j], j));
        }
    }
    for i in full..rows {
        let row = src[i * src_ld..][..cols].iter();
        for ((j, &v), d) in row.enumerate().zip(dst.chunks_exact_mut(dst_ld)) {
            d[i] = f(v, j);
        }
    }
}

/// Depthwise convolution over a batch: weight `[c, kh, kw]` (dense or
/// packed) over a `[B, c, h, w]` batch of images, giving `[B, c, oh, ow]`. Every output element is its channel's
/// bias plus `x·w` for each in-bounds tap, added in ascending `(ky, kx)`
/// order. Out-of-bounds taps are skipped, never added as `0·w`: that
/// would turn a `-0.0` sum into `+0.0`, and an infinite or NaN weight into
/// NaN. So every element is bit-identical to [`dwconv2d_oracle`]'s.
///
/// The kernel vectorizes across channels. Once per call it lays the
/// weights out tap-major (`[kh·kw, cp]`, `cp` the channel count rounded
/// up to a multiple of 8; packed codes decode straight into it) and
/// resolves the window into a tap plan: each output position's in-bounds
/// taps, in order. Each image is transposed to `[h·w, cp]`; then every
/// output position computes its channels eight at a time in registers and
/// stores them once, and the `[oh·ow, cp]` result is transposed back to
/// `[c, oh, ow]`. Lanes are channels, never taps, so no sum is
/// reassociated, and both transposes are pure copies. 3×3 positions whose
/// taps all lie in bounds skip the plan and read their taps at fixed
/// offsets. The scratch buffers are allocated once per call and reused
/// for every image.
///
/// # Panics
///
/// Panics unless `x` is `[B, c, h, w]`, the weight is `[c, kh, kw]`, the
/// bias length is `c` and the window fits the padded image.
pub fn dwconv2d(x: &Tensor, w: &WeightStorage, bias: &[f32], stride: usize, pad: usize) -> Tensor {
    let (cw, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2]);
    let (batch, win) = batch_window(x, kh, kw, stride, pad);
    let Window {
        c,
        h,
        w: wd,
        oh,
        ow,
        ..
    } = win;
    assert_eq!(c, cw, "dwconv2d channel mismatch");
    assert_eq!(bias.len(), c, "dwconv2d bias length mismatch");
    let (groups, taps) = (c.div_ceil(LANES), kh * kw);
    let cp = groups * LANES;
    // Tap-major weights and a padded bias; padding lanes compute
    // discarded sums of zeros.
    let mut wt = vec![[0.0f32; LANES]; taps * groups];
    let mut bp = vec![[0.0f32; LANES]; groups];
    bp.as_flattened_mut()[..c].copy_from_slice(bias);
    match w {
        WeightStorage::Dense(t) => {
            transpose_into(t.data(), taps, wt.as_flattened_mut(), cp, |v, _| v);
        }
        WeightStorage::Packed(q) => {
            let values = q.table().values();
            transpose_into(q.codes(), taps, wt.as_flattened_mut(), cp, |code, _| {
                values[usize::from(code)]
            });
        }
    }
    // 3×3 positions whose taps all lie in bounds read them at fixed
    // offsets from their top-left tap; every other position has a plan:
    // `plan[starts[p]..starts[p + 1]]` are its in-bounds taps in `(ky,
    // kx)` order, as the indices into `xt` and `wt` of the tap's first
    // channel group.
    let (rows, cols) = if (kh, kw) == (3, 3) {
        (win.interior(kh, h, oh), win.interior(kw, wd, ow))
    } else {
        (0..0, 0..0)
    };
    let offsets: [usize; 9] = std::array::from_fn(|t| ((t / 3) * wd + t % 3) * groups);
    // Each tap's weights for the 3×3 positions (empty for other kernels).
    let weights: [&[[f32; LANES]]; 9] =
        std::array::from_fn(|t| wt.get(t * groups..(t + 1) * groups).unwrap_or_default());
    let mut plan = Vec::new();
    let mut starts = Vec::with_capacity(oh * ow + 1);
    starts.push(0);
    for oy in 0..oh {
        for ox in 0..ow {
            if !(rows.contains(&oy) && cols.contains(&ox)) {
                for ky in 0..kh {
                    let Some(iy) = (oy * stride + ky).checked_sub(pad).filter(|&y| y < h) else {
                        continue;
                    };
                    for kx in 0..kw {
                        if let Some(ix) = (ox * stride + kx).checked_sub(pad).filter(|&x| x < wd) {
                            plan.push(((iy * wd + ix) * groups, (ky * kw + kx) * groups));
                        }
                    }
                }
            }
            starts.push(plan.len());
        }
    }
    let mut xt = vec![[0.0f32; LANES]; h * wd * groups];
    let mut yt = vec![[0.0f32; LANES]; oh * ow * groups];
    let mut out = vec![0.0f32; batch * c * oh * ow];
    let images = x.data().chunks_exact(c * h * wd);
    for (image, dst) in images.zip(out.chunks_exact_mut(c * oh * ow)) {
        transpose_into(image, h * wd, xt.as_flattened_mut(), cp, |v, _| v);
        let mut ys = yt.chunks_exact_mut(groups);
        for oy in 0..oh {
            for ox in 0..ow {
                let y = ys.next().expect("one output per position");
                if rows.contains(&oy) && cols.contains(&ox) {
                    let at = ((oy * stride - pad) * wd + ox * stride - pad) * groups;
                    dw_interior_3x3(&xt[at..], &offsets, &weights, &bp, y);
                } else {
                    let p = oy * ow + ox;
                    let plan = &plan[starts[p]..starts[p + 1]];
                    for (g, (y, &b)) in y.iter_mut().zip(&bp).enumerate() {
                        let mut acc = b;
                        for &(ix, iw) in plan {
                            add_tap(&mut acc, &xt[ix + g], &wt[iw + g]);
                        }
                        *y = acc;
                    }
                }
            }
        }
        transpose_into(yt.as_flattened(), cp, dst, oh * ow, |v, _| v);
    }
    Tensor::from_vec(&[batch, c, oh, ow], out)
}

/// One 3×3 output position of [`dwconv2d`] whose taps all lie in bounds:
/// `x` starts at its top-left tap, and tap `t` reads `x` at `offsets[t]`
/// with weights `ws[t]`. Each group of [`LANES`] channels sums its bias
/// and nine taps in registers and is stored once into `y`.
fn dw_interior_3x3(
    x: &[[f32; LANES]],
    offsets: &[usize; 9],
    ws: &[&[[f32; LANES]]; 9],
    bias: &[[f32; LANES]],
    y: &mut [[f32; LANES]],
) {
    // Every slice is cut to `groups` up front, so the compiler can drop
    // the bounds checks inside the loop.
    let groups = y.len();
    let xs: [&[[f32; LANES]]; 9] = std::array::from_fn(|t| &x[offsets[t]..][..groups]);
    let ws: [&[[f32; LANES]]; 9] = std::array::from_fn(|t| &ws[t][..groups]);
    let bias = &bias[..groups];
    for g in 0..groups {
        let mut acc = bias[g];
        for (x, w) in xs.iter().zip(&ws) {
            add_tap(&mut acc, &x[g], &w[g]);
        }
        y[g] = acc;
    }
}

/// `acc += x·w`, lane by lane: one tap of [`dwconv2d`] on [`LANES`]
/// channels.
#[inline(always)]
fn add_tap(acc: &mut [f32; LANES], x: &[f32; LANES], w: &[f32; LANES]) {
    for ((a, &x), &w) in acc.iter_mut().zip(x).zip(w) {
        *a += x * w;
    }
}

/// The per-element im2col: one image's patch matrix `[oh·ow, c·kh·kw]`,
/// written one tap at a time. It is the bit-identity oracle that the
/// tests and the `gemm` bench check [`im2col`] against.
///
/// # Panics
///
/// Panics if the window does not fit the padded image.
pub fn im2col_oracle(x: &Tensor, kh: usize, kw: usize, stride: usize, pad: usize) -> Vec<f32> {
    let (c_in, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let Window { oh, ow, .. } = Window::new(x.shape(), kh, kw, stride, pad);
    let patch_len = c_in * kh * kw;
    let mut patches = vec![0.0f32; oh * ow * patch_len];
    let xd = x.data();
    for oy in 0..oh {
        for ox in 0..ow {
            let row = (oy * ow + ox) * patch_len;
            for c in 0..c_in {
                for ky in 0..kh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..kw {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix >= wd as isize {
                            continue;
                        }
                        patches[row + c * kh * kw + ky * kw + kx] =
                            xd[c * h * wd + iy as usize * wd + ix as usize];
                    }
                }
            }
        }
    }
    patches
}

/// The per-element depthwise convolution of one image: each output its
/// channel's bias plus `x·w` for each in-bounds tap in ascending `(ky,
/// kx)` order. It is the bit-identity oracle that the tests and the `gemm`
/// bench check [`dwconv2d`] against.
///
/// # Panics
///
/// Panics if the window does not fit the padded image.
pub fn dwconv2d_oracle(x: &Tensor, w: &Tensor, bias: &[f32], stride: usize, pad: usize) -> Tensor {
    let (c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (kh, kw) = (w.shape()[1], w.shape()[2]);
    let Window { oh, ow, .. } = Window::new(x.shape(), kh, kw, stride, pad);
    let mut out = vec![0.0f32; c * oh * ow];
    let xd = x.data();
    let wdta = w.data();
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bias[ch];
                for ky in 0..kh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..kw {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix >= wd as isize {
                            continue;
                        }
                        acc += xd[ch * h * wd + iy as usize * wd + ix as usize]
                            * wdta[ch * kh * kw + ky * kw + kx];
                    }
                }
                out[ch * oh * ow + oy * ow + ox] = acc;
            }
        }
    }
    Tensor::from_vec(&[c, oh, ow], out)
}

/// Linear layer over a `[B, in]` or `[B, T, in]` batch: the batch's rows,
/// read in place, are one GEMM's left operand, and the output keeps the
/// input's shape with `out` features in place of `in`.
fn linear(x: &Tensor, w: &WeightStorage, bias: &[f32]) -> Tensor {
    let (out_f, in_f) = (w.shape()[0], w.shape()[1]);
    assert_eq!(bias.len(), out_f, "linear bias length mismatch");
    assert_eq!(
        x.shape().last(),
        Some(&in_f),
        "linear input feature mismatch"
    );
    let mut out = matmul_t_storage(x, w).into_data();
    add_bias(&mut out, bias);
    let mut shape = x.shape().to_vec();
    *shape.last_mut().expect("rank >= 1") = out_f;
    Tensor::from_vec(&shape, out)
}

/// ViT patch embedding over a `[B, C, H, W]` batch: all images' patch
/// matrices share one stacked projection GEMM, giving `[B, T(+1), dim]`.
fn patch_embed_batch(
    x: &Tensor,
    w: &WeightStorage,
    bias: &[f32],
    patch: usize,
    cls: &[f32],
    pos: &Tensor,
) -> Tensor {
    let (dim, plen) = (w.shape()[0], w.shape()[1]);
    // The flattened patches `[tokens, c·p·p]` are the im2col rows of a
    // `patch × patch` window at stride `patch`, unpadded.
    let (batch, win) = batch_window(x, patch, patch, patch, 0);
    assert!(
        win.h % patch == 0 && win.w % patch == 0,
        "image dims must be divisible by patch size"
    );
    assert_eq!(plen, win.patch_len(), "patch embed weight shape mismatch");
    let tokens = win.positions();
    let prod = matmul_t_storage(&im2col_stacked(x, &win), w);
    // Prepend the cls token (when present: an empty `cls` means a
    // hierarchical model without one), add bias and positional embedding.
    let with_cls = !cls.is_empty();
    if with_cls {
        assert_eq!(cls.len(), dim, "cls token length mismatch");
    }
    let total = tokens + usize::from(with_cls);
    assert_eq!(pos.shape(), &[total, dim], "positional embedding shape");
    let mut out = vec![0.0f32; batch * total * dim];
    for (proj, out) in prod
        .data()
        .chunks_exact(tokens * dim)
        .zip(out.chunks_exact_mut(total * dim))
    {
        let (head, body) = out.split_at_mut(total * dim - tokens * dim);
        head.copy_from_slice(cls);
        for (o, row) in body.chunks_exact_mut(dim).zip(proj.chunks_exact(dim)) {
            for ((o, p), b) in o.iter_mut().zip(row).zip(bias) {
                *o = p + b;
            }
        }
        for (o, p) in out.iter_mut().zip(pos.data()) {
            *o += p;
        }
    }
    Tensor::from_vec(&[batch, total, dim], out)
}

/// Layer normalization over the last axis: every row of every batch
/// element in one pass.
fn layer_norm(x: &Tensor, gamma: &[f32], beta: &[f32]) -> Tensor {
    let d = *x.shape().last().expect("layer_norm needs rank >= 1");
    assert_eq!(gamma.len(), d, "layer_norm gamma length mismatch");
    assert_eq!(beta.len(), d, "layer_norm beta length mismatch");
    let mut out = x.clone();
    for row in out.data_mut().chunks_mut(d) {
        let mean: f32 = row.iter().sum::<f32>() / d as f32;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let inv = 1.0 / (var + 1e-5).sqrt();
        for (i, v) in row.iter_mut().enumerate() {
            *v = (*v - mean) * inv * gamma[i] + beta[i];
        }
    }
    out
}

/// Multi-head attention over pre-projected q, k, v (each `[T, D]` per
/// element, any leading batch axes), on the shared GEMM kernel: per
/// element and head, the scores are `Q_h · K_hᵀ` and the output is
/// `softmax(scores) · V_h`. Both products accumulate each element in
/// ascending `k` from `0.0` — the order of the scalar triple loop this
/// replaced (kept as the test oracle) — so the result is bit-identical to it.
fn mha(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> Tensor {
    let rank = q.shape().len();
    assert!(rank >= 2, "mha needs [.., T, D] input");
    let (t, d) = (q.shape()[rank - 2], q.shape()[rank - 1]);
    assert_eq!(k.shape(), q.shape(), "mha k shape mismatch");
    assert_eq!(v.shape(), q.shape(), "mha v shape mismatch");
    assert!(d % heads == 0, "head count must divide model dim");
    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    // One head's columns of one element's `[T, D]`, gathered into a
    // contiguous `[T, dh]`.
    let head = |x: &[f32], off: usize| -> Tensor {
        let mut hd = Vec::with_capacity(t * dh);
        for row in x.chunks_exact(d) {
            hd.extend_from_slice(&row[off..off + dh]);
        }
        Tensor::from_vec(&[t, dh], hd)
    };
    let mut out = vec![0.0f32; q.len()];
    let elems = q
        .data()
        .chunks_exact(t * d)
        .zip(k.data().chunks_exact(t * d));
    for (((q, k), v), out) in elems
        .zip(v.data().chunks_exact(t * d))
        .zip(out.chunks_exact_mut(t * d))
    {
        for h in 0..heads {
            let off = h * dh;
            let mut scores = head(q, off).matmul_t(&head(k, off));
            for s in scores.data_mut() {
                *s *= scale;
            }
            softmax_rows(&mut scores);
            let oh = scores.matmul(&head(v, off));
            for (row, o) in out.chunks_exact_mut(d).zip(oh.data().chunks_exact(dh)) {
                row[off..off + dh].copy_from_slice(o);
            }
        }
    }
    Tensor::from_vec(q.shape(), out)
}

/// The scalar triple-loop attention [`mha`] replaced: the bit-identity
/// oracle for the kernel-routed version.
#[cfg(test)]
fn mha_oracle(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> Tensor {
    let (t, d) = (q.shape()[0], q.shape()[1]);
    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut out = vec![0.0f32; t * d];
    for h in 0..heads {
        let off = h * dh;
        // scores[i][j] = q_i · k_j · scale
        let mut scores = Tensor::zeros(&[t, t]);
        for i in 0..t {
            for j in 0..t {
                let mut acc = 0.0f32;
                for x in 0..dh {
                    acc += q.data()[i * d + off + x] * k.data()[j * d + off + x];
                }
                scores.data_mut()[i * t + j] = acc * scale;
            }
        }
        softmax_rows(&mut scores);
        for i in 0..t {
            for x in 0..dh {
                let mut acc = 0.0f32;
                for j in 0..t {
                    acc += scores.data()[i * t + j] * v.data()[j * d + off + x];
                }
                out[i * d + off + x] = acc;
            }
        }
    }
    Tensor::from_vec(&[t, d], out)
}

/// Swin patch merging over a `[B, g², D]` batch: 2×2 token groups
/// concatenated into one `[B·(g/2)², 4·D]` operand, then one projection
/// GEMM for the whole batch, giving `[B, (g/2)², out]`.
fn token_merge_batch(x: &Tensor, w: &WeightStorage, bias: &[f32], grid: usize) -> Tensor {
    let (out_f, in_f) = (w.shape()[0], w.shape()[1]);
    assert_eq!(bias.len(), out_f, "token_merge bias length mismatch");
    assert!(
        grid.is_multiple_of(2),
        "grid side must be even for 2x2 merging"
    );
    let (b, t, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    assert_eq!(t, grid * grid, "token count must equal grid^2");
    assert_eq!(in_f, 4 * d, "token_merge weight must be [out, 4*D]");
    let og = grid / 2;
    let mut grouped = vec![0.0f32; b * og * og * in_f];
    for (tokens, dst) in x
        .data()
        .chunks_exact(t * d)
        .zip(grouped.chunks_exact_mut(og * og * in_f))
    {
        for (g, row) in dst.chunks_exact_mut(in_f).enumerate() {
            let (gy, gx) = (g / og, g % og);
            for (slot, (dy, dx)) in [(0, 0), (0, 1), (1, 0), (1, 1)].iter().enumerate() {
                let tok = (2 * gy + dy) * grid + (2 * gx + dx);
                row[slot * d..(slot + 1) * d].copy_from_slice(&tokens[tok * d..(tok + 1) * d]);
            }
        }
    }
    let mut out = matmul_t_storage(&Tensor::from_vec(&[b * og * og, in_f], grouped), w).into_data();
    add_bias(&mut out, bias);
    Tensor::from_vec(&[b, og * og, out_f], out)
}

/// Global average pooling `[.., C, H, W] → [.., C]`: the mean of each of
/// the batch's `H·W` planes.
fn global_avg_pool(x: &Tensor) -> Tensor {
    let rank = x.shape().len();
    assert!(rank >= 2, "global_avg_pool needs [.., H, W] input");
    let hw = x.shape()[rank - 2] * x.shape()[rank - 1];
    let out = x
        .data()
        .chunks_exact(hw)
        .map(|plane| plane.iter().sum::<f32>() / hw as f32)
        .collect();
    Tensor::from_vec(&x.shape()[..rank - 2], out)
}

/// Mean over tokens `[.., T, D] → [.., D]`, per batch element.
fn mean_tokens(x: &Tensor) -> Tensor {
    let rank = x.shape().len();
    assert!(rank >= 2, "mean_tokens needs [.., T, D] input");
    let (t, d) = (x.shape()[rank - 2], x.shape()[rank - 1]);
    let mut shape = x.shape().to_vec();
    shape.remove(rank - 2);
    let mut out = vec![0.0f32; x.len() / t];
    for (o, tokens) in out.chunks_exact_mut(d).zip(x.data().chunks_exact(t * d)) {
        for row in tokens.chunks_exact(d) {
            for (o, &v) in o.iter_mut().zip(row) {
                *o += v;
            }
        }
        for o in o {
            *o /= t as f32;
        }
    }
    Tensor::from_vec(&shape, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp::format::LpParams;
    use proptest::prelude::*;

    fn seq_tensor(shape: &[usize], scale: f32) -> Tensor {
        let len = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..len)
                .map(|i| ((i as f32 * 0.611).sin()) * scale)
                .collect(),
        )
    }

    /// A batch of one, and its element back: single-input shims over the
    /// batch kernels (the pre-batching test call shape).
    fn one(x: &Tensor) -> Tensor {
        Tensor::stack(std::slice::from_ref(x))
    }

    fn only(batch: Tensor) -> Tensor {
        batch.unstack().pop().unwrap()
    }

    fn conv2d(x: &Tensor, w: &Tensor, bias: &[f32], stride: usize, pad: usize) -> Tensor {
        only(conv2d_batch(&one(x), &w.clone().into(), bias, stride, pad))
    }

    fn patch_embed(
        x: &Tensor,
        w: &Tensor,
        bias: &[f32],
        patch: usize,
        cls: &[f32],
        pos: &Tensor,
    ) -> Tensor {
        only(patch_embed_batch(
            &one(x),
            &w.clone().into(),
            bias,
            patch,
            cls,
            pos,
        ))
    }

    #[test]
    fn conv2d_matches_naive_reference() {
        let x = seq_tensor(&[2, 5, 5], 1.0);
        let w = seq_tensor(&[3, 2, 3, 3], 0.5);
        let bias = vec![0.1, -0.2, 0.3];
        let out = conv2d(&x, &w, &bias, 1, 1);
        assert_eq!(out.shape(), &[3, 5, 5]);
        // Naive reference at a few positions.
        for (co, oy, ox) in [(0usize, 0usize, 0usize), (1, 2, 3), (2, 4, 4)] {
            let mut acc = bias[co];
            for ci in 0..2 {
                for ky in 0..3 {
                    for kx in 0..3 {
                        let iy = oy as isize + ky as isize - 1;
                        let ix = ox as isize + kx as isize - 1;
                        if !(0..5).contains(&iy) || !(0..5).contains(&ix) {
                            continue;
                        }
                        acc += x.data()[ci * 25 + iy as usize * 5 + ix as usize]
                            * w.data()[co * 18 + ci * 9 + ky * 3 + kx];
                    }
                }
            }
            let got = out.data()[co * 25 + oy * 5 + ox];
            assert!((got - acc).abs() < 1e-4, "({co},{oy},{ox}): {got} vs {acc}");
        }
    }

    #[test]
    fn conv2d_stride_shapes() {
        let x = seq_tensor(&[1, 8, 8], 1.0);
        let w = seq_tensor(&[4, 1, 3, 3], 1.0);
        let out = conv2d(&x, &w, &[0.0; 4], 2, 1);
        assert_eq!(out.shape(), &[4, 4, 4]);
    }

    #[test]
    fn dwconv_preserves_channels() {
        let x = seq_tensor(&[3, 6, 6], 1.0);
        let w = seq_tensor(&[3, 3, 3], 1.0);
        let w = WeightStorage::from(w);
        let out = only(dwconv2d(&one(&x), &w, &[0.0; 3], 1, 1));
        assert_eq!(out.shape(), &[3, 6, 6]);
        // Channel 0 output must not depend on channel 1 input.
        let mut x2 = x.clone();
        for v in &mut x2.data_mut()[36..72] {
            *v += 10.0;
        }
        let out2 = only(dwconv2d(&one(&x2), &w, &[0.0; 3], 1, 1));
        assert_eq!(&out.data()[..36], &out2.data()[..36]);
        assert_ne!(&out.data()[36..72], &out2.data()[36..72]);
    }

    #[test]
    fn linear_rank1_and_rank2() {
        let w = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]).into();
        let b = vec![0.5, -0.5];
        let x1 = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let y1 = linear(&x1, &w, &b);
        assert_eq!(y1.data(), &[1.5, 1.5]);
        let x2 = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y2 = linear(&x2, &w, &b);
        assert_eq!(y2.shape(), &[2, 2]);
        assert_eq!(y2.data(), &[1.5, 1.5, 4.5, 4.5]);
    }

    #[test]
    fn layer_norm_normalizes() {
        let x = Tensor::from_vec(&[2, 4], vec![1.0, 2.0, 3.0, 4.0, -1.0, 0.0, 1.0, 2.0]);
        let out = layer_norm(&x, &[1.0; 4], &[0.0; 4]);
        for row in out.data().chunks(4) {
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn mha_uniform_keys_average_values() {
        // With identical q·k for all pairs, attention is a uniform average
        // over tokens.
        let t = 4;
        let d = 8;
        let q = Tensor::zeros(&[t, d]);
        let k = Tensor::zeros(&[t, d]);
        let v = seq_tensor(&[t, d], 1.0);
        let out = mha(&q, &k, &v, 2);
        for tok in 0..t {
            for f in 0..d {
                let avg: f32 = (0..t).map(|j| v.data()[j * d + f]).sum::<f32>() / t as f32;
                assert!((out.data()[tok * d + f] - avg).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn mha_heads_are_independent() {
        let t = 3;
        let d = 8;
        let q = seq_tensor(&[t, d], 0.5);
        let k = seq_tensor(&[t, d], 0.4);
        let mut v = seq_tensor(&[t, d], 1.0);
        let out1 = mha(&q, &k, &v, 2);
        // Perturb only head-1 features of v (second half of each row).
        for tok in 0..t {
            for f in 4..8 {
                v.data_mut()[tok * d + f] += 7.0;
            }
        }
        let out2 = mha(&q, &k, &v, 2);
        for tok in 0..t {
            for f in 0..4 {
                assert_eq!(out1.data()[tok * d + f], out2.data()[tok * d + f]);
            }
        }
    }

    #[test]
    fn global_avg_pool_averages_each_plane() {
        let x = Tensor::from_vec(
            &[1, 4, 4],
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
        );
        let gap = global_avg_pool(&x);
        assert_eq!(gap.data(), &[8.5]);
    }

    #[test]
    fn patch_embed_shapes_and_cls() {
        let x = seq_tensor(&[3, 8, 8], 1.0);
        let dim = 6;
        let patch = 4;
        let tokens = 4;
        let w = seq_tensor(&[dim, 3 * 16], 0.1);
        let pos = Tensor::zeros(&[tokens + 1, dim]);
        let cls = vec![9.0; dim];
        let out = patch_embed(&x, &w, &[0.0; 6], patch, &cls, &pos);
        assert_eq!(out.shape(), &[tokens + 1, dim]);
        assert_eq!(&out.data()[..dim], &[9.0; 6]);
    }

    #[test]
    fn model_builder_and_forward() {
        let mut m = Model::new("test", &[4], 3);
        let x = m.input_node();
        let w1 = Tensor::from_vec(&[5, 4], (0..20).map(|i| (i as f32) * 0.05).collect());
        let l1 = m.push(
            Op::Linear {
                weight: w1.into(),
                bias: vec![0.0; 5],
            },
            &[x],
        );
        let r = m.push(Op::Relu, &[l1]);
        let w2 = Tensor::from_vec(&[3, 5], (0..15).map(|i| (i as f32) * -0.03).collect());
        let l2 = m.push(
            Op::Linear {
                weight: w2.into(),
                bias: vec![0.1; 3],
            },
            &[r],
        );
        m.set_output(l2);
        assert_eq!(m.num_quant_layers(), 2);
        assert_eq!(m.num_params(), 35);
        let out = m.forward(&Tensor::from_vec(&[4], vec![1.0, -1.0, 0.5, 2.0]));
        assert_eq!(out.shape(), &[3]);
    }

    #[test]
    fn forward_traced_captures_irs() {
        let mut m = Model::new("test", &[4], 2);
        let x = m.input_node();
        let l1 = m.push(
            Op::Linear {
                weight: Tensor::from_vec(&[4, 4], vec![0.2; 16]).into(),
                bias: vec![0.0; 4],
            },
            &[x],
        );
        let r = m.push(Op::Relu, &[l1]);
        let l2 = m.push(
            Op::Linear {
                weight: Tensor::from_vec(&[2, 4], vec![0.1; 8]).into(),
                bias: vec![0.0; 2],
            },
            &[r],
        );
        m.set_output(l2);
        let trace = m.forward_traced(&Tensor::from_vec(&[4], vec![1.0; 4]), None, true);
        assert_eq!(trace.irs.len(), 2);
        assert_eq!(trace.irs[0].shape(), &[4]);
        assert_eq!(trace.irs[1].shape(), &[2]);
        assert_eq!(trace.irs[1].data(), trace.output.data());
    }

    #[test]
    fn quantize_weights_changes_values() {
        let mut m = Model::new("test", &[4], 2);
        let x = m.input_node();
        let l = m.push(
            Op::Linear {
                weight: Tensor::from_vec(&[2, 4], vec![0.3; 8]).into(),
                bias: vec![0.0; 2],
            },
            &[x],
        );
        m.set_output(l);
        let mut scheme = QuantScheme::identity(1);
        // 2-bit LP: 0.3 cannot survive.
        scheme.weights[0] = Some(Arc::new(LpParams::new(2, 0, 1, 0.0).unwrap()));
        let qm = m.quantize_weights(&scheme);
        let orig = m.nodes()[l].op.weight().unwrap().data();
        let quant = qm.nodes()[l].op.weight().unwrap().data();
        assert_ne!(orig, quant);
        assert!(quant.iter().all(|&v| v == 1.0)); // only ±1 representable
    }

    #[test]
    fn weight_cache_is_shared_and_hit() {
        let mut m = Model::new("test", &[4], 2);
        let x = m.input_node();
        let l = m.push(
            Op::Linear {
                weight: Tensor::from_vec(&[2, 4], vec![0.37; 8]).into(),
                bias: vec![0.0; 2],
            },
            &[x],
        );
        m.set_output(l);
        let cache = Arc::new(WeightCache::default());
        let mk_scheme = || {
            let mut s = QuantScheme::identity(1);
            s.weights[0] = Some(Arc::new(LpParams::new(4, 1, 3, 0.0).unwrap()));
            s.with_shared_cache(Arc::clone(&cache))
        };
        let q1 = m.quantize_weights(&mk_scheme());
        assert_eq!(cache.len(), 1, "first pass populates the cache");
        let q2 = m.quantize_weights(&mk_scheme());
        assert_eq!(cache.len(), 1, "identical format re-uses the entry");
        assert_eq!(
            q1.nodes()[l].op.weight().unwrap().data(),
            q2.nodes()[l].op.weight().unwrap().data()
        );
        // A different format is a distinct entry.
        let mut s3 = QuantScheme::identity(1);
        s3.weights[0] = Some(Arc::new(LpParams::new(4, 1, 3, 1.0).unwrap()));
        let _ = m.quantize_weights(&s3.with_shared_cache(Arc::clone(&cache)));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_quantization_equals_uncached() {
        let mut m = Model::new("test", &[4], 2);
        let x = m.input_node();
        let l = m.push(
            Op::Linear {
                weight: Tensor::from_vec(&[2, 4], (0..8).map(|i| i as f32 * 0.11 - 0.4).collect())
                    .into(),
                bias: vec![0.0; 2],
            },
            &[x],
        );
        m.set_output(l);
        let mut scheme = QuantScheme::identity(1);
        scheme.weights[0] = Some(Arc::new(LpParams::new(6, 1, 3, 0.5).unwrap()));
        // Prime the cache, then re-apply; compare against a direct
        // (fresh-cache) quantization.
        let warm1 = m.quantize_weights(&scheme);
        let warm2 = m.quantize_weights(&scheme);
        let fresh = m.quantize_weights(&scheme.clone().with_shared_cache(Arc::default()));
        let w1 = warm1.nodes()[l].op.weight().unwrap().data();
        let w2 = warm2.nodes()[l].op.weight().unwrap().data();
        let wf = fresh.nodes()[l].op.weight().unwrap().data();
        assert_eq!(w1, w2);
        assert_eq!(w1, wf);
    }

    #[test]
    fn activation_quantization_applies() {
        let mut m = Model::new("test", &[2], 2);
        let x = m.input_node();
        let l = m.push(
            Op::Linear {
                weight: Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]).into(),
                bias: vec![0.0; 2],
            },
            &[x],
        );
        m.set_output(l);
        let mut scheme = QuantScheme::identity(1);
        scheme.activations[0] = Some(Arc::new(LpParams::new(2, 0, 1, 0.0).unwrap()));
        let out = m
            .forward_traced(
                &Tensor::from_vec(&[2], vec![0.4, -3.0]),
                Some(&scheme),
                false,
            )
            .output;
        assert_eq!(out.data(), &[1.0, -1.0]);
    }

    #[test]
    fn block_ends_accumulate() {
        let mut m = Model::new("test", &[2], 2);
        let x = m.input_node();
        let l1 = m.push(
            Op::Linear {
                weight: Tensor::from_vec(&[2, 2], vec![0.1; 4]).into(),
                bias: vec![0.0; 2],
            },
            &[x],
        );
        m.end_block();
        let l2 = m.push(
            Op::Linear {
                weight: Tensor::from_vec(&[2, 2], vec![0.1; 4]).into(),
                bias: vec![0.0; 2],
            },
            &[l1],
        );
        m.end_block();
        m.end_block(); // duplicate is ignored
        m.set_output(l2);
        assert_eq!(m.block_ends(), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn forward_checks_input_shape() {
        let mut m = Model::new("test", &[4], 2);
        let x = m.input_node();
        let l = m.push(
            Op::Linear {
                weight: Tensor::from_vec(&[2, 4], vec![0.1; 8]).into(),
                bias: vec![0.0; 2],
            },
            &[x],
        );
        m.set_output(l);
        let _ = m.forward(&Tensor::zeros(&[3]));
    }

    #[test]
    fn gelu_and_relu_behave() {
        let mut m = Model::new("test", &[3], 3);
        let x = m.input_node();
        let r = m.push(Op::Relu, &[x]);
        m.set_output(r);
        let out = m.forward(&Tensor::from_vec(&[3], vec![-1.0, 0.0, 2.0]));
        assert_eq!(out.data(), &[0.0, 0.0, 2.0]);

        let g = eval_op(
            &Op::Gelu,
            vec![Arc::new(Tensor::from_vec(&[3], vec![-10.0, 0.0, 10.0]))],
        );
        assert!(g.data()[0].abs() < 1e-3); // gelu(−10) ≈ 0
        assert_eq!(g.data()[1], 0.0);
        assert!((g.data()[2] - 10.0).abs() < 1e-3); // gelu(10) ≈ 10
    }

    /// Bit patterns for the GELU memo properties: arbitrary `u32`s plus
    /// each special class — NaN payloads of both signs, ±0, ±∞ and
    /// subnormals of both signs.
    fn gelu_bits() -> impl Strategy<Value = u32> {
        prop_oneof![
            0u32..=u32::MAX,
            0x7F80_0001u32..=0x7FFF_FFFF,
            0xFF80_0001u32..=0xFFFF_FFFF,
            0x0000_0001u32..=0x007F_FFFF,
            0x8000_0001u32..=0x807F_FFFF,
            0u32..=0,
            0x8000_0000u32..=0x8000_0000,
            0x7F80_0000u32..=0x7F80_0000,
            0xFF80_0000u32..=0xFF80_0000,
        ]
    }

    /// The next bit pattern after `bits` that maps to the same memo slot.
    fn slot_twin(bits: u32) -> u32 {
        let slot = gelu_slot(bits);
        (1..)
            .map(|d| bits.wrapping_add(d))
            .find(|&b| gelu_slot(b) == slot)
            .expect("every slot has many keys")
    }

    fn assert_gelu_matches_reference(bits: &[u32]) {
        let mut xs: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        gelu_in_place(&mut xs);
        for (&b, got) in bits.iter().zip(&xs) {
            let want = gelu_ref(f32::from_bits(b));
            assert_eq!(got.to_bits(), want.to_bits(), "input bits {b:#010x}");
        }
    }

    proptest! {
        #[test]
        fn gelu_memo_is_bit_identical_to_reference(
            bits in prop::collection::vec(gelu_bits(), 1..200),
        ) {
            // Twice: the first pass fills slots, the second hits them.
            assert_gelu_matches_reference(&bits);
            assert_gelu_matches_reference(&bits);
        }

        #[test]
        fn gelu_memo_survives_slot_collisions(b in gelu_bits()) {
            // Keys sharing one slot evict each other in turn; the sentinel
            // key +0.0 (every slot's initial key) and a key sharing its
            // slot join in, on a fresh thread whose memo is still in its
            // initial state.
            let (c, z) = (slot_twin(b), slot_twin(0));
            let seq = [b, c, b, 0, c, z, 0, b, 0x8000_0000, z, c, 0];
            std::thread::spawn(move || assert_gelu_matches_reference(&seq))
                .join()
                .expect("memo thread");
            assert_gelu_matches_reference(&seq);
        }

        #[test]
        fn mha_is_bit_identical_to_the_triple_loop(
            t in 1usize..14, heads in 1usize..5, dh in 1usize..10,
            seed in 0u64..1000,
        ) {
            // T runs over non-multiples of the microkernel's 4-row and
            // 8-column tiles, so every remainder path is covered.
            let d = heads * dh;
            let data = |salt: u64| -> Tensor {
                let v = (0..t * d)
                    .map(|i| {
                        let h = (i as u64 * 2654435761 + seed * 40503 + salt) % 10007;
                        match h % 53 {
                            0 => 0.0,
                            1 => -0.0,
                            2 => 1e-41,
                            _ => (h as f32 / 10007.0 - 0.5) * 4.0,
                        }
                    })
                    .collect();
                Tensor::from_vec(&[t, d], v)
            };
            let (q, k, v) = (data(1), data(2), data(3));
            let got = mha(&q, &k, &v, heads);
            let want = mha_oracle(&q, &k, &v, heads);
            prop_assert_eq!(got.shape(), want.shape());
            for (x, y) in got.data().iter().zip(want.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// Deterministic pseudo-random values in `[-2, 2)`, salted with the
    /// given specials at hash-chosen positions (about one in eight).
    fn salted_values(len: usize, seed: u64, salt: u64, specials: &[f32]) -> Vec<f32> {
        (0..len as u64)
            .map(|i| {
                let h = (i * 2_654_435_761 + seed * 40_503 + salt) % 10_007;
                match (h % 8, (h / 8) as usize % specials.len()) {
                    (0, s) => specials[s],
                    _ => (h as f32 / 10_007.0 - 0.5) * 4.0,
                }
            })
            .collect()
    }

    /// Exact bit equality, except that NaN matches NaN whatever its sign
    /// and payload (IEEE-754 leaves NaN propagation bits unspecified).
    fn bits_eq_mod_nan(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// The scalar convolution `conv2d_batch` must match: each output sums
    /// its taps in ascending `(c, ky, kx)` order from `+0.0`, a padded tap
    /// counting as `+0.0·w`, then adds the bias.
    fn conv2d_oracle(x: &Tensor, w: &Tensor, bias: &[f32], stride: usize, pad: usize) -> Tensor {
        let (c_out, c_in, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
        let Window {
            h, w: wd, oh, ow, ..
        } = Window::new(x.shape(), kh, kw, stride, pad);
        let tap = |c: usize, iy: usize, ix: usize| -> f32 {
            match (iy.checked_sub(pad), ix.checked_sub(pad)) {
                (Some(y), Some(x_)) if y < h && x_ < wd => x.data()[(c * h + y) * wd + x_],
                _ => 0.0,
            }
        };
        let mut out = Vec::with_capacity(c_out * oh * ow);
        for (co, &b) in bias.iter().enumerate() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for c in 0..c_in {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let wv = w.data()[((co * c_in + c) * kh + ky) * kw + kx];
                                acc += tap(c, oy * stride + ky, ox * stride + kx) * wv;
                            }
                        }
                    }
                    out.push(acc + b);
                }
            }
        }
        Tensor::from_vec(&[c_out, oh, ow], out)
    }

    proptest! {
        #[test]
        fn conv_kernels_are_bit_identical_to_their_oracles(
            c in 1usize..4, c_out in 1usize..=20, c_dw in 1usize..=20,
            kh_pick in 0usize..5, kw_pick in 0usize..5, three in 0usize..3,
            stride in 1usize..=4, pad in 0usize..=2, batch in 1usize..=3,
            extra_h in 0usize..12, extra_w in 0usize..12, seed in 0u64..1_000_000,
        ) {
            // Image sides start at the smallest that fits the padded
            // window (`h + 2·pad == k`), which is a 1×1 image whenever the
            // padding alone covers the kernel. Kernel sides pick from
            // 1–5 independently, so non-square windows and patch-embed's
            // 4×4 at stride 4 are both covered; a third of the cases take
            // the zoo's 3×3, whose in-bounds positions dwconv2d computes
            // apart from the rest. Up to 20 output or depthwise channels
            // over up to 144 positions give the 8-row transpose strips and
            // the 8-channel groups both full blocks and ragged tails.
            let (kh, kw) = if three == 0 {
                (3, 3)
            } else {
                ([1usize, 2, 3, 4, 5][kh_pick], [1usize, 2, 3, 4, 5][kw_pick])
            };
            let side = |k: usize| k.saturating_sub(2 * pad).max(1);
            let (h, w) = (side(kh) + extra_h, side(kw) + extra_w);
            // Non-finite pixels, NaN payloads of both signs among them:
            // the fill is a copy, so every bit must reach the operand.
            let pixel_specials = [
                0.0,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                f32::from_bits(0x7fc0_1234),
                f32::from_bits(0xffa0_0001),
            ];
            let batch_of = |c: usize, salt: u64| -> Vec<Tensor> {
                (0..batch as u64)
                    .map(|e| {
                        let v = salted_values(c * h * w, seed, salt + e, &pixel_specials);
                        Tensor::from_vec(&[c, h, w], v)
                    })
                    .collect()
            };
            let xs = batch_of(c, 10);
            let images = Tensor::stack(&xs);

            // Stacked im2col fill ≡ per-image oracle, bit for bit.
            let win = Window::new(xs[0].shape(), kh, kw, stride, pad);
            let stacked = im2col_stacked(&images, &win);
            let want: Vec<f32> =
                xs.iter().flat_map(|x| im2col_oracle(x, kh, kw, stride, pad)).collect();
            prop_assert_eq!(stacked.shape(), &[batch * win.positions(), c * kh * kw][..]);
            for (i, (g, o)) in stacked.data().iter().zip(&want).enumerate() {
                prop_assert_eq!(g.to_bits(), o.to_bits(), "im2col elem {}", i);
            }

            // conv2d over the fill, the GEMM and the tiled output write ≡
            // the scalar oracle, with dense weights and with packed LP8
            // codes of the same values.
            let zeros = [0.0, -0.0];
            let lp8 = LpParams::clamped(8, 2, 3, 0.0);
            let wt = salted_values(c_out * c * kh * kw, seed, 5, &zeros);
            let wt = Tensor::from_vec(&[c_out, c, kh, kw], wt);
            let packed = QTensor::quantize(&wt, &lp8);
            let bias = salted_values(c_out, seed, 6, &zeros);
            for (storage, values) in [
                (WeightStorage::from(wt.clone()), wt.clone()),
                (WeightStorage::from(packed.clone()), packed.dequantize()),
            ] {
                let got = conv2d_batch(&images, &storage, &bias, stride, pad).unstack();
                prop_assert_eq!(got.len(), batch);
                for (x, g) in xs.iter().zip(&got) {
                    let want = conv2d_oracle(x, &values, &bias, stride, pad);
                    prop_assert_eq!(g.shape(), want.shape());
                    for (i, (g, o)) in g.data().iter().zip(want.data()).enumerate() {
                        prop_assert!(bits_eq_mod_nan(*g, *o), "conv elem {}: {:?} vs {:?}", i, g, o);
                    }
                }
            }

            // dwconv2d over the whole batch ≡ per-image oracle, with dense
            // weights salted with ±inf and NaN and with packed LP8 codes.
            let dxs = batch_of(c_dw, 20);
            let dw_images = Tensor::stack(&dxs);
            let weight_specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
            let wt = salted_values(c_dw * kh * kw, seed, 3, &weight_specials);
            let wt = Tensor::from_vec(&[c_dw, kh, kw], wt);
            let packed = QTensor::quantize(
                &Tensor::from_vec(&[c_dw, kh, kw], salted_values(c_dw * kh * kw, seed, 7, &zeros)),
                &lp8,
            );
            let bias = salted_values(c_dw, seed, 4, &zeros);
            for (storage, values) in [
                (WeightStorage::from(wt.clone()), wt.clone()),
                (WeightStorage::from(packed.clone()), packed.dequantize()),
            ] {
                let got = dwconv2d(&dw_images, &storage, &bias, stride, pad).unstack();
                prop_assert_eq!(got.len(), batch);
                for (x, g) in dxs.iter().zip(&got) {
                    let want = dwconv2d_oracle(x, &values, &bias, stride, pad);
                    prop_assert_eq!(g.shape(), want.shape());
                    for (i, (g, o)) in g.data().iter().zip(want.data()).enumerate() {
                        prop_assert!(bits_eq_mod_nan(*g, *o), "dwconv elem {}: {:?} vs {:?}", i, g, o);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "a 5x5 window at stride 1, pad 1 does not fit a 2x2x3 image")]
    fn conv2d_rejects_a_window_larger_than_its_padded_input() {
        let x = seq_tensor(&[2, 2, 3], 1.0);
        conv2d(&x, &seq_tensor(&[1, 2, 5, 5], 0.5), &[0.0], 1, 1);
    }

    /// A small model with linear layers, relu and layer norm.
    fn mixed_mlp() -> Model {
        let mut m = Model::new("mixed", &[6], 3);
        let x = m.input_node();
        let l1 = m.push(
            Op::Linear {
                weight: seq_tensor(&[8, 6], 0.4).into(),
                bias: (0..8).map(|i| i as f32 * 0.01).collect(),
            },
            &[x],
        );
        let r = m.push(Op::Relu, &[l1]);
        let ln = m.push(
            Op::LayerNorm {
                gamma: vec![1.0; 8],
                beta: vec![0.05; 8],
            },
            &[r],
        );
        let l2 = m.push(
            Op::Linear {
                weight: seq_tensor(&[3, 8], 0.3).into(),
                bias: vec![0.1, -0.1, 0.0],
            },
            &[ln],
        );
        m.set_output(l2);
        m
    }

    fn batch_inputs(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| seq_tensor(&[6], 0.7 + i as f32 * 0.13))
            .collect()
    }

    #[test]
    fn forward_batch_is_bit_identical_to_singles() {
        let m = mixed_mlp();
        for b in [1usize, 3, 7] {
            let inputs = batch_inputs(b);
            let batched = m.forward_batch(&inputs);
            assert_eq!(batched.len(), b);
            for (input, got) in inputs.iter().zip(&batched) {
                let want = m.forward(input);
                assert_eq!(got.shape(), want.shape());
                for (x, y) in got.data().iter().zip(want.data()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
        assert!(m.forward_batch(&[]).is_empty());
    }

    #[test]
    fn forward_batch_applies_activation_quantization() {
        let m = mixed_mlp();
        let mut scheme = QuantScheme::identity(2);
        scheme.activations[0] = Some(Arc::new(LpParams::new(6, 1, 3, 0.0).unwrap()));
        scheme.activations[1] = Some(Arc::new(LpParams::new(8, 2, 3, 0.0).unwrap()));
        let inputs = batch_inputs(4);
        let batched = m.forward_batch_quant(&inputs, Some(&scheme));
        for (input, got) in inputs.iter().zip(&batched) {
            let want = m.forward_traced(input, Some(&scheme), false).output;
            for (x, y) in got.data().iter().zip(want.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn packed_forward_matches_fake_quantized_dense_forward() {
        let m = mixed_mlp();
        let mut scheme = QuantScheme::identity(2);
        scheme.weights[0] = Some(Arc::new(LpParams::new(8, 2, 3, 0.0).unwrap()));
        scheme.weights[1] = Some(Arc::new(LpParams::new(4, 1, 3, 0.5).unwrap()));
        let dense = m.quantize_weights(&scheme);
        let packed = m.quantize_weights_packed(&scheme);
        assert!(packed.layer_storages().iter().all(|s| s.is_packed()));
        let inputs = batch_inputs(5);
        let want = dense.forward_batch(&inputs);
        let got = packed.forward_batch(&inputs);
        for (g, w) in got.iter().zip(&want) {
            for (x, y) in g.data().iter().zip(w.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Singles agree too (same kernels, batch of one).
        for input in &inputs {
            assert_eq!(packed.forward(input).data(), dense.forward(input).data());
        }
    }

    #[test]
    fn packed_layers_halve_resident_bytes_and_share_codes() {
        let m = mixed_mlp();
        let mut scheme = QuantScheme::identity(2);
        for w in &mut scheme.weights {
            *w = Some(Arc::new(LpParams::new(8, 2, 3, 0.0).unwrap()));
        }
        let dense_bytes = m.resident_weight_bytes();
        assert_eq!(dense_bytes, m.num_params() * 4);
        let cache = scheme.weight_cache();
        let p1 = m.quantize_weights_packed(&scheme);
        assert_eq!(p1.resident_weight_bytes() * 2, dense_bytes);
        assert_eq!(cache.len(), 2, "one packed entry per layer");
        // A second packing through the same cache shares the code buffers.
        let p2 = m.quantize_weights_packed(&scheme);
        assert_eq!(cache.len(), 2);
        let ptrs = |model: &Model| -> Vec<usize> {
            model
                .layer_storages()
                .iter()
                .map(|s| s.as_packed().unwrap().codes_ptr())
                .collect()
        };
        assert_eq!(ptrs(&p1), ptrs(&p2), "shared cache must share codes");
    }

    #[test]
    fn packed_cache_shape_mismatch_yields_fresh_codes_not_stale_entry() {
        // Sharing a WeightCache across models violates its documented
        // contract (keys are ordinals + formats, not weight values); this
        // exercises the defense-in-depth shape guard for that misuse: the
        // second packing must not adopt the first model's cached codes
        // when the shapes disagree.
        let build = |shape: &[usize], scale: f32| {
            let mut m = Model::new("t", &[shape[1]], shape[0]);
            let x = m.input_node();
            let l = m.push(
                Op::Linear {
                    weight: seq_tensor(shape, scale).into(),
                    bias: vec![0.0; shape[0]],
                },
                &[x],
            );
            m.set_output(l);
            m
        };
        let a = build(&[2, 4], 0.5);
        let b = build(&[3, 5], 0.5);
        let q: Arc<dyn Quantizer + Send + Sync> = Arc::new(LpParams::new(8, 2, 3, 0.0).unwrap());
        let mut scheme = QuantScheme::identity(1);
        scheme.weights[0] = Some(q);
        let cache = scheme.weight_cache();
        let pa = a.quantize_weights_packed(&scheme);
        let pb = b.quantize_weights_packed(&scheme.clone().with_shared_cache(cache));
        let qb = pb.layer_storages()[0].as_packed().unwrap().clone();
        assert_eq!(qb.shape(), &[3, 5], "b must keep its own shape");
        // And the values must be b's quantized weights, not a's.
        let want = b.quantize_weights(&QuantScheme::new(
            scheme.weights.clone(),
            scheme.activations.clone(),
        ));
        assert_eq!(
            qb.dequantize().data(),
            want.layer_storages()[0].as_dense().unwrap().data()
        );
        drop(pa);
    }

    #[test]
    #[should_panic(expected = "cannot re-quantize packed layer")]
    fn requantizing_a_packed_layer_panics() {
        let m = mixed_mlp();
        let mut lp8 = QuantScheme::identity(2);
        let mut lp4 = QuantScheme::identity(2);
        for (a, b) in lp8.weights.iter_mut().zip(&mut lp4.weights) {
            *a = Some(Arc::new(LpParams::new(8, 2, 3, 0.0).unwrap()));
            *b = Some(Arc::new(LpParams::new(4, 1, 3, 0.0).unwrap()));
        }
        let packed = m.quantize_weights_packed(&lp8);
        // Silently keeping the lp8 codes would misreport the scheme.
        let _ = packed.quantize_weights_packed(&lp4);
    }

    #[test]
    fn quantize_weights_packed_leaves_none_layers_dense() {
        let m = mixed_mlp();
        let mut scheme = QuantScheme::identity(2);
        scheme.weights[1] = Some(Arc::new(LpParams::new(8, 2, 3, 0.0).unwrap()));
        let p = m.quantize_weights_packed(&scheme);
        let storages = p.layer_storages();
        assert!(!storages[0].is_packed());
        assert!(storages[1].is_packed());
        // The dense full-precision layer is untouched.
        assert_eq!(
            storages[0].as_dense().unwrap().data(),
            m.layer_storages()[0].as_dense().unwrap().data()
        );
    }
}
