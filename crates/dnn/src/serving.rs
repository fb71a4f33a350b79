//! Glue between the model zoo and the generic batch-inference server
//! (`serve::server`).
//!
//! A [`ServedModel`] wraps one full-precision model plus a single
//! [`WeightCache`] shared by **every** quantization scenario registered
//! from it. Registering a scenario packs the weights once into `u16`
//! codes ([`Model::quantize_weights_packed`]) through that cache — so a
//! second scenario that reuses a layer's `(ordinal, format)` pair holds
//! the *same* `Arc`-shared code buffer, not a copy, and scenarios with
//! identical schemes add zero resident weight bytes. The process-wide
//! `lp::codec` decode-table cache is shared the same way (it is keyed
//! globally), so scenarios across *different* models also reuse each
//! other's tables.
//!
//! The registered batch function hands the **whole micro-batch** to
//! [`Model::forward_batch_quant`]: one stacked GEMM per weighted layer,
//! codes decoded panel-wise inside the kernel, scheme activations applied
//! batch-wise — bit-identical to per-input fake-quantized forwards.
//!
//! Registrations serve both server faces: blocked synchronous
//! [`Client`](serve::server::Client) calls and ticketed asynchronous
//! submission ([`serve::async_front::AsyncClient`]). Every serving knob —
//! admission cap, priority class, weighted-fair weight, deadline budget,
//! batch override — rides a [`ScenarioSpec`] through
//! [`ServedModel::register_spec`], the one registration path;
//! [`ServedModel::register`] is the all-defaults shorthand.
//!
//! Served models inherit the runtime's observability for free: every
//! registration accumulates per-stage latency histograms (queue wait /
//! service / delivery, visible in
//! [`StatsSnapshot`](serve::stats::StatsSnapshot) and in
//! [`Server::metrics_text`](serve::server::Server::metrics_text)), and
//! with `SERVE_TRACE=1` each request's lifecycle is recorded into
//! `serve::trace` ring buffers and exportable as a Chrome trace.

use crate::graph::{Model, QuantScheme, WeightCache};
use crate::tensor::Tensor;
use serve::server::{ScenarioSpec, ServeError, Server};
use std::sync::Arc;

/// The request/response server type the model glue targets.
pub type TensorServer = Server<Tensor, Tensor>;

/// One model plus the weight cache its scenarios share.
#[derive(Clone)]
pub struct ServedModel {
    model: Arc<Model>,
    cache: Arc<WeightCache>,
}

impl std::fmt::Debug for ServedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedModel")
            .field("model", &self.model.name())
            .field("cached_layers", &self.cache.len())
            .finish()
    }
}

impl ServedModel {
    /// Wraps a model for serving with a fresh shared weight cache.
    pub fn new(model: Model) -> Self {
        ServedModel {
            model: Arc::new(model),
            cache: Arc::default(),
        }
    }

    /// The underlying full-precision model.
    pub fn model(&self) -> &Arc<Model> {
        &self.model
    }

    /// Number of `(layer, format)` quantized tensors in the shared cache —
    /// the observable that proves scenario registrations reuse each
    /// other's quantized weights.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Registers one quantization scenario of this model on `server`
    /// under the full [`ScenarioSpec`] control surface — admission cap,
    /// priority class, weighted-fair weight, deadline budget and batch
    /// override all ride the spec; the spec's model name is replaced by
    /// this model's (the scenario name is the spec's). This is **the**
    /// registration path; [`ServedModel::register`] is the all-defaults
    /// shorthand.
    ///
    /// The hot path is packed and batched: weights are packed **now**
    /// into `u16` codes through the model's shared cache (scenarios
    /// agreeing on a layer's codec key share one code buffer), and each
    /// request batch runs through [`Model::forward_batch_quant`] — one
    /// stacked GEMM per layer with scheme activations applied batch-wise.
    ///
    /// Returns the packed model so callers can account for resident
    /// weight bytes ([`Model::resident_weight_bytes`]).
    ///
    /// # Errors
    ///
    /// Propagates [`ServeError`] from registration (duplicate key or
    /// shutdown).
    ///
    /// # Panics
    ///
    /// Panics if the scheme's length does not match the model's
    /// weighted-layer count (same contract as
    /// [`Model::quantize_weights_packed`]).
    pub fn register_spec(
        &self,
        server: &TensorServer,
        spec: ScenarioSpec,
        scheme: QuantScheme,
    ) -> Result<Arc<Model>, ServeError> {
        let spec = spec.with_model(self.model.name());
        let scheme = scheme.with_shared_cache(Arc::clone(&self.cache));
        let quantized = Arc::new(self.model.quantize_weights_packed(&scheme));
        let scheme = Arc::new(scheme);
        let handle = Arc::clone(&quantized);
        server.register(spec, move |batch: &[Tensor]| {
            quantized.forward_batch_quant(batch, Some(&scheme))
        })?;
        Ok(handle)
    }

    /// Registers one quantization scenario with an all-defaults spec
    /// (unbounded queue, priority class 0, weight 1, no deadline) —
    /// shorthand for [`ServedModel::register_spec`] with
    /// `ScenarioSpec::new(_, scenario)`. The right default for
    /// cooperating synchronous clients, which self-limit at one
    /// in-flight request per thread; high-fan-in async drivers should
    /// pass a spec with a [`queue_cap`](ScenarioSpec::queue_cap).
    ///
    /// # Errors
    ///
    /// Propagates [`ServeError`] from registration (duplicate key or
    /// shutdown).
    ///
    /// # Panics
    ///
    /// Panics if the scheme's length does not match the model's
    /// weighted-layer count (same contract as
    /// [`Model::quantize_weights_packed`]).
    pub fn register(
        &self,
        server: &TensorServer,
        scenario: &str,
        scheme: QuantScheme,
    ) -> Result<Arc<Model>, ServeError> {
        self.register_spec(server, ScenarioSpec::new("", scenario), scheme)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp::format::LpParams;
    use lp::Quantizer;
    use serve::pool::Pool;
    use serve::server::BatchPolicy;
    use std::time::Duration;

    /// A small two-layer MLP (fast enough to serve in unit tests).
    fn tiny_model() -> Model {
        use crate::graph::Op;
        let mut m = Model::new("tiny_mlp", &[8], 4);
        let x = m.input_node();
        let w1 = Tensor::from_vec(
            &[16, 8],
            (0..128).map(|i| ((i as f32) * 0.37).sin() * 0.3).collect(),
        );
        let l1 = m.push(
            Op::Linear {
                weight: w1.into(),
                bias: vec![0.01; 16],
            },
            &[x],
        );
        let r = m.push(Op::Relu, &[l1]);
        let w2 = Tensor::from_vec(
            &[4, 16],
            (0..64).map(|i| ((i as f32) * 0.61).cos() * 0.2).collect(),
        );
        let l2 = m.push(
            Op::Linear {
                weight: w2.into(),
                bias: vec![0.0; 4],
            },
            &[r],
        );
        m.set_output(l2);
        m
    }

    fn lp_scheme(layers: usize, bits: i64, sf: f64) -> QuantScheme {
        let mut s = QuantScheme::identity(layers);
        for w in &mut s.weights {
            *w = Some(Arc::new(LpParams::clamped(bits, 2, 3, sf)));
        }
        s
    }

    fn test_server() -> TensorServer {
        Server::new(
            Pool::new(4),
            BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
            },
        )
    }

    #[test]
    fn second_scenario_reuses_cached_quantized_weights() {
        let served = ServedModel::new(tiny_model());
        let server = test_server();
        let layers = served.model().num_quant_layers();
        assert_eq!(served.cache_len(), 0);

        served
            .register(&server, "lp8", lp_scheme(layers, 8, 0.0))
            .unwrap();
        assert_eq!(served.cache_len(), layers, "first scenario fills the cache");

        // An identical scheme under a new scenario name: every layer hits
        // the cache — no re-quantization, no growth.
        served
            .register(&server, "lp8_replica", lp_scheme(layers, 8, 0.0))
            .unwrap();
        assert_eq!(
            served.cache_len(),
            layers,
            "identical scenario must reuse every cached layer"
        );

        // A genuinely different scheme adds one entry per layer.
        served
            .register(&server, "lp4", lp_scheme(layers, 4, 0.0))
            .unwrap();
        assert_eq!(served.cache_len(), 2 * layers);
    }

    #[test]
    fn served_outputs_match_direct_quantized_forward() {
        let served = ServedModel::new(tiny_model());
        let server = test_server();
        let layers = served.model().num_quant_layers();
        let scheme = lp_scheme(layers, 8, 0.0);
        served.register(&server, "lp8", scheme.clone()).unwrap();

        let input = Tensor::from_vec(&[8], (0..8).map(|i| i as f32 * 0.1 - 0.3).collect());
        let got = server
            .client()
            .infer("tiny_mlp", "lp8", input.clone())
            .unwrap();
        let qm = served.model().quantize_weights(&scheme);
        let want = qm.forward_traced(&input, Some(&scheme), false).output;
        assert_eq!(got.data(), want.data());
    }

    /// The stage histograms fill in through the DNN glue exactly like the
    /// end-to-end one: one sample per stage per completed request,
    /// and the stage means sum to the end-to-end mean (the dispatch path
    /// derives all four durations from shared instants).
    #[test]
    fn served_requests_fill_stage_histograms() {
        let served = ServedModel::new(tiny_model());
        let server = test_server();
        let layers = served.model().num_quant_layers();
        served
            .register(&server, "lp8", lp_scheme(layers, 8, 0.0))
            .unwrap();

        let client = server.client();
        for i in 0..12u32 {
            let input = Tensor::from_vec(&[8], (0..8).map(|j| (i + j) as f32 * 0.05).collect());
            client.infer("tiny_mlp", "lp8", input).unwrap();
        }

        let snap = server.stats("tiny_mlp", "lp8").unwrap();
        assert_eq!(snap.count, 12);
        for (name, stage) in [
            ("queue_wait", &snap.queue_wait),
            ("service", &snap.service),
            ("delivery", &snap.delivery),
        ] {
            assert_eq!(stage.count, 12, "{name} missed a request");
            assert!(stage.p50_s >= 0.0 && stage.p99_s >= stage.p50_s, "{name}");
            assert!(stage.max_s >= stage.p50_s, "{name}");
        }
        assert!(snap.service.p50_s > 0.0, "inference takes nonzero time");
        let stage_mean_sum = snap.queue_wait.mean_s + snap.service.mean_s + snap.delivery.mean_s;
        assert!(
            (stage_mean_sum - snap.mean_s).abs() < 1e-6,
            "stage means {stage_mean_sum} should sum to total {}",
            snap.mean_s
        );
    }

    #[test]
    fn duplicate_scenarios_share_resident_codes() {
        let served = ServedModel::new(tiny_model());
        let server = test_server();
        let layers = served.model().num_quant_layers();
        let a = served
            .register(&server, "lp8", lp_scheme(layers, 8, 0.0))
            .unwrap();
        let b = served
            .register(&server, "lp8_twin", lp_scheme(layers, 8, 0.0))
            .unwrap();
        // Packed storage, half the dense bytes, and the twin scenario
        // holds the *same* code buffers (zero additional resident bytes).
        assert_eq!(
            a.resident_weight_bytes() * 2,
            served.model().num_params() * 4
        );
        let ptrs = |m: &Model| -> Vec<usize> {
            m.layer_storages()
                .iter()
                .map(|s| s.as_packed().expect("packed layer").codes_ptr())
                .collect()
        };
        assert_eq!(ptrs(&a), ptrs(&b));
        // A different format mints its own codes.
        let c = served
            .register(&server, "lp4", lp_scheme(layers, 4, 0.0))
            .unwrap();
        assert_ne!(ptrs(&a), ptrs(&c));
    }

    #[test]
    fn batched_serving_matches_per_input_baseline() {
        // Served packed batches must equal per-input forwards over the
        // fake-quantized f32 weights, bit for bit.
        let served = ServedModel::new(tiny_model());
        let server = test_server();
        let layers = served.model().num_quant_layers();
        let scheme = lp_scheme(layers, 8, 0.0);
        let fake_quant = served.model().quantize_weights(&scheme);
        served.register(&server, "packed", scheme.clone()).unwrap();
        let cq = server.async_client();
        let inputs: Vec<Tensor> = (0..6)
            .map(|i| Tensor::from_vec(&[8], (0..8).map(|j| (i + j) as f32 * 0.07 - 0.2).collect()))
            .collect();
        let mut want = std::collections::HashMap::new();
        for input in &inputs {
            let t = cq.submit("tiny_mlp", "packed", input.clone()).unwrap();
            let out = fake_quant
                .forward_traced(input, Some(&scheme), false)
                .output;
            want.insert(t, out);
        }
        for _ in 0..inputs.len() {
            let c = cq.wait(Duration::from_secs(10)).expect("completion lost");
            let want = want.remove(&c.ticket).expect("unknown ticket");
            assert_eq!(c.result.unwrap().data(), want.data());
        }
    }

    #[test]
    fn async_registration_serves_tickets_and_sheds_at_cap() {
        use serve::server::ServeError;

        let served = ServedModel::new(tiny_model());
        let server = test_server();
        let layers = served.model().num_quant_layers();
        let scheme = lp_scheme(layers, 8, 0.0);
        served
            .register_spec(
                &server,
                ScenarioSpec::new("", "lp8").queue_cap(256),
                scheme.clone(),
            )
            .unwrap();

        // Async submissions produce the same tensors as the sync client
        // (one shared registration, one shared hot path).
        let cq = server.async_client();
        let inputs: Vec<Tensor> = (0..12)
            .map(|i| Tensor::from_vec(&[8], (0..8).map(|j| (i * j) as f32 * 0.05 - 0.2).collect()))
            .collect();
        let mut by_ticket = std::collections::HashMap::new();
        for input in &inputs {
            let want = server
                .client()
                .infer("tiny_mlp", "lp8", input.clone())
                .unwrap();
            let t = cq.submit("tiny_mlp", "lp8", input.clone()).unwrap();
            by_ticket.insert(t, want);
        }
        for _ in 0..by_ticket.len() {
            let c = cq
                .wait(std::time::Duration::from_secs(10))
                .expect("completion lost");
            let want = by_ticket.remove(&c.ticket).expect("unknown ticket");
            assert_eq!(c.result.unwrap().data(), want.data());
        }

        // A tiny cap on a second scenario sheds a burst with the typed
        // error and counts it in the registration's stats.
        served
            .register_spec(
                &server,
                ScenarioSpec::new("", "lp8_capped").queue_cap(2),
                scheme,
            )
            .unwrap();
        let mut shed = 0;
        for i in 0..64 {
            let input = Tensor::from_vec(&[8], vec![i as f32 * 0.01; 8]);
            match cq.submit("tiny_mlp", "lp8_capped", input) {
                Ok(_) => {}
                Err(ServeError::Rejected { cap, .. }) => {
                    assert_eq!(cap, 2);
                    shed += 1;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(shed > 0, "burst of 64 must overrun cap 2");
        assert_eq!(
            server.stats("tiny_mlp", "lp8_capped").unwrap().shed,
            shed as u64
        );
        // Drain accepted completions so shutdown has nothing to strand.
        while cq.in_flight() + cq.completed_waiting() > 0 {
            let _ = cq.wait(std::time::Duration::from_secs(10));
        }
    }

    #[test]
    fn scenarios_share_process_wide_decode_tables() {
        // Two ServedModels registering the same format family draw from
        // the one global codec cache: the table for a given format is
        // built once, then shared by pointer.
        let p = LpParams::clamped(8, 2, 3, 1.5);
        let a = p.decode_table();
        let b = p.decode_table();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
