//! The paper workloads rebuilt from their public constructors, so the
//! traced run can time the batch generator, the forward pass and the
//! backward pass apart. Each rebuild mirrors its constructor in
//! `yf_experiments::workloads` step for step; `check_rebuild` compares
//! the two bitwise before a traced run starts.

use crate::trace::Tracer;
use yf_autograd::Graph;
use yf_data::images::SyntheticImages;
use yf_data::text::{LmSample, MarkovText, TextSource};
use yf_experiments::task::TrainTask;
use yf_experiments::workloads::{IMAGE_BATCH, SEQ_BATCH};
use yf_nn::{
    collect_grads, flat_params, load_flat, LmBatch, LstmLm, LstmLmConfig, ResNet, ResNetConfig,
    SupervisedModel,
};
use yf_tensor::rng::Pcg32;

pub struct ModelProbe<'t, M: SupervisedModel> {
    model: M,
    init: Vec<f32>,
    batcher: Box<dyn FnMut() -> M::Batch>,
    tracer: &'t Tracer,
}

impl<'t, M: SupervisedModel> ModelProbe<'t, M> {
    fn new(model: M, batcher: impl FnMut() -> M::Batch + 'static, tracer: &'t Tracer) -> Self {
        let init = flat_params(&model);
        ModelProbe {
            model,
            init,
            batcher: Box::new(batcher),
            tracer,
        }
    }
}

/// `workloads::cifar10_like(seed)`, rebuilt.
pub fn cifar10(seed: u64, tracer: &Tracer) -> ModelProbe<'_, ResNet> {
    let mut rng = Pcg32::seed_stream(seed, 0x10);
    let net = ResNet::new(&ResNetConfig::cifar10_like(10), &mut rng);
    let mut data = SyntheticImages::new(10, 3, 10, 0.35, seed ^ 0xa0);
    ModelProbe::new(net, move || data.batch(IMAGE_BATCH), tracer)
}

/// `workloads::ts_like(seed)`, rebuilt.
pub fn ts(seed: u64, tracer: &Tracer) -> ModelProbe<'_, LstmLm> {
    let vocab = 26;
    let time = 16;
    let mut rng = Pcg32::seed_stream(seed, 0x14);
    let model = LstmLm::new(LstmLmConfig::char_like(vocab), &mut rng);
    let mut source = MarkovText::new(vocab, 3, seed ^ 0xe0);
    // The constructor draws its validation batch first; the training
    // stream starts after it.
    let _ = source.lm_arrays(LmSample { batch: 16, time });
    let spec = LmSample {
        batch: SEQ_BATCH,
        time,
    };
    ModelProbe::new(
        model,
        move || {
            let (i, t) = source.lm_arrays(spec);
            LmBatch::new(i, t, spec.batch, spec.time)
        },
        tracer,
    )
}

impl<M: SupervisedModel> TrainTask for ModelProbe<'_, M> {
    fn dim(&self) -> usize {
        self.init.len()
    }

    fn init_params(&self) -> Vec<f32> {
        self.init.clone()
    }

    /// `ModelTask::loss_grad_at` with each stage in its own span. The
    /// batch is drawn before the parameters are loaded; the two are
    /// independent, so the bits are the same.
    fn loss_grad_at(&mut self, params: &[f32], step: u64) -> (f32, Vec<f32>) {
        let t = self.tracer;
        t.set_step(step);
        let start = t.now();
        let batch = t.time("data.batch", "model.loss_grad", &mut self.batcher);
        let model = &mut self.model;
        // Each closure owns what it last uses, so freeing the batch and
        // the graph counts in the span that made them garbage.
        let (mut g, loss, nodes, value) = t.time("nn.forward", "model.loss_grad", move || {
            load_flat(model, params);
            let mut g = Graph::new();
            let (loss, nodes) = model.loss(&mut g, &batch);
            let value = g.value(loss).data()[0];
            (g, loss, nodes, value)
        });
        let model = &self.model;
        let grad = t.time("autograd.backward", "model.loss_grad", move || {
            g.backward(loss);
            collect_grads(model, &g, &nodes)
        });
        t.record("model.loss_grad", "trainer.step", start, t.now());
        (value, grad)
    }

    fn fast_forward(&mut self, step: u64) {
        for _ in 0..step {
            let _ = (self.batcher)();
        }
    }

    fn validate(&mut self, _params: &[f32]) -> f64 {
        unreachable!("benchmark runs never validate")
    }

    fn metric_name(&self) -> &'static str {
        "loss"
    }

    fn lower_is_better(&self) -> bool {
        true
    }
}

/// Whether `rebuilt` matches `reference` bitwise in its initial
/// parameters and its step-0 loss and gradient. Both tasks advance one
/// batch.
pub fn check_rebuild(rebuilt: &mut dyn TrainTask, reference: &mut dyn TrainTask) -> bool {
    let p = reference.init_params();
    if rebuilt.init_params() != p {
        return false;
    }
    let (la, ga) = rebuilt.loss_grad_at(&p, 0);
    let (lb, gb) = reference.loss_grad_at(&p, 0);
    la.to_bits() == lb.to_bits()
        && ga.len() == gb.len()
        && ga.iter().zip(&gb).all(|(a, b)| a.to_bits() == b.to_bits())
}
