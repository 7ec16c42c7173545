//! Neural-network layers and the paper's model zoo.
//!
//! Built on [`yf_autograd`]: layers bind their parameters onto a fresh
//! [`Graph`](yf_autograd::Graph) every step (define-by-run) and models
//! expose a uniform [`SupervisedModel`] interface — a batch type, a loss
//! builder, and an ordered parameter list — which the optimizers consume
//! through flat vectors ([`flat_params`]/[`load_flat`]/[`loss_and_grad`]).
//!
//! The zoo covers every architecture family in the paper's Table 3 at
//! reduced scale: CIFAR-style ResNets (basic and bottleneck blocks, plus
//! the grouped-convolution ResNeXt variant of Appendix J.4), single- and
//! multi-layer LSTM language models (char- and word-level, with optional
//! tied input/output embeddings), an encoder-decoder LSTM for the
//! translation task of Table 1, and a plain MLP for quickstarts.

mod conv_layers;
mod linear;
mod lstm;
mod mlp;
mod model;
mod models_lm;
mod resnet;
mod seq2seq;

pub use conv_layers::{BatchNorm2d, Conv2dLayer};
pub use linear::{Embedding, Linear};
pub use lstm::{Lstm, LstmCell, LstmState};
pub use mlp::Mlp;
pub use model::{
    collect_grads, flat_dim, flat_params, load_flat, loss_and_grad, param_groups, Param,
    ParamNodes, SupervisedModel,
};
pub use models_lm::{LmBatch, LstmLm, LstmLmConfig};
pub use resnet::{BlockKind, ResNet, ResNetConfig};
pub use seq2seq::{Seq2Seq, Seq2SeqConfig, SeqBatch};
