//! The workspace's one optimizer registry.
//!
//! Sessions name their optimizer on the wire and fleet jobs name theirs
//! in a spec; both resolve the name here to a grid-value constructor.
//! The serve crate sits below `yf-experiments` in the dependency graph,
//! so the table lives here and the fleet re-exports it
//! (`yf_experiments::fleet::registry::opt_builder`) — one table, so the
//! served and the swept optimizers cannot drift apart.

use yellowfin::{YellowFin, YellowFinConfig};
use yf_optim::{AdaGrad, Adam, MomentumSgd, Optimizer, RmsProp, Sgd};

/// Grid-value constructor for a boxed optimizer (the grid value is the
/// learning rate, or the lr factor for YellowFin).
pub type OptBuilder = fn(f32) -> Box<dyn Optimizer>;

/// The names [`opt_builder`] resolves, in registry order.
pub const OPTIMIZER_NAMES: [&str; 7] = [
    "sgd",
    "momentum",
    "nesterov",
    "adam",
    "adagrad",
    "rmsprop",
    "yellowfin",
];

/// Resolves an optimizer name to its grid-value constructor. Momentum
/// variants fix the paper's 0.9 momentum; the grid value is the learning
/// rate (for `"yellowfin"`, the Appendix J.4 learning-rate factor).
/// `None` for unknown names.
pub fn opt_builder(name: &str) -> Option<OptBuilder> {
    Some(match name {
        "sgd" => |lr| Box::new(Sgd::new(lr)),
        "momentum" => |lr| Box::new(MomentumSgd::new(lr, 0.9)),
        "nesterov" => |lr| Box::new(MomentumSgd::nesterov(lr, 0.9)),
        "adam" => |lr| Box::new(Adam::new(lr)),
        "adagrad" => |lr| Box::new(AdaGrad::new(lr)),
        "rmsprop" => |lr| Box::new(RmsProp::new(lr)),
        "yellowfin" => |lr_factor| Box::new(YellowFin::new(yellowfin_config(lr_factor))),
        _ => return None,
    })
}

/// The configuration behind the `"yellowfin"` entry: the paper's
/// defaults with the grid value as the learning-rate factor. Sessions
/// build their [`yellowfin::TunerCore`] from it, so served and swept
/// tuners share one configuration.
pub fn yellowfin_config(lr_factor: f32) -> YellowFinConfig {
    YellowFinConfig {
        lr_factor: f64::from(lr_factor),
        ..YellowFinConfig::default()
    }
}

/// Builds a session optimizer from its wire name and grid value: the
/// [`opt_builder`] constructor applied to `value`.
pub fn build_optimizer(name: &str, value: f32) -> Option<Box<dyn Optimizer>> {
    opt_builder(name).map(|build| build(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_resolves() {
        for name in OPTIMIZER_NAMES {
            assert!(build_optimizer(name, 0.1).is_some(), "{name}");
        }
        assert!(build_optimizer("nope", 0.1).is_none());
    }

    #[test]
    fn yellowfin_is_self_tuning_and_checkpointable() {
        let opt = build_optimizer("yellowfin", 1.0).unwrap();
        assert!(opt.is_self_tuning());
        assert!(opt.checkpoint_state().is_some());
    }
}
