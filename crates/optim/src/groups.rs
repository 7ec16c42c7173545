//! Named parameter groups with per-group hyperparameter overrides.
//!
//! A [`ParamGroups`] describes how a model's flat parameter vector is
//! laid out — one contiguous [`ParamGroup`] per named parameter tensor,
//! in binding order — together with the shard plan used to apply updates
//! and optional per-group overrides (a learning-rate scale, a momentum
//! override). It is typically built from a `SupervisedModel`'s parameter
//! list via `yf_nn::param_groups` and handed to
//! [`step_grouped`](crate::sharded::step_grouped) or
//! `yf_experiments::trainer::RunConfig`; a single group is the plan
//! [`step_sharded`](crate::sharded::step_sharded) runs.
//!
//! Overrides adjust the [`Hyper`] produced by the optimizer's single
//! global `combine` — the measurement stays whole-model (the paper's
//! global curvature/variance statistics), only the *applied* values vary
//! per group, which is exactly the split the closed-loop analysis needs.

use crate::Hyper;

/// One named contiguous region of the flat parameter vector.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamGroup {
    /// Diagnostic name (e.g. `"stage1.block0.conv1.w"`).
    pub name: String,
    /// First flat coordinate of this group.
    pub offset: usize,
    /// Number of coordinates.
    pub len: usize,
    /// Multiplier on the tuned learning rate (1.0 = no override).
    pub lr_scale: f32,
    /// If set, replaces the tuned momentum for this group.
    pub momentum: Option<f32>,
}

impl ParamGroup {
    /// Applies this group's overrides to a base [`Hyper`].
    pub fn adjust(&self, base: Hyper) -> Hyper {
        Hyper {
            lr: base.lr * self.lr_scale,
            momentum: self.momentum.unwrap_or(base.momentum),
            grad_scale: base.grad_scale,
        }
    }

    /// Whether any override deviates from the tuned values.
    pub fn has_override(&self) -> bool {
        self.lr_scale != 1.0 || self.momentum.is_some()
    }
}

/// The layout of a flat parameter vector as named groups, plus the shard
/// plan for parallel application.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamGroups {
    groups: Vec<ParamGroup>,
    total: usize,
    /// Shards per group for parallel apply; 0 = auto (thread count when
    /// the vector is large enough to be worth splitting).
    shards: usize,
}

impl ParamGroups {
    /// One anonymous group covering the whole vector.
    pub fn single(total: usize) -> Self {
        ParamGroups {
            groups: vec![ParamGroup {
                name: "params".into(),
                offset: 0,
                len: total,
                lr_scale: 1.0,
                momentum: None,
            }],
            total,
            shards: 0,
        }
    }

    /// Builds groups from `(name, len)` pairs in binding order.
    pub fn from_named<'a>(named: impl IntoIterator<Item = (&'a str, usize)>) -> Self {
        let mut groups = Vec::new();
        let mut offset = 0;
        for (name, len) in named {
            groups.push(ParamGroup {
                name: name.to_string(),
                offset,
                len,
                lr_scale: 1.0,
                momentum: None,
            });
            offset += len;
        }
        ParamGroups {
            groups,
            total: offset,
            shards: 0,
        }
    }

    /// Total coordinates across all groups.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The groups, in flat-vector order.
    pub fn groups(&self) -> &[ParamGroup] {
        &self.groups
    }

    /// Sets the shard plan: each group is applied as up to `shards`
    /// parallel slices. 0 restores the automatic choice.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The shard count the drivers will actually use.
    pub fn resolved_shards(&self) -> usize {
        crate::sharded::auto_shards(self.shards, self.total)
    }

    /// Scales the learning rate of every group whose name contains
    /// `pattern`; returns how many groups matched.
    pub fn scale_lr(&mut self, pattern: &str, factor: f32) -> usize {
        let mut n = 0;
        for g in &mut self.groups {
            if g.name.contains(pattern) {
                g.lr_scale *= factor;
                n += 1;
            }
        }
        n
    }

    /// Overrides the momentum of every group whose name contains
    /// `pattern`; returns how many groups matched.
    pub fn override_momentum(&mut self, pattern: &str, momentum: f32) -> usize {
        let mut n = 0;
        for g in &mut self.groups {
            if g.name.contains(pattern) {
                g.momentum = Some(momentum);
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_named_lays_out_contiguously() {
        let g = ParamGroups::from_named([("w", 6), ("b", 2), ("head.w", 4)]);
        assert_eq!(g.total(), 12);
        assert_eq!(g.groups()[1].offset, 6);
        assert_eq!(g.groups()[2].offset, 8);
    }

    #[test]
    fn overrides_adjust_hyper() {
        let mut g = ParamGroups::from_named([("conv.w", 6), ("conv.b", 2)]);
        assert_eq!(g.scale_lr(".b", 0.5), 1);
        assert_eq!(g.override_momentum("conv", 0.0), 2);
        let base = Hyper {
            lr: 0.2,
            momentum: 0.9,
            grad_scale: 1.0,
        };
        let adjusted = g.groups()[1].adjust(base);
        assert!((adjusted.lr - 0.1).abs() < 1e-7);
        assert_eq!(adjusted.momentum, 0.0);
        assert!(g.groups()[0].has_override());
    }

    #[test]
    fn auto_sharding_is_single_for_small_vectors() {
        assert_eq!(ParamGroups::single(100).resolved_shards(), 1);
    }
}
