//! The unit that crosses the §V feedback edge: a posture directive.

/// A live re-provisioning order from the control plane.
///
/// The controller (an online estimator + Algorithm 3's posture table,
/// see `dap-net`'s `control` module) emits one directive whenever the
/// recommended posture changes, and every shard applies it at its next
/// interval boundary. All fields are integers so two same-seed runs
/// produce bit-identical directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostureDirective {
    /// Monotone directive number (one per posture change in a run).
    pub epoch: u64,
    /// The reservoir count `m*` Algorithm 3 chose.
    pub buffers: u32,
    /// The §V give-up verdict: buffers no longer pay; shards should fall
    /// back to the minimum reservoir and stop paying for memory.
    pub give_up: bool,
    /// The forged-fraction estimate (permille) that drove the decision.
    pub p_permille: u32,
}

impl PostureDirective {
    /// The reservoir capacity a shard should actually provision: `m*`,
    /// or the 1-buffer minimum when the game says give up (a receiver
    /// always keeps at least one reservoir slot so genuine traffic still
    /// authenticates at `1 − p` when the flood subsides).
    #[must_use]
    pub fn effective_buffers(&self) -> usize {
        if self.give_up {
            1
        } else {
            self.buffers.max(1) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_buffers_follow_the_verdict() {
        let mut d = PostureDirective {
            epoch: 3,
            buffers: 13,
            give_up: false,
            p_permille: 800,
        };
        assert_eq!(d.effective_buffers(), 13);
        d.give_up = true;
        assert_eq!(d.effective_buffers(), 1, "give-up falls back to one buffer");
        d = PostureDirective {
            buffers: 0,
            give_up: false,
            ..d
        };
        assert_eq!(d.effective_buffers(), 1, "a receiver keeps one slot");
    }
}
