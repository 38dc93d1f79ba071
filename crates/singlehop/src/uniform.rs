//! Uniform leader election in single-hop CD networks.
//!
//! The schedule is *uniform* in the paper's sense (§4): at each step every
//! participant transmits with the same probability `p_t = 2^{-k_t}`, where
//! `k_t` depends only on the public feedback history. The implementation
//! follows the Nakano–Olariu recipe the paper cites for Lemma 8:
//!
//! 1. **Probe**: try `k = 1, 2, 4, 8, …` (i.e. `p = 2^{-k}` falling doubly
//!    exponentially) until the channel stops being noisy. This brackets
//!    `log₂ n` within a factor 2 in `O(log log n′)` slots.
//! 2. **Search**: binary-search `k` inside the bracket, `O(log log n′)`
//!    slots.
//! 3. **Race**: repeat at the located `k`, nudging `k` by ±1 on
//!    noise/silence. Each slot elects a unique transmitter with constant
//!    probability, so the race ends in `O(1)` expected slots with an
//!    exponential tail — `O(log 1/f)` slots give failure probability `f`.
//!
//! The same state machine doubles as the receiver-side simulation in the
//! multi-hop SR-communication transformation (Lemma 8): there, "one step"
//! becomes "one epoch" and the feedback is what the receiver heard in the
//! single slot of the epoch it listened to.

/// The three channel observations that drive a uniform schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Obs {
    /// No transmitter was heard.
    Silence,
    /// Exactly one transmitter was heard (success).
    Unique,
    /// A collision was detected (CD only).
    Noise,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Probe,
    Search { lo: u32, hi: u32 },
    Race,
}

/// The public, history-determined transmission schedule `k_t` of a uniform
/// leader-election algorithm in single-hop CD.
///
/// Drive it with [`observe`](UniformLeaderElection::observe); read the
/// current exponent with [`k`](UniformLeaderElection::k) (participants
/// transmit with probability `2^{-k}`).
#[derive(Debug, Clone)]
pub struct UniformLeaderElection {
    phase: Phase,
    k: u32,
    k_max: u32,
    done: bool,
}

impl UniformLeaderElection {
    /// A schedule for networks of at most `n_upper` participants.
    ///
    /// # Panics
    ///
    /// Panics if `n_upper == 0`.
    pub fn new(n_upper: usize) -> Self {
        assert!(n_upper >= 1);
        let k_max = (usize::BITS - n_upper.leading_zeros()) + 2;
        UniformLeaderElection {
            phase: Phase::Probe,
            k: 1,
            k_max,
            done: false,
        }
    }

    /// The current exponent: participants transmit with probability `2^{-k}`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Whether a unique transmission has been observed.
    pub fn succeeded(&self) -> bool {
        self.done
    }

    /// Feeds the channel observation for the current step and advances the
    /// schedule.
    pub fn observe(&mut self, obs: Obs) {
        if self.done {
            return;
        }
        if obs == Obs::Unique {
            self.done = true;
            return;
        }
        match self.phase {
            Phase::Probe => match obs {
                Obs::Noise => {
                    let next = (self.k * 2).min(self.k_max);
                    if next == self.k {
                        // Capped out without leaving the noisy regime; fall
                        // back to racing at the cap.
                        self.phase = Phase::Race;
                    } else {
                        self.k = next;
                    }
                }
                Obs::Silence => {
                    if self.k <= 1 {
                        self.phase = Phase::Race;
                    } else {
                        let lo = self.k / 2;
                        let hi = self.k;
                        self.k = (lo + hi) / 2;
                        self.phase = Phase::Search { lo, hi };
                    }
                }
                Obs::Unique => unreachable!(),
            },
            Phase::Search { lo, hi } => {
                let (lo, hi) = match obs {
                    Obs::Noise => (self.k, hi),
                    Obs::Silence => (lo, self.k),
                    Obs::Unique => unreachable!(),
                };
                if hi - lo <= 1 {
                    self.k = hi;
                    self.phase = Phase::Race;
                } else {
                    self.k = (lo + hi) / 2;
                    self.phase = Phase::Search { lo, hi };
                }
            }
            Phase::Race => {
                self.k = match obs {
                    Obs::Noise => (self.k + 1).min(self.k_max),
                    Obs::Silence => self.k.saturating_sub(1).max(1),
                    Obs::Unique => unreachable!(),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_probe_doubles_k_on_noise() {
        let mut s = UniformLeaderElection::new(1 << 12);
        assert_eq!(s.k(), 1);
        s.observe(Obs::Noise);
        assert_eq!(s.k(), 2);
        s.observe(Obs::Noise);
        assert_eq!(s.k(), 4);
        s.observe(Obs::Noise);
        assert_eq!(s.k(), 8);
    }

    #[test]
    fn schedule_search_narrows_bracket() {
        let mut s = UniformLeaderElection::new(1 << 12);
        for _ in 0..3 {
            s.observe(Obs::Noise); // k: 1 → 2 → 4 → 8
        }
        s.observe(Obs::Silence); // bracket (4, 8], k = 6
        assert_eq!(s.k(), 6);
        s.observe(Obs::Noise); // bracket (6, 8], k = 7
        assert_eq!(s.k(), 7);
        s.observe(Obs::Silence); // hi=7, lo=6 → race at 7
        assert_eq!(s.k(), 7);
        assert_eq!(s.phase, Phase::Race);
    }

    #[test]
    fn schedule_stops_on_unique() {
        let mut s = UniformLeaderElection::new(64);
        s.observe(Obs::Noise);
        s.observe(Obs::Unique);
        assert!(s.succeeded());
        let k = s.k();
        s.observe(Obs::Noise);
        assert_eq!(s.k(), k, "schedule frozen after success");
    }

    #[test]
    fn race_walks_k_up_and_down_within_bounds() {
        let mut s = UniformLeaderElection::new(4);
        s.observe(Obs::Silence); // k=1 → race
        assert_eq!(s.phase, Phase::Race);
        s.observe(Obs::Silence);
        assert_eq!(s.k(), 1, "k never drops below 1");
        for _ in 0..20 {
            s.observe(Obs::Noise);
        }
        assert!(s.k() <= s.k_max);
    }
}
