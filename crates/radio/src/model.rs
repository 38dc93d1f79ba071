//! Collision models and channel resolution.

use crate::NodeId;

/// The collision-detection model governing what listeners hear (paper §1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// No collision detection: 0 or ≥2 transmitting neighbors are both heard
    /// as silence.
    NoCd,
    /// Collision detection: 0 transmitters → silence, ≥2 → noise.
    Cd,
    /// Like CD, but with ≥2 transmitters the listener receives an arbitrary
    /// one of the messages (the paper's CD\* model, §6.3). This simulator
    /// deterministically delivers the lowest-id sender's message.
    CdStar,
    /// Every listener hears every message transmitted by any neighbor; no
    /// collisions (the paper's LOCAL-with-energy model).
    Local,
    /// Content-free beeping: a listener learns only whether ≥1 neighbor
    /// transmitted (§6.3 footnote).
    Beep,
}

impl Model {
    /// All models, in the order they appear in the paper's Table 1.
    pub const ALL: [Model; 5] = [
        Model::NoCd,
        Model::Cd,
        Model::CdStar,
        Model::Local,
        Model::Beep,
    ];

    /// A short human-readable name (`"No-CD"`, `"CD"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Model::NoCd => "No-CD",
            Model::Cd => "CD",
            Model::CdStar => "CD*",
            Model::Local => "LOCAL",
            Model::Beep => "Beep",
        }
    }
}

impl core::fmt::Display for Model {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a device chooses to do in a slot.
///
/// `Send` and `Listen` each cost one unit of energy; `Idle` is free;
/// `SendListen` (full duplex, used by the Theorem 2 reduction and the §8
/// path algorithm's analysis model) costs two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Stay asleep; costs nothing, and yields no feedback.
    Idle,
    /// Transmit `M`; the sender gets no feedback.
    Send(M),
    /// Listen to the channel; feedback per the collision model.
    Listen,
    /// Transmit and listen simultaneously (full duplex).
    SendListen(M),
}

impl<M> Action<M> {
    /// The energy this action costs (0, 1, or 2).
    pub fn energy(&self) -> u64 {
        match self {
            Action::Idle => 0,
            Action::Send(_) | Action::Listen => 1,
            Action::SendListen(_) => 2,
        }
    }

    /// The message being transmitted, if any.
    pub fn message(&self) -> Option<&M> {
        match self {
            Action::Send(m) | Action::SendListen(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this action listens.
    pub fn listens(&self) -> bool {
        matches!(self, Action::Listen | Action::SendListen(_))
    }
}

/// What a listening device hears at the end of a slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Feedback<M> {
    /// The silence signal λS (no transmitting neighbor — or, under No-CD, a
    /// collision indistinguishable from it).
    Silence,
    /// The noise signal λN (≥2 transmitting neighbors, CD only).
    Noise,
    /// Exactly one message received (or the arbitrary pick under CD\*).
    One(M),
    /// All messages from all transmitting neighbors (LOCAL only), ordered by
    /// sender id.
    Many(Vec<M>),
    /// At least one neighbor beeped (Beep model only).
    Beep,
}

impl<M> Feedback<M> {
    /// The single received message, if the feedback carries exactly one.
    pub fn message(&self) -> Option<&M> {
        match self {
            Feedback::One(m) => Some(m),
            Feedback::Many(v) if v.len() == 1 => v.first(),
            _ => None,
        }
    }
}

/// Resolves what one listener hears, given its transmitting neighbors.
///
/// `senders` must iterate the listener's transmitting neighbors in
/// ascending `NodeId` order (as [`crate::Graph::neighbors`] does). The
/// listener itself is never among them: a device does not hear itself.
pub fn resolve<M: Clone>(model: Model, senders: impl Iterator<Item = (NodeId, M)>) -> Feedback<M> {
    match model {
        Model::Local => {
            let msgs: Vec<M> = senders.map(|(_, m)| m).collect();
            if msgs.is_empty() {
                Feedback::Silence
            } else {
                Feedback::Many(msgs)
            }
        }
        Model::Beep => {
            if senders.count() == 0 {
                Feedback::Silence
            } else {
                Feedback::Beep
            }
        }
        Model::NoCd | Model::Cd | Model::CdStar => {
            let mut iter = senders;
            match (iter.next(), iter.next()) {
                (None, _) => Feedback::Silence,
                (Some((_, m)), None) => Feedback::One(m),
                (Some((_, first)), Some(_)) => match model {
                    Model::NoCd => Feedback::Silence,
                    Model::Cd => Feedback::Noise,
                    Model::CdStar => Feedback::One(first),
                    _ => unreachable!(),
                },
            }
        }
    }
}

/// Resolves one listener's feedback by scanning its CSR neighbor row.
///
/// `row` is the listener's sorted neighbor row; `sending[u]` is the
/// 1-based index of `u` in `senders`, or 0 when `u` does not transmit this
/// slot. The 0/1/many count maps to model feedback exactly as [`resolve`]
/// does, but the scan early-exits per model: CD\* and Beep stop at the
/// first transmitting neighbor (sorted rows make it the lowest-id
/// sender), No-CD and CD at the second, and only LOCAL walks the full row
/// to collect every message. Messages are cloned only on actual delivery.
pub(crate) fn resolve_row<M: Clone>(
    model: Model,
    row: &[u32],
    sending: &[u32],
    senders: &[(NodeId, M)],
) -> Feedback<M> {
    let hears = |u: u32| sending[u as usize] != 0;
    let msg = |u: u32| senders[sending[u as usize] as usize - 1].1.clone();
    match model {
        Model::Local => {
            // A plain loop, not `collect`: the silent majority of listeners
            // then never leave this function.
            let mut msgs = Vec::new();
            for &u in row {
                if hears(u) {
                    msgs.push(msg(u));
                }
            }
            if msgs.is_empty() {
                Feedback::Silence
            } else {
                Feedback::Many(msgs)
            }
        }
        Model::Beep => {
            if row.iter().any(|&u| hears(u)) {
                Feedback::Beep
            } else {
                Feedback::Silence
            }
        }
        Model::CdStar => match row.iter().find(|&&u| hears(u)) {
            // Rows are sorted, so the first transmitting neighbor found is
            // the lowest-id one — CD*'s pick whether it is alone or not.
            Some(&u) => Feedback::One(msg(u)),
            None => Feedback::Silence,
        },
        Model::NoCd | Model::Cd => {
            let mut first: Option<u32> = None;
            for &u in row {
                if hears(u) {
                    if first.is_some() {
                        return match model {
                            Model::NoCd => Feedback::Silence,
                            _ => Feedback::Noise,
                        };
                    }
                    first = Some(u);
                }
            }
            match first {
                Some(u) => Feedback::One(msg(u)),
                None => Feedback::Silence,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn senders<'a>(
        ms: &'a [(NodeId, &'static str)],
    ) -> impl Iterator<Item = (NodeId, &'static str)> + 'a {
        ms.iter().copied()
    }

    #[test]
    fn nocd_semantics() {
        assert_eq!(resolve(Model::NoCd, senders(&[])), Feedback::Silence);
        assert_eq!(
            resolve(Model::NoCd, senders(&[(3, "a")])),
            Feedback::One("a")
        );
        assert_eq!(
            resolve(Model::NoCd, senders(&[(3, "a"), (5, "b")])),
            Feedback::Silence
        );
    }

    #[test]
    fn cd_semantics() {
        assert_eq!(resolve(Model::Cd, senders(&[])), Feedback::Silence);
        assert_eq!(resolve(Model::Cd, senders(&[(3, "a")])), Feedback::One("a"));
        assert_eq!(
            resolve(Model::Cd, senders(&[(3, "a"), (5, "b")])),
            Feedback::Noise
        );
    }

    #[test]
    fn cdstar_picks_lowest_id() {
        assert_eq!(
            resolve(Model::CdStar, senders(&[(3, "a"), (5, "b")])),
            Feedback::One("a")
        );
    }

    #[test]
    fn local_hears_everything() {
        assert_eq!(
            resolve(Model::Local, senders(&[(3, "a"), (5, "b")])),
            Feedback::Many(vec!["a", "b"])
        );
        assert_eq!(resolve(Model::Local, senders(&[])), Feedback::Silence);
    }

    #[test]
    fn beep_is_content_free() {
        assert_eq!(resolve(Model::Beep, senders(&[(1, "x")])), Feedback::Beep);
        assert_eq!(
            resolve(Model::Beep, senders(&[(1, "x"), (2, "y")])),
            Feedback::Beep
        );
        assert_eq!(resolve(Model::Beep, senders(&[])), Feedback::Silence);
    }

    #[test]
    fn action_energy() {
        assert_eq!(Action::<u8>::Idle.energy(), 0);
        assert_eq!(Action::Send(1u8).energy(), 1);
        assert_eq!(Action::<u8>::Listen.energy(), 1);
        assert_eq!(Action::SendListen(1u8).energy(), 2);
    }

    #[test]
    fn feedback_message_accessor() {
        assert_eq!(Feedback::One(7).message(), Some(&7));
        assert_eq!(Feedback::Many(vec![7]).message(), Some(&7));
        assert_eq!(Feedback::Many(vec![7, 8]).message(), None);
        assert_eq!(Feedback::<u8>::Silence.message(), None);
        assert_eq!(Feedback::<u8>::Noise.message(), None);
    }

    #[test]
    fn model_names_are_distinct() {
        let names: std::collections::HashSet<&str> = Model::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), Model::ALL.len());
        assert_eq!(format!("{}", Model::CdStar), "CD*");
    }

    #[test]
    fn resolve_row_agrees_with_iterator_resolve() {
        // Every subset of a 4-neighbor row, under every model, must match
        // the iterator-based resolver exactly.
        let row: Vec<u32> = vec![1, 2, 4, 7];
        for mask in 0u32..16 {
            let mut sending = vec![0u32; 8];
            let senders: Vec<(NodeId, u32)> = row
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask >> i & 1 == 1)
                .map(|(_, &u)| (u as NodeId, 100 + u))
                .collect();
            for (i, &(v, _)) in senders.iter().enumerate() {
                sending[v] = i as u32 + 1;
            }
            for model in Model::ALL {
                let via_row = resolve_row(model, &row, &sending, &senders);
                let via_iter = resolve(model, senders.iter().cloned());
                assert_eq!(via_row, via_iter, "{model} mask {mask}");
            }
        }
    }

    #[test]
    fn action_message_accessor() {
        assert_eq!(Action::Send(5u8).message(), Some(&5));
        assert_eq!(Action::SendListen(5u8).message(), Some(&5));
        assert_eq!(Action::<u8>::Listen.message(), None);
        assert!(Action::<u8>::Listen.listens());
        assert!(Action::SendListen(5u8).listens());
        assert!(!Action::Send(5u8).listens());
    }
}
