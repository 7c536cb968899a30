//! The windowed-max bottleneck-bandwidth filter shared by
//! [`Bbr`](super::bbr::Bbr) and [`Bbr2`](super::bbr2::Bbr2).

use std::collections::VecDeque;

use gsrepro_simcore::BitRate;

/// Exact max of the delivery-rate samples taken in the last `window`
/// rounds, as a monotonic deque of `(round, rate)` with rates strictly
/// decreasing front to back, so the front is the max. A push drops every
/// older sample whose rate is `<=` the new one (the newer sample outlives
/// it in the window); each update then evicts samples from rounds before
/// the window off the front. O(1) amortized per ack.
///
/// Exact only because [`AckInfo::round`](super::AckInfo::round) never
/// decreases: push order is then round order, so expiry always happens at
/// the front.
pub(crate) struct MaxBwFilter {
    window: u64,
    samples: VecDeque<(u64, BitRate)>,
}

impl MaxBwFilter {
    /// Empty filter over a window of `window` rounds.
    pub(crate) fn new(window: u64) -> Self {
        MaxBwFilter {
            window,
            samples: VecDeque::new(),
        }
    }

    /// Record `sample` (if any) at `round`, expire samples older than the
    /// window, and return the windowed max (`BitRate::ZERO` when empty).
    pub(crate) fn update(&mut self, round: u64, sample: Option<BitRate>) -> BitRate {
        if let Some(rate) = sample {
            while self.samples.back().is_some_and(|&(_, r)| r <= rate) {
                self.samples.pop_back();
            }
            self.samples.push_back((round, rate));
        }
        let min_round = round.saturating_sub(self.window);
        while self.samples.front().is_some_and(|&(r, _)| r < min_round) {
            self.samples.pop_front();
        }
        self.samples.front().map_or(BitRate::ZERO, |&(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    //! Differential test: the deque filter against the `retain` + `max`
    //! rescan it replaced, both standalone and inside `Bbr`/`Bbr2`.

    use super::*;
    use crate::cca::{bbr::Bbr, bbr2::Bbr2, AckInfo, CongestionControl};
    use gsrepro_simcore::{SimDuration, SimTime};
    use proptest::prelude::*;

    const WINDOW: u64 = 10;
    const MSS: u64 = 1448;

    /// The pre-deque filter: every in-window sample in a `Vec`, rescanned.
    struct RetainMax {
        samples: Vec<(u64, BitRate)>,
    }

    impl RetainMax {
        fn update(&mut self, round: u64, sample: Option<BitRate>) -> BitRate {
            if let Some(rate) = sample {
                self.samples.push((round, rate));
            }
            let min_round = round.saturating_sub(WINDOW);
            self.samples.retain(|&(r, _)| r >= min_round);
            self.max()
        }

        fn max(&self) -> BitRate {
            self.samples
                .iter()
                .map(|&(_, r)| r)
                .max()
                .unwrap_or(BitRate::ZERO)
        }

        /// Samples the deque must hold: those strictly faster than every
        /// later in-window sample.
        fn dominant_count(&self) -> usize {
            let mut count = 0;
            let mut later_max: Option<BitRate> = None;
            for &(_, r) in self.samples.iter().rev() {
                if later_max.is_none_or(|m| r > m) {
                    count += 1;
                    later_max = Some(r);
                }
            }
            count
        }
    }

    /// One ack of the random stream.
    #[derive(Clone, Copy, Debug)]
    struct Step {
        round: u64,
        rate: Option<BitRate>,
        app_limited: bool,
    }

    /// Decode raw draws into a stream whose rounds never decrease: repeats,
    /// single steps and gaps past the window; rates from a four-value pool
    /// (so ties are common), arbitrary values or missing.
    fn decode(raw: &[(u8, u64, bool)]) -> Vec<Step> {
        let mut round = 0;
        raw.iter()
            .map(|&(sel, v, app_limited)| {
                round += match sel % 8 {
                    0..=3 => 0,
                    4..=6 => 1,
                    _ => 1 + v % (2 * WINDOW + 3),
                };
                let rate = match sel / 8 % 4 {
                    0 => None,
                    1 => Some(BitRate::from_bps(v % 4 * 1_000_000)),
                    _ => Some(BitRate::from_bps(v % 50_000_000)),
                };
                Step {
                    round,
                    rate,
                    app_limited,
                }
            })
            .collect()
    }

    fn ack(i: u64, step: Step) -> AckInfo {
        AckInfo {
            now: SimTime::from_millis(i),
            bytes_acked: MSS,
            rtt: Some(SimDuration::from_millis(20)),
            srtt: SimDuration::from_millis(20),
            min_rtt: SimDuration::from_millis(20),
            delivered: (i + 1) * MSS,
            delivery_rate: step.rate,
            in_flight: 10 * MSS,
            round_start: false,
            round: step.round,
            app_limited: step.app_limited,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn deque_matches_retain_max(raw in prop::collection::vec((0u8..32, any::<u64>(), any::<bool>()), 1..300)) {
            let mut filter = MaxBwFilter::new(WINDOW);
            let mut reference = RetainMax { samples: Vec::new() };
            for step in decode(&raw) {
                let got = filter.update(step.round, step.rate);
                prop_assert_eq!(got, reference.update(step.round, step.rate), "{:?}", step);
                prop_assert_eq!(filter.samples.len(), reference.dominant_count(), "{:?}", step);
            }
        }

        #[test]
        fn bbr_and_bbr2_btl_bw_match_retain_max(raw in prop::collection::vec((0u8..32, any::<u64>(), any::<bool>()), 1..300)) {
            let mut bbr = Bbr::new(MSS);
            let mut bbr2 = Bbr2::new(MSS);
            let mut reference = RetainMax { samples: Vec::new() };
            for (i, step) in decode(&raw).into_iter().enumerate() {
                let a = ack(i as u64, step);
                bbr.on_ack(&a);
                bbr2.on_ack(&a);
                // App-limited samples only count when they raise the max.
                let sample = step.rate.filter(|&r| !step.app_limited || r > reference.max());
                let want = reference.update(step.round, sample);
                prop_assert_eq!(bbr.btl_bw(), want, "bbr {:?}", step);
                prop_assert_eq!(bbr2.btl_bw(), want, "bbr2 {:?}", step);
            }
        }
    }
}
