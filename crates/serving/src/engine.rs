//! The engine abstraction every parallelism strategy implements.
//!
//! An [`InferenceEngine`] runs *inside* a simulation, driven by one of the
//! serving runners (for request traces, the one behind
//! [`serve`](crate::runner::serve)): the runner delivers arriving requests
//! and routes simulator wakes; the engine launches kernels and reports
//! completed requests.

use liger_gpu_sim::{DeviceId, SimTime, Simulation, Wake};

use crate::request::Request;

/// Wake-token namespace split between the runner and engines: tokens with
/// the top bit set belong to the runner (see `RunnerToken`); everything
/// below is engine-private.
pub const RUNNER_TOKEN_BASE: u64 = 1 << 63;

/// Bits of payload a [`RunnerToken`] carries, below the lowest tag bit.
pub(crate) const TOKEN_PAYLOAD_BITS: u32 = 52;

/// Every wake token a serving runner sets on a timer or event notification,
/// in one registry: `RUNNER_TOKEN_BASE | tag bit | payload`, with each
/// variant's tag bit listed once in [`RunnerToken::parts`]. Payloads must
/// fit in [`TOKEN_PAYLOAD_BITS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunnerToken {
    /// A request or job arrival timer (payload = id).
    Arrival(u64),
    /// A batcher flush deadline (payload = flush generation).
    Flush(u64),
    /// A retry resubmission of a request whose kernels failed (payload = id).
    Retry(u64),
    /// A per-request timeout check (payload = id).
    Timeout(u64),
    /// The health monitor's namespace; it fills the payload's low 49 bits.
    Health(u64),
    /// A drain-barrier event on a survivor stream.
    Drain,
    /// KV recovery after a loss has finished.
    Recovered,
    /// A speculative draft burst has finished (payload = round epoch).
    SpecDraft(u64),
    /// The rejoined device is warm and its KV migrate/recompute has drained.
    Expanded,
    /// A prefill → decode KV stream has landed (payload = job id).
    Stream(u64),
}

impl RunnerToken {
    /// Every variant, with `payload` where it carries one.
    fn all(payload: u64) -> [RunnerToken; 10] {
        use RunnerToken::*;
        let p = payload;
        [
            Arrival(p),
            Flush(p),
            Retry(p),
            Timeout(p),
            Health(p),
            Drain,
            Recovered,
            SpecDraft(p),
            Expanded,
            Stream(p),
        ]
    }

    /// The variant's `(tag bit, payload)`.
    fn parts(self) -> (u64, u64) {
        use RunnerToken::*;
        match self {
            Arrival(id) => (0, id),
            Flush(gen) => (1 << 62, gen),
            Retry(id) => (1 << 61, id),
            Timeout(id) => (1 << 60, id),
            Health(bits) => (1 << 59, bits),
            Drain => (1 << 56, 0),
            Recovered => (1 << 55, 0),
            SpecDraft(epoch) => (1 << 54, epoch),
            Expanded => (1 << 53, 0),
            Stream(id) => (1 << 52, id),
        }
    }

    /// The `u64` handed to `set_timer` / `notify_on_event`.
    pub(crate) fn encode(self) -> u64 {
        let (tag, payload) = self.parts();
        assert!(payload >> TOKEN_PAYLOAD_BITS == 0, "wake-token payload {payload} overflows");
        RUNNER_TOKEN_BASE | tag | payload
    }

    /// The runner token a timer or event wake carries; `None` for engine
    /// tokens and other wakes.
    pub(crate) fn of(wake: &Wake) -> Option<RunnerToken> {
        match *wake {
            Wake::Timer { token } | Wake::EventFired { token, .. } => RunnerToken::decode(token),
            _ => None,
        }
    }

    /// The runner token `token` encodes; `None` for engine tokens.
    pub(crate) fn decode(token: u64) -> Option<RunnerToken> {
        let payload = token & ((1 << TOKEN_PAYLOAD_BITS) - 1);
        let tag = token & !RUNNER_TOKEN_BASE & !payload;
        if token & RUNNER_TOKEN_BASE == 0 {
            return None;
        }
        RunnerToken::all(payload).into_iter().find(|t| t.parts() == (tag, payload))
    }
}

/// A distributed inference engine (Intra-Op, Inter-Op, Inter-Th, or Liger).
pub trait InferenceEngine {
    /// Engine name for reports (e.g. `"Liger"`, `"Intra-Op"`).
    fn name(&self) -> &'static str;

    /// A new request arrived (called at its arrival instant, inside the
    /// simulation). The engine queues or launches it.
    fn submit(&mut self, request: Request, sim: &mut Simulation);

    /// A simulator wake addressed to the engine (token below
    /// [`RUNNER_TOKEN_BASE`]).
    fn on_wake(&mut self, wake: Wake, sim: &mut Simulation);

    /// Requests that finished since the last drain: `(request id, GPU-side
    /// completion instant)`.
    fn drain_completions(&mut self) -> Vec<(u64, SimTime)>;

    /// A device was confirmed permanently lost (by the health watchdog, not
    /// an oracle). The engine must stop tracking every in-flight and queued
    /// request, rebuild its placement over `survivors`, and return the ids
    /// of the requests it abandoned — the caller resubmits them (subject to
    /// admission control). Engines without elastic-recovery support keep
    /// the default: change nothing, abandon nothing.
    fn on_device_loss(
        &mut self,
        dead: DeviceId,
        survivors: &[DeviceId],
        sim: &mut Simulation,
    ) -> Vec<u64> {
        let _ = (dead, survivors, sim);
        Vec::new()
    }

    /// A previously lost device was confirmed healthy again (it answered
    /// probes through the watchdog's quarantine period). The engine must
    /// replan over `devices` — the full post-rejoin set including
    /// `rejoined` — and, as with [`InferenceEngine::on_device_loss`],
    /// return the ids of the in-flight requests it abandoned for the
    /// caller to resubmit. Engines without elastic re-expansion keep the
    /// default: change nothing, abandon nothing.
    fn on_device_rejoin(
        &mut self,
        rejoined: DeviceId,
        devices: &[DeviceId],
        sim: &mut Simulation,
    ) -> Vec<u64> {
        let _ = (rejoined, devices, sim);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_runner_token_round_trips_and_none_collide() {
        let mut seen = std::collections::BTreeSet::new();
        for payload in [0, 1, 0x2a, (1 << TOKEN_PAYLOAD_BITS) - 1] {
            for token in RunnerToken::all(payload) {
                let raw = token.encode();
                assert_eq!(RunnerToken::decode(raw), Some(token), "{token:?} round-trips");
                assert!(raw & RUNNER_TOKEN_BASE != 0, "{token:?} stays in the runner namespace");
                seen.insert(raw);
            }
        }
        // Payload-free variants encode the same token at every payload.
        assert_eq!(seen.len(), 4 * 7 + 3, "no two tokens collide");
        assert_eq!(RunnerToken::decode(42), None, "engine tokens are not runner tokens");
        let two_tags = RunnerToken::Drain.encode() | RunnerToken::Expanded.encode();
        assert_eq!(RunnerToken::decode(two_tags), None, "an unregistered tag decodes to nothing");
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn an_oversized_payload_is_rejected() {
        RunnerToken::Arrival(1 << TOKEN_PAYLOAD_BITS).encode();
    }

    #[test]
    fn token_namespace_leaves_room() {
        assert!(RUNNER_TOKEN_BASE > u32::MAX as u64);
        assert_eq!(RUNNER_TOKEN_BASE & (RUNNER_TOKEN_BASE - 1), 0, "base is a power of two");
    }
}
