//! The benchmark's request/reply application.
//!
//! Every request is `'Q' | nonce | due_us | body`, padded to the
//! workload's request size, where `body` is a pure function of
//! `(seed, nonce)`. The destination rebuilds the expected bytes and
//! compares them byte for byte before answering `'R' | nonce | digest`,
//! with `digest` the FNV-1a hash of the request it received; the
//! requester checks that digest against the request it sent. A mismatch
//! on either side is counted, and any count makes the run fail.

use std::collections::{HashMap, HashSet};

use whisper_core::node::{GroupApp, WhisperApi};
use whisper_core::{GroupId, PrivateEntry};
use whisper_net::sim::Ctx;
use whisper_net::NodeId;

/// Bytes of the request header (`'Q'`, nonce, due time).
pub const REQUEST_HEADER: usize = 17;

/// Builds the request for `nonce`, due at `due_us`, `len` bytes long.
pub fn request_bytes(seed: u64, nonce: u64, due_us: u64, len: usize) -> Vec<u8> {
    let len = len.max(REQUEST_HEADER);
    let mut data = Vec::with_capacity(len);
    data.push(b'Q');
    data.extend_from_slice(&nonce.to_le_bytes());
    data.extend_from_slice(&due_us.to_le_bytes());
    let mut state = seed ^ nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    while data.len() < len {
        let word = splitmix(&mut state).to_le_bytes();
        let take = (len - data.len()).min(8);
        data.extend_from_slice(&word[..take]);
    }
    data
}

/// FNV-1a over `bytes`: the reply's proof that the request arrived
/// intact.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parses and verifies a request of `len` bytes. Returns
/// `(nonce, due_us)` when the bytes are exactly what the generator made
/// for that nonce.
pub fn verify_request(seed: u64, len: usize, data: &[u8]) -> Option<(u64, u64)> {
    if data.len() != len.max(REQUEST_HEADER) || data[0] != b'Q' {
        return None;
    }
    let nonce = u64::from_le_bytes(data[1..9].try_into().expect("8 bytes"));
    let due_us = u64::from_le_bytes(data[9..17].try_into().expect("8 bytes"));
    (request_bytes(seed, nonce, due_us, len) == data).then_some((nonce, due_us))
}

/// Per-node state of the benchmark application.
#[derive(Debug, Default)]
pub struct BenchApp {
    seed: u64,
    request_len: usize,
    /// nonce → (WCL message id, digest of the request sent).
    inflight: HashMap<u64, (u64, u64)>,
    /// Nonces already delivered here (WCL retries re-deliver).
    seen: HashSet<u64>,
    /// The partner pinned into the PCP (`chat`).
    pub partner: Option<NodeId>,
    /// Tracked requests this node sent.
    pub sent: u64,
    /// Requests whose verified reply came back.
    pub answered: u64,
    /// Distinct requests that arrived here.
    pub received: u64,
    /// Requests whose bytes differed from the generated content.
    pub bad_requests: u64,
    /// Replies whose digest differed from the request sent.
    pub bad_replies: u64,
    /// One-way latency of each distinct request that arrived, µs of
    /// simulated time from its due instant. On the `gossip` workload the
    /// probe stores the round trip of each completed gossip exchange the
    /// node initiated here instead.
    pub latencies_us: Vec<u64>,
}

impl BenchApp {
    /// A fresh app that sends and verifies `request_len`-byte requests
    /// generated from `seed`.
    pub fn new(seed: u64, request_len: usize) -> Self {
        BenchApp {
            seed,
            request_len,
            ..BenchApp::default()
        }
    }

    /// Sends request `nonce` (due now) to `to` over a tracked WCL send.
    /// Returns `false` when the stack refused it (no route).
    pub fn request(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        group: GroupId,
        to: NodeId,
        nonce: u64,
    ) -> bool {
        let data = request_bytes(self.seed, nonce, ctx.now().as_micros(), self.request_len);
        let sum = digest(&data);
        match api.send_private_tracked(ctx, group, to, data, true) {
            Some(msg_id) => {
                self.inflight.insert(nonce, (msg_id, sum));
                self.sent += 1;
                true
            }
            None => false,
        }
    }
}

impl GroupApp for BenchApp {
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        group: GroupId,
        _from: NodeId,
        data: &[u8],
        reply_entry: Option<PrivateEntry>,
    ) {
        match data.first() {
            Some(b'Q') => {
                let Some((nonce, due_us)) = verify_request(self.seed, self.request_len, data)
                else {
                    self.bad_requests += 1;
                    return;
                };
                if self.seen.insert(nonce) {
                    self.received += 1;
                    self.latencies_us
                        .push(ctx.now().as_micros().saturating_sub(due_us));
                }
                // Every copy is answered: the requester acks at most once.
                if let Some(entry) = reply_entry {
                    let mut reply = Vec::with_capacity(17);
                    reply.push(b'R');
                    reply.extend_from_slice(&nonce.to_le_bytes());
                    reply.extend_from_slice(&digest(data).to_le_bytes());
                    api.send_private_to_entry(ctx, group, &entry, reply, false);
                }
            }
            Some(b'R') if data.len() == 17 => {
                let nonce = u64::from_le_bytes(data[1..9].try_into().expect("8 bytes"));
                let sum = u64::from_le_bytes(data[9..17].try_into().expect("8 bytes"));
                if let Some(&(msg_id, expected)) = self.inflight.get(&nonce) {
                    if sum == expected {
                        self.inflight.remove(&nonce);
                        api.wcl.notify_response(ctx, msg_id);
                        self.answered += 1;
                    } else {
                        self.bad_replies += 1;
                    }
                }
            }
            _ => self.bad_replies += 1,
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_and_detects_any_flipped_byte() {
        let req = request_bytes(7, 42, 1_000, 1024);
        assert_eq!(req.len(), 1024);
        assert_eq!(verify_request(7, 1024, &req), Some((42, 1_000)));
        for i in 0..req.len() {
            let mut bad = req.clone();
            bad[i] ^= 0x01;
            assert_ne!(
                verify_request(7, 1024, &bad),
                Some((42, 1_000)),
                "flip at byte {i}"
            );
        }
        assert_eq!(
            verify_request(8, 1024, &req),
            None,
            "content depends on the seed"
        );
        assert_eq!(
            verify_request(7, 1024, &req[..1000]),
            None,
            "truncation is caught"
        );
        let mut long = req.clone();
        long.push(0);
        assert_eq!(verify_request(7, 1024, &long), None, "extension is caught");
    }

    #[test]
    fn content_depends_on_nonce() {
        assert_ne!(
            request_bytes(7, 1, 0, 64)[17..],
            request_bytes(7, 2, 0, 64)[17..]
        );
        assert_ne!(
            digest(&request_bytes(7, 1, 0, 64)),
            digest(&request_bytes(7, 2, 0, 64))
        );
    }
}
