//! The host's speed, measured on a fixed reference loop.
//!
//! The benchmark was sized on a shared 2-CPU host whose speed swings by up
//! to a third on identical work, in phases of seconds to minutes: other
//! tenants' load slows every instruction stream on it, and CPU time slows
//! with wall time. Raw host seconds from two runs therefore compare the
//! host's phases as much as the code. Host-side times are reported in
//! *reference seconds* instead: each interval is scaled by
//! ([`REF_CHUNK_NS`] ÷ the time of a reference loop run right after it)
//! to the power [`SENSITIVITY`], so a slow phase stretches both and
//! cancels out. On a host that runs the loop in [`REF_CHUNK_NS`], a
//! reference second is a wall second.
//!
//! The loop is the benchmark's own code and calls nothing in the crates,
//! so a change to the stack moves the times it scales in full.

use std::time::Instant;

/// Nanoseconds one chunk of the reference loop takes on the 2-CPU Xeon
/// host in its fast phase.
pub const REF_CHUNK_NS: f64 = 420_000.0;

/// How much more the stack slows than the reference loop when the host
/// does: across the rounds of eighteen runs on the 2-CPU Xeon host, the
/// log of a round's window time rose 1.5 to 1.7 times as fast as the log
/// of the loop's time (1.54 on `gossip`, 1.55 on `chat`, 1.72 on
/// `fanout`; correlation 0.91). The loop sits in L1; the stack also loses cache to
/// the host's other load.
pub const SENSITIVITY: f64 = 1.5;

/// Chunks per measurement; the fastest counts, so an interrupt inside one
/// chunk does not read as a slow host.
const CHUNKS: usize = 4;

/// Words of the loop's table: 16 KiB, resident in L1.
const TABLE: usize = 4096;

/// The reference loop and its table.
pub struct Speed {
    table: Vec<u32>,
}

impl Speed {
    /// A fresh table.
    pub fn new() -> Speed {
        Speed {
            table: vec![1; TABLE],
        }
    }

    /// One chunk: integer hashing with a data-dependent branch and table
    /// reads, a mix like the stack's own callbacks.
    fn chunk(&mut self) {
        let t = &mut self.table;
        let mut h: u32 = 0x811C_9DC5;
        for round in 0..16 {
            for i in 0..TABLE {
                h = (h ^ t[i]).wrapping_mul(0x0100_0193);
                if h & 4 == 0 {
                    h = h.rotate_left(5) ^ round;
                } else {
                    h = h.wrapping_add(t[(i * 31) % TABLE]);
                }
                t[i] = h;
            }
        }
        std::hint::black_box(&self.table);
    }

    /// The factor that turns host seconds measured just before the call
    /// into reference seconds.
    pub fn factor(&mut self) -> f64 {
        let fastest = (0..CHUNKS)
            .map(|_| {
                let t = Instant::now();
                self.chunk();
                t.elapsed().as_nanos()
            })
            .min()
            .expect("at least one chunk");
        (REF_CHUNK_NS / fastest.max(1) as f64).powf(SENSITIVITY)
    }
}
