//! Wire protocol of the distributed sweep: length-prefixed, checksummed
//! frames over a local stream socket.
//!
//! # Framing
//!
//! Every message is one frame:
//!
//! ```text
//! +----------------+----------------------+------------------+
//! | len: u32 LE    | checksum: u64 LE     | payload: len B   |
//! +----------------+----------------------+------------------+
//! ```
//!
//! `len` counts payload bytes only and is bounded by [`MAX_FRAME`] so a
//! garbled length cannot drive an absurd allocation. `checksum` is FNV-1a
//! (64-bit) over the payload; a mismatch means the frame was corrupted in
//! flight (or deliberately garbled by the fault injector) and surfaces as
//! [`ProtoError::Corrupt`] — the coordinator treats a corrupting connection
//! as a dead worker and re-issues its leases, never trusting partial bytes.
//!
//! # Payload encoding
//!
//! The payload is a tag byte followed by the message fields in the manual
//! little-endian encoding of the artifact codec: `u32`/`u64` LE, `f64` as
//! raw IEEE bits (bit-identity survives the wire by construction), strings
//! and byte blobs length-prefixed. Decoding is bounds-checked everywhere;
//! malformed input yields a typed error, never a panic or partial state.
//!
//! # Messages
//!
//! * [`Msg::Hello`] — worker → coordinator, once per connection: identifies
//!   the worker slot (assigned by the spawner) and its pid.
//! * [`Msg::Job`] — coordinator → worker: the model family + scale to
//!   rebuild from the registry, the serialized artifact (compiled once by
//!   the coordinator), per-worker execution knobs, and the worker's slice
//!   of the fault plan.
//! * [`Msg::Lease`] — coordinator → worker: run trials
//!   `[start, start + count)` of the global trial space under `epoch`.
//! * [`Msg::LeaseResult`] — worker → coordinator: the lease's per-trial
//!   outputs/passes plus its [`distill::ShardStats`]. Results whose epoch
//!   does not match the lease's current epoch are *fenced* (dropped) by the
//!   coordinator: a lease that timed out and was re-issued bumps the epoch,
//!   so a straggler's late answer can never race the re-issue.
//! * [`Msg::Heartbeat`] — worker → coordinator liveness signal.
//! * [`Msg::Shutdown`] — coordinator → worker: drain and exit.

use distill::{EngineStats, ShardStats};
use std::io::{self, Read, Write};

/// Upper bound on a frame's payload size (64 MiB): large enough for any
/// realistic lease result, small enough that a corrupt length prefix cannot
/// ask for an absurd allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Interval at which a healthy worker emits [`Msg::Heartbeat`].
pub const HEARTBEAT_INTERVAL_MS: u64 = 25;

/// Errors of the framed protocol.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer closed the stream at a frame boundary (normal for a worker
    /// that exited).
    Eof,
    /// The frame or payload failed validation (bad checksum, oversized
    /// length, truncated payload, unknown tag, …).
    Corrupt(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "socket error: {e}"),
            ProtoError::Eof => write!(f, "peer closed the stream"),
            ProtoError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// FNV-1a over `bytes` — the frame checksum. Not cryptographic; it detects
/// accidental corruption and the fault injector's deliberate garbling.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// The work order a worker receives once per connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Registry key of the model family; the worker rebuilds the model and
    /// its trial inputs deterministically from the registry rather than
    /// shipping the composition over the wire.
    pub family: String,
    /// Whether to build the paper-scale (`true`) or reduced workload.
    pub scale_full: bool,
    /// Trials per compiled batch for lease execution.
    pub batch: u64,
    /// Worker-local shard threads per lease.
    pub threads: u64,
    /// The serialized compiled artifact ([`distill::serialize_artifact`]),
    /// produced once by the coordinator and deserialized by every worker —
    /// workers never compile.
    pub artifact: Vec<u8>,
    /// This worker's slice of the fault plan (inert in production).
    pub faults: WorkerFaults,
}

/// A completed lease's payload.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseResult {
    /// First absolute trial index of the lease.
    pub start: u64,
    /// Trials the lease covered.
    pub count: u64,
    /// Epoch the lease was issued under; the coordinator fences results
    /// whose epoch is stale.
    pub epoch: u32,
    /// Per-trial outputs, bit-exact (shipped as raw IEEE bits).
    pub outputs: Vec<Vec<f64>>,
    /// Per-trial scheduler pass counts.
    pub passes: Vec<u64>,
    /// Shard statistics of the lease's local run.
    pub shards: ShardStats,
}

/// A protocol message. See the module docs for the conversation flow.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker → coordinator: identify this connection.
    Hello {
        /// Worker slot assigned by the spawner.
        worker: u32,
        /// Worker process id (coordinator logs / diagnostics).
        pid: u64,
    },
    /// Coordinator → worker: the job description.
    Job(Job),
    /// Coordinator → worker: run `[start, start + count)` under `epoch`.
    Lease {
        /// First absolute trial index.
        start: u64,
        /// Trial count.
        count: u64,
        /// Issue epoch (fencing token).
        epoch: u32,
    },
    /// Worker → coordinator: a completed lease.
    LeaseResult(LeaseResult),
    /// Worker → coordinator: liveness.
    Heartbeat {
        /// Worker slot.
        worker: u32,
    },
    /// Coordinator → worker: drain and exit.
    Shutdown,
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// One worker's slice of a [`FaultPlan`]. All fields count *completed
/// leases* on that worker; `u64::MAX`-as-`None` is encoded explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkerFaults {
    /// Die (process exit / connection drop) after completing this many
    /// leases.
    pub kill_after: Option<u64>,
    /// Compute but never send the result of the lease at this index, once.
    pub drop_after: Option<u64>,
    /// Garble the frame of the result at this index (checksum mismatch at
    /// the receiver), once.
    pub garble_after: Option<u64>,
    /// Extra delay added to every heartbeat, to drive the staleness path.
    pub heartbeat_delay_ms: u64,
}

impl WorkerFaults {
    /// Whether this slice injects nothing.
    pub fn is_inert(&self) -> bool {
        *self == WorkerFaults::default()
    }
}

/// The dsweep fault schedule is the unified chaos plan from
/// [`distill::chaos`]: the dsweep fields (`kill`, `drop`, `garble`,
/// `heartbeat_delay_ms`, `seed`) are consumed here, sliced per worker by
/// [`worker_faults`]; the rest of the plan (trial panics, build panics,
/// read corruption, delays) drives the process-global chaos hooks. The
/// old `FaultPlan` name remains the public surface of this crate.
pub use distill::chaos::ChaosPlan as FaultPlan;

/// Slice `plan` down to the faults worker `worker` must self-inject.
pub fn worker_faults(plan: &FaultPlan, worker: u32) -> WorkerFaults {
    let pick = |f: Option<(u32, u64)>| f.filter(|(w, _)| *w == worker).map(|(_, k)| k);
    WorkerFaults {
        kill_after: pick(plan.kill),
        drop_after: pick(plan.drop),
        garble_after: pick(plan.garble),
        heartbeat_delay_ms: plan.heartbeat_delay_ms,
    }
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

const TAG_HELLO: u8 = 1;
const TAG_JOB: u8 = 2;
const TAG_LEASE: u8 = 3;
const TAG_LEASE_RESULT: u8 = 4;
const TAG_HEARTBEAT: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;

#[derive(Default)]
struct Enc {
    bytes: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(n) => {
                self.u8(1);
                self.u64(n);
            }
            None => self.u8(0),
        }
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes.extend_from_slice(s.as_bytes());
    }
    fn blob(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.bytes.extend_from_slice(b);
    }
    fn stats(&mut self, s: &EngineStats) {
        self.u64(s.instructions);
        self.u64(s.calls);
        self.u64(s.loads);
        self.u64(s.stores);
        self.u64(s.frame_pool_hits);
        self.u64(s.steals);
        self.u64(s.fused_ops);
        self.u64(s.frame_slots);
    }
    fn shards(&mut self, s: &ShardStats) {
        self.u64(s.threads as u64);
        self.u64(s.chunks as u64);
        self.u64(s.batch as u64);
        self.u64(s.steals);
        self.stats(&s.stats);
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.pos + n > self.bytes.len() {
            return Err(ProtoError::Corrupt(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, ProtoError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(ProtoError::Corrupt(format!("bad option tag {t}"))),
        }
    }
    /// A length that must still be representable in the remaining payload
    /// (each element needs at least one byte), so a garbled count cannot
    /// drive an absurd reservation.
    fn len(&mut self, per_item: usize) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(per_item.max(1)) > remaining {
            return Err(ProtoError::Corrupt(format!(
                "implausible element count {n} with {remaining} bytes left"
            )));
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, ProtoError> {
        let n = self.len(1)?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| ProtoError::Corrupt("string is not UTF-8".into()))
    }
    fn blob(&mut self) -> Result<Vec<u8>, ProtoError> {
        let n = self.len(1)?;
        Ok(self.take(n)?.to_vec())
    }
    fn stats(&mut self) -> Result<EngineStats, ProtoError> {
        Ok(EngineStats {
            instructions: self.u64()?,
            calls: self.u64()?,
            loads: self.u64()?,
            stores: self.u64()?,
            frame_pool_hits: self.u64()?,
            steals: self.u64()?,
            fused_ops: self.u64()?,
            frame_slots: self.u64()?,
        })
    }
    fn shards(&mut self) -> Result<ShardStats, ProtoError> {
        Ok(ShardStats {
            threads: self.u64()? as usize,
            chunks: self.u64()? as usize,
            batch: self.u64()? as usize,
            steals: self.u64()?,
            stats: self.stats()?,
        })
    }
    fn done(&self) -> Result<(), ProtoError> {
        if self.pos != self.bytes.len() {
            return Err(ProtoError::Corrupt(format!(
                "{} trailing bytes after message",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Encode a message's payload (tag + fields, no frame header).
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    let mut e = Enc::default();
    match msg {
        Msg::Hello { worker, pid } => {
            e.u8(TAG_HELLO);
            e.u32(*worker);
            e.u64(*pid);
        }
        Msg::Job(job) => {
            e.u8(TAG_JOB);
            e.str(&job.family);
            e.u8(job.scale_full as u8);
            e.u64(job.batch);
            e.u64(job.threads);
            e.blob(&job.artifact);
            e.opt_u64(job.faults.kill_after);
            e.opt_u64(job.faults.drop_after);
            e.opt_u64(job.faults.garble_after);
            e.u64(job.faults.heartbeat_delay_ms);
        }
        Msg::Lease {
            start,
            count,
            epoch,
        } => {
            e.u8(TAG_LEASE);
            e.u64(*start);
            e.u64(*count);
            e.u32(*epoch);
        }
        Msg::LeaseResult(r) => {
            e.u8(TAG_LEASE_RESULT);
            e.u64(r.start);
            e.u64(r.count);
            e.u32(r.epoch);
            e.u32(r.outputs.len() as u32);
            for out in &r.outputs {
                e.u32(out.len() as u32);
                for &v in out {
                    e.f64(v);
                }
            }
            e.u32(r.passes.len() as u32);
            for &p in &r.passes {
                e.u64(p);
            }
            e.shards(&r.shards);
        }
        Msg::Heartbeat { worker } => {
            e.u8(TAG_HEARTBEAT);
            e.u32(*worker);
        }
        Msg::Shutdown => e.u8(TAG_SHUTDOWN),
    }
    e.bytes
}

/// Decode a message payload (the inverse of [`encode_msg`]).
pub fn decode_msg(payload: &[u8]) -> Result<Msg, ProtoError> {
    let mut d = Dec {
        bytes: payload,
        pos: 0,
    };
    let msg = match d.u8()? {
        TAG_HELLO => Msg::Hello {
            worker: d.u32()?,
            pid: d.u64()?,
        },
        TAG_JOB => Msg::Job(Job {
            family: d.str()?,
            scale_full: d.u8()? != 0,
            batch: d.u64()?,
            threads: d.u64()?,
            artifact: d.blob()?,
            faults: WorkerFaults {
                kill_after: d.opt_u64()?,
                drop_after: d.opt_u64()?,
                garble_after: d.opt_u64()?,
                heartbeat_delay_ms: d.u64()?,
            },
        }),
        TAG_LEASE => Msg::Lease {
            start: d.u64()?,
            count: d.u64()?,
            epoch: d.u32()?,
        },
        TAG_LEASE_RESULT => {
            let start = d.u64()?;
            let count = d.u64()?;
            let epoch = d.u32()?;
            let n_out = d.len(4)?;
            let mut outputs = Vec::with_capacity(n_out);
            for _ in 0..n_out {
                let n = d.len(8)?;
                let mut row = Vec::with_capacity(n);
                for _ in 0..n {
                    row.push(d.f64()?);
                }
                outputs.push(row);
            }
            let n_passes = d.len(8)?;
            let mut passes = Vec::with_capacity(n_passes);
            for _ in 0..n_passes {
                passes.push(d.u64()?);
            }
            Msg::LeaseResult(LeaseResult {
                start,
                count,
                epoch,
                outputs,
                passes,
                shards: d.shards()?,
            })
        }
        TAG_HEARTBEAT => Msg::Heartbeat { worker: d.u32()? },
        TAG_SHUTDOWN => Msg::Shutdown,
        t => return Err(ProtoError::Corrupt(format!("unknown message tag {t}"))),
    };
    d.done()?;
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one framed message. The frame is assembled in memory and written
/// with a single `write_all`, so concurrent writers serialized by a mutex
/// can never interleave partial frames.
pub fn write_msg(w: &mut impl Write, msg: &Msg) -> Result<(), ProtoError> {
    write_frame(w, &encode_msg(msg), false)
}

/// Write one framed message with the payload deliberately garbled *after*
/// the checksum was computed — the fault injector's frame-corruption path.
/// The receiver must detect it as [`ProtoError::Corrupt`].
pub fn write_msg_garbled(w: &mut impl Write, msg: &Msg) -> Result<(), ProtoError> {
    write_frame(w, &encode_msg(msg), true)
}

fn write_frame(w: &mut impl Write, payload: &[u8], garble: bool) -> Result<(), ProtoError> {
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    if garble && !payload.is_empty() {
        // Flip a bit mid-payload; the checksum above describes the clean
        // bytes, so the receiver's verification must fail.
        let idx = 12 + payload.len() / 2;
        frame[idx] ^= 0x40;
    }
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one framed message. EOF *at a frame boundary* is [`ProtoError::Eof`]
/// (the peer exited); EOF inside a frame is [`ProtoError::Corrupt`].
pub fn read_msg(r: &mut impl Read) -> Result<Msg, ProtoError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(ProtoError::Eof),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::Corrupt(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte bound"
        )));
    }
    let mut sum_buf = [0u8; 8];
    r.read_exact(&mut sum_buf)
        .map_err(|e| truncated_frame(&e))?;
    let want = u64::from_le_bytes(sum_buf);
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| truncated_frame(&e))?;
    if fnv1a(&payload) != want {
        return Err(ProtoError::Corrupt("frame checksum mismatch".into()));
    }
    decode_msg(&payload)
}

fn truncated_frame(e: &io::Error) -> ProtoError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        ProtoError::Corrupt("stream ended inside a frame".into())
    } else {
        ProtoError::Io(io::Error::new(e.kind(), e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> Msg {
        Msg::LeaseResult(LeaseResult {
            start: 40,
            count: 3,
            epoch: 2,
            outputs: vec![vec![1.5, -0.0, f64::NAN], vec![], vec![42.0]],
            passes: vec![7, 9, 11],
            shards: ShardStats {
                threads: 2,
                chunks: 3,
                batch: 4,
                steals: 1,
                stats: EngineStats {
                    instructions: 1000,
                    calls: 10,
                    loads: 20,
                    stores: 30,
                    frame_pool_hits: 5,
                    steals: 1,
                    fused_ops: 600,
                    frame_slots: 40,
                },
            },
        })
    }

    fn round_trip(msg: &Msg) -> Msg {
        let mut buf = Vec::new();
        write_msg(&mut buf, msg).unwrap();
        read_msg(&mut &buf[..]).unwrap()
    }

    #[test]
    fn every_message_round_trips() {
        let msgs = [
            Msg::Hello { worker: 3, pid: 12345 },
            Msg::Job(Job {
                family: "predator_prey_2".into(),
                scale_full: false,
                batch: 8,
                threads: 2,
                artifact: vec![1, 2, 3, 250],
                faults: WorkerFaults {
                    kill_after: Some(1),
                    drop_after: None,
                    garble_after: Some(0),
                    heartbeat_delay_ms: 50,
                },
            }),
            Msg::Lease {
                start: 128,
                count: 16,
                epoch: 4,
            },
            sample_result(),
            Msg::Heartbeat { worker: 1 },
            Msg::Shutdown,
        ];
        for msg in &msgs {
            // Debug-compare: `sample_result` carries a NaN, which IEEE
            // equality would reject even on a perfect round trip (bit
            // exactness is pinned by `floats_survive_the_wire_bit_exactly`).
            assert_eq!(
                format!("{:?}", round_trip(msg)),
                format!("{msg:?}"),
                "round trip altered the message"
            );
        }
    }

    #[test]
    fn floats_survive_the_wire_bit_exactly() {
        let Msg::LeaseResult(r) = round_trip(&sample_result()) else {
            panic!("wrong decode");
        };
        assert_eq!(r.outputs[0][0].to_bits(), 1.5f64.to_bits());
        assert_eq!(r.outputs[0][1].to_bits(), (-0.0f64).to_bits());
        assert!(r.outputs[0][2].is_nan());
        assert_eq!(r.outputs[0][2].to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn garbled_frames_are_detected() {
        let mut buf = Vec::new();
        write_msg_garbled(&mut buf, &sample_result()).unwrap();
        assert!(matches!(read_msg(&mut &buf[..]), Err(ProtoError::Corrupt(_))));
    }

    #[test]
    fn truncated_and_bit_flipped_frames_never_panic() {
        let mut clean = Vec::new();
        write_msg(&mut clean, &sample_result()).unwrap();
        for cut in 0..clean.len() {
            let r = read_msg(&mut &clean[..cut]);
            assert!(r.is_err(), "truncation at {cut} must not decode");
        }
        for i in (0..clean.len()).step_by(7) {
            let mut bad = clean.clone();
            bad[i] ^= 0x10;
            // Any outcome but a panic or a silently wrong decode is fine;
            // a flip in the length prefix may shift framing, but the
            // checksum guards the payload.
            let _ = read_msg(&mut &bad[..]);
        }
    }

    #[test]
    fn eof_at_boundary_is_distinguished_from_mid_frame() {
        assert!(matches!(read_msg(&mut &[][..]), Err(ProtoError::Eof)));
        let mut buf = Vec::new();
        write_msg(&mut buf, &Msg::Shutdown).unwrap();
        buf.truncate(6);
        assert!(matches!(read_msg(&mut &buf[..]), Err(ProtoError::Corrupt(_))));
    }

    #[test]
    fn fault_plan_parses_and_slices_per_worker() {
        let plan = FaultPlan::parse("kill=1@2, drop=0@1, hbdelay=40, seed=9").unwrap();
        assert_eq!(plan.kill, Some((1, 2)));
        assert_eq!(plan.drop, Some((0, 1)));
        assert_eq!(plan.heartbeat_delay_ms, 40);
        assert_eq!(plan.seed, 9);
        let w1 = worker_faults(&plan, 1);
        assert_eq!(w1.kill_after, Some(2));
        assert_eq!(w1.drop_after, None);
        let w0 = worker_faults(&plan, 0);
        assert_eq!(w0.kill_after, None);
        assert_eq!(w0.drop_after, Some(1));
        assert!(FaultPlan::parse("kill=oops").is_err());
        assert!(FaultPlan::parse("explode=1@1").is_err());
        assert!(FaultPlan::parse("").unwrap().is_inert());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..32u64 {
            let a = FaultPlan::seeded(seed, 4);
            let b = FaultPlan::seeded(seed, 4);
            assert_eq!(a, b);
            let (victim, after) = a.kill.unwrap();
            assert!(victim < 4, "victim {victim} out of range");
            assert_eq!(after, 0, "seeded kills land on the first lease grab");
        }
    }
}
