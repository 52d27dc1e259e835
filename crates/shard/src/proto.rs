//! Message layer of the shard wire protocol: typed messages encoded into the payloads
//! that [`crate::frame`] moves across the pipe.
//!
//! Every payload is `[type: u8][body]`; body layouts are fixed-position little-endian
//! fields (no self-describing container — the protocol version in the handshake is what
//! licenses both sides to assume the layout). The canonical byte-level reference is
//! `docs/PROTOCOL.md`; `tests/protocol_doc.rs` asserts that document and these constants
//! cannot drift apart.
//!
//! Delivery guarantees are asymmetric by design and documented per message type in
//! PROTOCOL.md: jobs are **at-least-once** (a dead shard's unacknowledged jobs are
//! redispatched), results are **at-most-once-accepted** (the coordinator drops duplicate
//! results for a job it has already marked done — "first ack wins").

use crate::frame::MAX_FRAME_LEN;
use rws_exec::AlgoOutput;
use std::fmt;

/// Magic bytes opening every [`Message::Hello`]: `*b"RWSS"` ("randomized work stealing,
/// sharded"). A worker handed a stream that does not start with these bytes is talking to
/// the wrong program and must refuse the handshake.
pub const MAGIC: [u8; 4] = *b"RWSS";

/// Protocol version carried in the handshake. Bumped on any change to message layouts;
/// both sides refuse to proceed on a mismatch (there is no negotiation — coordinator and
/// worker ship in one binary's workspace, so a mismatch means a stale binary on disk).
pub const VERSION: u16 = 1;

/// The message type byte: first byte of every frame payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Coordinator → worker: handshake open (magic, version, shard id, thread count).
    Hello = 0x01,
    /// Worker → coordinator: handshake accept (version, shard id echo).
    HelloAck = 0x02,
    /// Coordinator → worker: run one part of a workload, described by spec.
    Job = 0x03,
    /// Worker → coordinator: a part's output plus the native pool's stats for the run.
    JobResult = 0x04,
    /// Worker → coordinator: periodic liveness + queue depth.
    Heartbeat = 0x05,
    /// Coordinator → worker: no more jobs; drain and exit cleanly.
    Shutdown = 0x06,
    /// Worker → coordinator: final frame before a clean exit.
    Bye = 0x07,
    /// Worker → coordinator: the job (or handshake) failed; body carries the reason.
    Error = 0x08,
}

impl MsgType {
    /// All message types, in type-byte order (used by the doc-agreement test).
    pub const ALL: [MsgType; 8] = [
        MsgType::Hello,
        MsgType::HelloAck,
        MsgType::Job,
        MsgType::JobResult,
        MsgType::Heartbeat,
        MsgType::Shutdown,
        MsgType::Bye,
        MsgType::Error,
    ];

    /// Parse a type byte.
    pub fn from_byte(b: u8) -> Option<MsgType> {
        Some(match b {
            0x01 => MsgType::Hello,
            0x02 => MsgType::HelloAck,
            0x03 => MsgType::Job,
            0x04 => MsgType::JobResult,
            0x05 => MsgType::Heartbeat,
            0x06 => MsgType::Shutdown,
            0x07 => MsgType::Bye,
            0x08 => MsgType::Error,
            _ => return None,
        })
    }
}

/// A job dispatched to a shard: the spec from which the worker rebuilds the workload
/// (deterministic demo constructors — see `rws_exec::workloads::by_name`) plus which
/// contiguous part of the output this shard owns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Coordinator-assigned id, echoed in the result; unique per `execute()` call.
    pub job_id: u64,
    /// Zero-based index of the part this job computes.
    pub part: u32,
    /// Total number of parts the workload was split into.
    pub parts: u32,
    /// The workload's problem size (`ShardSpec::n`).
    pub n: u64,
    /// The workload's sequential-base granularity (`ShardSpec::base`).
    pub base: u64,
    /// The workload kind name (`ShardSpec::kind`, e.g. `"matmul"`).
    pub kind: String,
}

/// The native-pool statistics a worker measured while running one part.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartStats {
    /// Successful steals during the part (pool snapshot delta).
    pub steals: u64,
    /// Failed steal attempts during the part.
    pub failed_steals: u64,
    /// Jobs the worker's pool executed for the part.
    pub work_items: u64,
    /// Wall-clock nanoseconds the part took inside the worker.
    pub wall_ns: u64,
}

/// A decoded protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// See [`MsgType::Hello`].
    Hello {
        /// Protocol version the coordinator speaks ([`VERSION`]).
        version: u16,
        /// The shard id this worker is being assigned.
        shard: u16,
        /// Worker threads the shard's native pool should run.
        threads: u32,
    },
    /// See [`MsgType::HelloAck`].
    HelloAck {
        /// Protocol version the worker speaks.
        version: u16,
        /// Echo of the assigned shard id.
        shard: u16,
    },
    /// See [`MsgType::Job`].
    Job(JobSpec),
    /// See [`MsgType::JobResult`].
    JobResult {
        /// The job this result answers.
        job_id: u64,
        /// The part's computed output slice.
        output: AlgoOutput,
        /// Pool statistics for the part.
        stats: PartStats,
    },
    /// See [`MsgType::Heartbeat`].
    Heartbeat {
        /// Jobs received but not yet completed on the worker.
        queue_depth: u32,
        /// Total results the worker has produced so far.
        jobs_done: u64,
    },
    /// See [`MsgType::Shutdown`].
    Shutdown,
    /// See [`MsgType::Bye`].
    Bye,
    /// See [`MsgType::Error`].
    Error {
        /// The failing job, or 0 for pre-job failures (handshake refusal).
        job_id: u64,
        /// Human-readable reason, surfaced in the coordinator's diagnostics.
        message: String,
    },
}

/// Why a payload could not be decoded into a [`Message`].
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload was empty — no type byte.
    Empty,
    /// The type byte is not a known [`MsgType`].
    UnknownType(u8),
    /// A Hello's magic bytes were wrong (the peer is not speaking this protocol).
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Version found in the handshake message.
        got: u16,
        /// Version this binary speaks ([`VERSION`]).
        want: u16,
    },
    /// The body ended before a fixed-position field was complete.
    Truncated,
    /// Bytes remained after the last field of the message.
    Trailing {
        /// How many unconsumed bytes followed the message.
        extra: usize,
    },
    /// A JobResult's output tag byte was not a known [`AlgoOutput`] variant.
    BadOutputTag(u8),
    /// A declared string or element count exceeds the frame cap (corrupt length field).
    ImplausibleLength(u64),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Empty => write!(f, "empty payload"),
            DecodeError::UnknownType(b) => write!(f, "unknown message type byte {b:#04x}"),
            DecodeError::BadMagic(m) => write!(f, "bad handshake magic {m:02x?}"),
            DecodeError::VersionMismatch { got, want } => {
                write!(f, "protocol version mismatch: peer speaks v{got}, this binary v{want}")
            }
            DecodeError::Truncated => write!(f, "message body truncated"),
            DecodeError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after message body")
            }
            DecodeError::BadOutputTag(b) => write!(f, "unknown output tag {b:#04x}"),
            DecodeError::ImplausibleLength(n) => {
                write!(f, "declared length {n} exceeds the frame cap")
            }
            DecodeError::BadUtf8 => write!(f, "string field is not valid utf-8"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ------------------------------------------------------------------------------------------
// Encoding
// ------------------------------------------------------------------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

impl Message {
    /// This message's type byte.
    pub fn msg_type(&self) -> MsgType {
        match self {
            Message::Hello { .. } => MsgType::Hello,
            Message::HelloAck { .. } => MsgType::HelloAck,
            Message::Job(_) => MsgType::Job,
            Message::JobResult { .. } => MsgType::JobResult,
            Message::Heartbeat { .. } => MsgType::Heartbeat,
            Message::Shutdown => MsgType::Shutdown,
            Message::Bye => MsgType::Bye,
            Message::Error { .. } => MsgType::Error,
        }
    }

    /// Encode into a frame payload (`[type][body]`, ready for [`crate::frame::write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![self.msg_type() as u8];
        match self {
            Message::Hello { version, shard, threads } => {
                buf.extend_from_slice(&MAGIC);
                buf.extend_from_slice(&version.to_le_bytes());
                buf.extend_from_slice(&shard.to_le_bytes());
                buf.extend_from_slice(&threads.to_le_bytes());
            }
            Message::HelloAck { version, shard } => {
                buf.extend_from_slice(&version.to_le_bytes());
                buf.extend_from_slice(&shard.to_le_bytes());
            }
            Message::Job(job) => {
                buf.extend_from_slice(&job.job_id.to_le_bytes());
                buf.extend_from_slice(&job.part.to_le_bytes());
                buf.extend_from_slice(&job.parts.to_le_bytes());
                buf.extend_from_slice(&job.n.to_le_bytes());
                buf.extend_from_slice(&job.base.to_le_bytes());
                put_str(&mut buf, &job.kind);
            }
            Message::JobResult { job_id, output, stats } => {
                buf.extend_from_slice(&job_id.to_le_bytes());
                encode_output(&mut buf, output);
                buf.extend_from_slice(&stats.steals.to_le_bytes());
                buf.extend_from_slice(&stats.failed_steals.to_le_bytes());
                buf.extend_from_slice(&stats.work_items.to_le_bytes());
                buf.extend_from_slice(&stats.wall_ns.to_le_bytes());
            }
            Message::Heartbeat { queue_depth, jobs_done } => {
                buf.extend_from_slice(&queue_depth.to_le_bytes());
                buf.extend_from_slice(&jobs_done.to_le_bytes());
            }
            Message::Shutdown | Message::Bye => {}
            Message::Error { job_id, message } => {
                buf.extend_from_slice(&job_id.to_le_bytes());
                put_str(&mut buf, message);
            }
        }
        buf
    }

    /// Decode a frame payload. Rejects unknown types, short bodies, trailing bytes, and —
    /// for handshake messages — wrong magic or version, each with a distinct
    /// [`DecodeError`].
    pub fn decode(payload: &[u8]) -> Result<Message, DecodeError> {
        let (&type_byte, body) = payload.split_first().ok_or(DecodeError::Empty)?;
        let ty = MsgType::from_byte(type_byte).ok_or(DecodeError::UnknownType(type_byte))?;
        let mut r = Reader { body, pos: 0 };
        let msg = match ty {
            MsgType::Hello => {
                let magic = r.bytes4()?;
                if magic != MAGIC {
                    return Err(DecodeError::BadMagic(magic));
                }
                let version = r.u16()?;
                if version != VERSION {
                    return Err(DecodeError::VersionMismatch { got: version, want: VERSION });
                }
                Message::Hello { version, shard: r.u16()?, threads: r.u32()? }
            }
            MsgType::HelloAck => {
                let version = r.u16()?;
                if version != VERSION {
                    return Err(DecodeError::VersionMismatch { got: version, want: VERSION });
                }
                Message::HelloAck { version, shard: r.u16()? }
            }
            MsgType::Job => Message::Job(JobSpec {
                job_id: r.u64()?,
                part: r.u32()?,
                parts: r.u32()?,
                n: r.u64()?,
                base: r.u64()?,
                kind: r.string()?,
            }),
            MsgType::JobResult => {
                let job_id = r.u64()?;
                let output = decode_output(&mut r)?;
                let stats = PartStats {
                    steals: r.u64()?,
                    failed_steals: r.u64()?,
                    work_items: r.u64()?,
                    wall_ns: r.u64()?,
                };
                Message::JobResult { job_id, output, stats }
            }
            MsgType::Heartbeat => Message::Heartbeat { queue_depth: r.u32()?, jobs_done: r.u64()? },
            MsgType::Shutdown => Message::Shutdown,
            MsgType::Bye => Message::Bye,
            MsgType::Error => Message::Error { job_id: r.u64()?, message: r.string()? },
        };
        let extra = r.remaining();
        if extra != 0 {
            return Err(DecodeError::Trailing { extra });
        }
        Ok(msg)
    }
}

/// Output tag byte for [`AlgoOutput::I64`] in a JobResult body.
pub const OUTPUT_TAG_I64: u8 = 1;
/// Output tag byte for [`AlgoOutput::U64`] in a JobResult body.
pub const OUTPUT_TAG_U64: u8 = 2;
/// Output tag byte for [`AlgoOutput::F64`] in a JobResult body.
pub const OUTPUT_TAG_F64: u8 = 3;

fn encode_output(buf: &mut Vec<u8>, output: &AlgoOutput) {
    match output {
        AlgoOutput::I64(v) => {
            buf.push(OUTPUT_TAG_I64);
            buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
            for x in v {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        AlgoOutput::U64(v) => {
            buf.push(OUTPUT_TAG_U64);
            buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
            for x in v {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        AlgoOutput::F64(v) => {
            buf.push(OUTPUT_TAG_F64);
            buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
            // Bit-exact transport: f64 crosses the pipe as to_bits(), so the coordinator
            // reassembles exactly the bytes the worker computed (NaNs included).
            for x in v {
                buf.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
    }
}

fn decode_output(r: &mut Reader<'_>) -> Result<AlgoOutput, DecodeError> {
    let tag = r.u8()?;
    let count = r.u64()?;
    if count.saturating_mul(8) > MAX_FRAME_LEN as u64 {
        return Err(DecodeError::ImplausibleLength(count));
    }
    let count = count as usize;
    Ok(match tag {
        OUTPUT_TAG_I64 => {
            let mut v = Vec::with_capacity(count);
            for _ in 0..count {
                v.push(i64::from_le_bytes(r.bytes8()?));
            }
            AlgoOutput::I64(v)
        }
        OUTPUT_TAG_U64 => {
            let mut v = Vec::with_capacity(count);
            for _ in 0..count {
                v.push(u64::from_le_bytes(r.bytes8()?));
            }
            AlgoOutput::U64(v)
        }
        OUTPUT_TAG_F64 => {
            let mut v = Vec::with_capacity(count);
            for _ in 0..count {
                v.push(f64::from_bits(u64::from_le_bytes(r.bytes8()?)));
            }
            AlgoOutput::F64(v)
        }
        other => return Err(DecodeError::BadOutputTag(other)),
    })
}

// ------------------------------------------------------------------------------------------
// Body reader
// ------------------------------------------------------------------------------------------

struct Reader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.body.len() {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.body[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes4(&mut self) -> Result<[u8; 4], DecodeError> {
        Ok(self.take(4)?.try_into().unwrap())
    }

    fn bytes8(&mut self) -> Result<[u8; 8], DecodeError> {
        Ok(self.take(8)?.try_into().unwrap())
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as u64;
        if len > MAX_FRAME_LEN as u64 {
            return Err(DecodeError::ImplausibleLength(len));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Message> {
        vec![
            Message::Hello { version: VERSION, shard: 3, threads: 2 },
            Message::HelloAck { version: VERSION, shard: 3 },
            Message::Job(JobSpec {
                job_id: 42,
                part: 1,
                parts: 4,
                n: 4096,
                base: 64,
                kind: "matmul".into(),
            }),
            Message::JobResult {
                job_id: 42,
                output: AlgoOutput::F64(vec![1.5, -0.0, f64::NAN]),
                stats: PartStats { steals: 7, failed_steals: 2, work_items: 19, wall_ns: 12345 },
            },
            Message::JobResult {
                job_id: 1,
                output: AlgoOutput::I64(vec![-5, 0, 5]),
                stats: PartStats::default(),
            },
            Message::JobResult {
                job_id: 2,
                output: AlgoOutput::U64(vec![]),
                stats: PartStats::default(),
            },
            Message::Heartbeat { queue_depth: 3, jobs_done: 11 },
            Message::Shutdown,
            Message::Bye,
            Message::Error { job_id: 9, message: "unknown workload kind \"bogus\"".into() },
        ]
    }

    fn bitwise_eq(a: &Message, b: &Message) -> bool {
        // NaN != NaN under PartialEq, but transport must be bit-exact; compare encodings.
        a.encode() == b.encode()
    }

    #[test]
    fn every_message_round_trips_bit_exactly() {
        for msg in samples() {
            let decoded = Message::decode(&msg.encode()).unwrap();
            assert!(bitwise_eq(&msg, &decoded), "round-trip changed {msg:?}");
            assert_eq!(msg.msg_type(), decoded.msg_type());
        }
    }

    #[test]
    fn every_truncation_of_every_message_is_rejected() {
        for msg in samples() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                let err = Message::decode(&bytes[..cut])
                    .expect_err(&format!("{:?} truncated to {cut} bytes decoded", msg.msg_type()));
                assert!(
                    matches!(err, DecodeError::Empty | DecodeError::Truncated),
                    "unexpected error {err:?} at cut {cut} of {:?}",
                    msg.msg_type()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for msg in samples() {
            let mut bytes = msg.encode();
            bytes.push(0xAB);
            assert_eq!(Message::decode(&bytes), Err(DecodeError::Trailing { extra: 1 }));
        }
    }

    #[test]
    fn version_and_magic_mismatches_are_refused() {
        let mut hello = Message::Hello { version: VERSION, shard: 0, threads: 1 }.encode();
        hello[1] = b'X'; // corrupt the magic
        assert!(matches!(Message::decode(&hello), Err(DecodeError::BadMagic(_))));

        let mut hello = Message::Hello { version: VERSION, shard: 0, threads: 1 }.encode();
        hello[5] = VERSION as u8 + 1; // bump the version field (offset: type + magic)
        assert_eq!(
            Message::decode(&hello),
            Err(DecodeError::VersionMismatch { got: VERSION + 1, want: VERSION })
        );

        let mut ack = Message::HelloAck { version: VERSION, shard: 0 }.encode();
        ack[1] = VERSION as u8 + 1;
        assert!(matches!(Message::decode(&ack), Err(DecodeError::VersionMismatch { .. })));
    }

    #[test]
    fn unknown_types_and_bad_tags_are_structured_errors() {
        assert_eq!(Message::decode(&[]), Err(DecodeError::Empty));
        assert_eq!(Message::decode(&[0x7F]), Err(DecodeError::UnknownType(0x7F)));

        let mut result = Message::JobResult {
            job_id: 1,
            output: AlgoOutput::I64(vec![1]),
            stats: PartStats::default(),
        }
        .encode();
        result[9] = 0x66; // the output tag byte (type + job_id)
        assert_eq!(Message::decode(&result), Err(DecodeError::BadOutputTag(0x66)));
    }

    #[test]
    fn implausible_counts_fail_before_allocation() {
        let mut bytes = vec![MsgType::JobResult as u8];
        bytes.extend_from_slice(&1u64.to_le_bytes()); // job_id
        bytes.push(OUTPUT_TAG_I64);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd element count
        assert_eq!(Message::decode(&bytes), Err(DecodeError::ImplausibleLength(u64::MAX)));
    }
}
