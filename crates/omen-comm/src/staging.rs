//! Data ingestion: naive parallel-filesystem reads vs chunked broadcast
//! staging (§7.1.1).
//!
//! The simulator's input (CP2K material data, GiBs across multiple files)
//! is needed by every rank. Reading it from the parallel filesystem on
//! every rank contends for PFS bandwidth — over 30 minutes at near-full
//! Piz Daint scale. Staging reads the data once and broadcasts it in
//! chunks, cutting start-up to under a minute.
//!
//! The ingestion time model is `omen_perf::StagingModel`. This module
//! is the *executable* side: a chunked broadcast that ships real
//! serialized material bytes through the simulated MPI, and the
//! checksummed frame protocol built on the same byte packing.

use crate::mpi_sim::Comm;
use omen_linalg::{c64, C64};

/// Packs raw bytes into `C64` payload elements (16 bytes each) for
/// transport through the simulated MPI. Bit-preserving.
fn pack_bytes(data: &[u8]) -> Vec<C64> {
    data.chunks(16)
        .map(|chunk| {
            let mut buf = [0u8; 16];
            buf[..chunk.len()].copy_from_slice(chunk);
            c64(
                f64::from_le_bytes(buf[0..8].try_into().unwrap()),
                f64::from_le_bytes(buf[8..16].try_into().unwrap()),
            )
        })
        .collect()
}

/// Inverse of [`pack_bytes`]; `len` trims the final padding.
fn unpack_bytes(payload: &[C64], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() * 16);
    for z in payload {
        out.extend_from_slice(&z.re.to_le_bytes());
        out.extend_from_slice(&z.im.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Frame decoding failure, distinguishing *how* a frame is bad so the
/// journal/transport layers can react differently (a truncated tail is
/// an interrupted write and expected on crash recovery; a corrupt
/// checksum is data damage worth reporting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The frame ends before the header or the payload the header
    /// promises — an interrupted or partial write.
    Truncated,
    /// The frame carries *more* elements than the header's length field
    /// accounts for — framing desynchronization.
    LengthMismatch,
    /// Header and body lengths agree but the checksum does not — bytes
    /// were damaged in flight or at rest.
    Corrupt,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated before its declared length"),
            FrameError::LengthMismatch => {
                write!(f, "frame length disagrees with its header")
            }
            FrameError::Corrupt => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a over the frame's semantic content: kind, declared length, and
/// payload bytes. Covers the header fields, so a bit-flip that changes
/// the decoded kind or length is caught even when the element counts
/// still line up.
fn frame_checksum(kind: u32, len: u64, payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for b in kind.to_le_bytes() {
        eat(b);
    }
    for b in len.to_le_bytes() {
        eat(b);
    }
    for &b in payload {
        eat(b);
    }
    h
}

/// Encodes a tagged byte message as a self-describing `C64` frame for
/// transport through the simulated MPI (or any `C64` channel): a
/// `(kind, len)` header element, a checksum element, then the packed
/// payload. The 64-bit FNV-1a checksum is split into two u32 halves,
/// each stored exactly as an f64, so the frame stays bit-preserving
/// through any `C64` channel.
///
/// This is the wire format of `omen-serve`'s job/result messages and
/// checkpoint journal — the same bit-preserving packing the staged
/// material broadcast uses.
pub fn encode_frame(kind: u32, payload: &[u8]) -> Vec<C64> {
    let sum = frame_checksum(kind, payload.len() as u64, payload);
    let mut frame = Vec::with_capacity(2 + payload.len().div_ceil(16));
    frame.push(c64(kind as f64, payload.len() as f64));
    frame.push(c64((sum >> 32) as u32 as f64, sum as u32 as f64));
    frame.extend_from_slice(&pack_bytes(payload));
    frame
}

/// Decodes a frame produced by [`encode_frame`], returning the message
/// kind and payload bytes, or a [`FrameError`] naming what is wrong:
/// [`FrameError::Truncated`] when elements are missing,
/// [`FrameError::LengthMismatch`] when there are too many, and
/// [`FrameError::Corrupt`] when the checksum disagrees with the content.
pub fn decode_frame(frame: &[C64]) -> Result<(u32, Vec<u8>), FrameError> {
    if frame.len() < 2 {
        return Err(FrameError::Truncated);
    }
    let header = frame[0];
    let kind = header.re as u32;
    let len = header.im as usize;
    let expected = 2 + len.div_ceil(16);
    if frame.len() < expected {
        return Err(FrameError::Truncated);
    }
    if frame.len() > expected {
        return Err(FrameError::LengthMismatch);
    }
    let stored = ((frame[1].re as u32 as u64) << 32) | frame[1].im as u32 as u64;
    let payload = unpack_bytes(&frame[2..], len);
    if frame_checksum(kind, len as u64, &payload) != stored {
        return Err(FrameError::Corrupt);
    }
    Ok((kind, payload))
}

/// Reliable framed point-to-point send: encodes `(kind, payload)` as a
/// checksummed frame ([`encode_frame`]), ships it to `dest` on `tag`, and
/// waits for the receiver's verdict on `tag + 1` — retransmitting until
/// the frame arrives intact. The retry loop is what makes transport-level
/// corruption (e.g. an injected `FrameCorrupt` fault) *recoverable*
/// instead of fatal: damage is detected by the checksum on the far side
/// and the frame is simply sent again.
///
/// Panics after 100 rejected attempts — at that point the damage is
/// deterministic, not transient, and retrying cannot help.
pub fn send_framed(comm: &Comm, dest: usize, tag: u64, kind: u32, payload: &[u8]) {
    for _ in 0..100 {
        comm.send(dest, tag, encode_frame(kind, payload));
        let ack = comm.recv(dest, tag + 1);
        if ack.first().is_some_and(|a| a.re == 1.0) {
            return;
        }
    }
    panic!("frame to rank {dest} rejected 100 times; corruption is not transient");
}

/// Receiving side of [`send_framed`]: decodes frames from `src` on `tag`,
/// acking each on `tag + 1` (`1.0` = intact, `0.0` = resend), until one
/// survives the checksum. Returns the message kind and payload bytes.
pub fn recv_framed(comm: &Comm, src: usize, tag: u64) -> (u32, Vec<u8>) {
    loop {
        let frame = comm.recv(src, tag);
        match decode_frame(&frame) {
            Ok((kind, payload)) => {
                comm.send(src, tag + 1, vec![c64(1.0, 0.0)]);
                return (kind, payload);
            }
            Err(_) => comm.send(src, tag + 1, vec![c64(0.0, 0.0)]),
        }
    }
}

/// Executable staging: `root` holds the serialized material file; all
/// ranks return the full byte vector after a chunked broadcast.
pub fn stage_material(
    comm: &Comm,
    root: usize,
    data: Option<&[u8]>,
    chunk_elems: usize,
) -> Vec<u8> {
    assert!(chunk_elems > 0);
    // First broadcast the length.
    let mut header = if comm.rank() == root {
        vec![c64(data.unwrap().len() as f64, 0.0)]
    } else {
        Vec::new()
    };
    comm.bcast(root, 90_000, &mut header);
    let total_len = header[0].re as usize;
    let payload = if comm.rank() == root {
        pack_bytes(data.unwrap())
    } else {
        Vec::new()
    };
    let nelems = total_len.div_ceil(16);
    let nchunks = nelems.div_ceil(chunk_elems);
    let mut received: Vec<C64> = Vec::with_capacity(nelems);
    for c in 0..nchunks {
        let lo = c * chunk_elems;
        let hi = ((c + 1) * chunk_elems).min(nelems);
        let mut chunk = if comm.rank() == root {
            payload[lo..hi].to_vec()
        } else {
            Vec::new()
        };
        comm.bcast(root, 90_001 + c as u64, &mut chunk);
        received.extend_from_slice(&chunk);
    }
    unpack_bytes(&received, total_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpi_sim::run_world;
    use crate::volume::{OpKind, VolumeLedger};
    use omen_device::{serialize_structure, DeviceConfig, DeviceStructure};

    #[test]
    fn pack_round_trip() {
        let data: Vec<u8> = (0..1000).map(|i| (i * 37 % 251) as u8).collect();
        let packed = pack_bytes(&data);
        let back = unpack_bytes(&packed, data.len());
        assert_eq!(back, data);
        // Non-multiple-of-16 lengths round-trip too.
        let data2 = &data[..999];
        assert_eq!(unpack_bytes(&pack_bytes(data2), 999), data2);
    }

    #[test]
    fn frame_round_trip() {
        let payload: Vec<u8> = (0..333).map(|i| (i * 31 % 253) as u8).collect();
        let frame = encode_frame(7, &payload);
        let (kind, back) = decode_frame(&frame).expect("valid frame");
        assert_eq!(kind, 7);
        assert_eq!(back, payload);
        // Empty payloads are header + checksum only.
        assert_eq!(decode_frame(&encode_frame(2, &[])), Ok((2, Vec::new())));
        // Truncated or empty frames are rejected, not mis-read.
        assert_eq!(
            decode_frame(&frame[..frame.len() - 1]),
            Err(FrameError::Truncated)
        );
        assert_eq!(decode_frame(&[]), Err(FrameError::Truncated));
        // Extra trailing elements are a length mismatch.
        let mut long = frame.clone();
        long.push(c64(0.0, 0.0));
        assert_eq!(decode_frame(&long), Err(FrameError::LengthMismatch));
    }

    #[test]
    fn frame_checksum_catches_payload_damage() {
        let payload: Vec<u8> = (0..96).map(|i| i as u8).collect();
        let mut frame = encode_frame(9, &payload);
        // Flip one payload byte (element 2 is the first payload element).
        let mut bytes = frame[2].re.to_le_bytes();
        bytes[3] ^= 0x10;
        frame[2].re = f64::from_le_bytes(bytes);
        assert_eq!(decode_frame(&frame), Err(FrameError::Corrupt));
        // Damaging the stored checksum itself is also caught.
        let mut frame2 = encode_frame(9, &payload);
        frame2[1].im += 1.0;
        assert_eq!(decode_frame(&frame2), Err(FrameError::Corrupt));
        // Damaging the kind is caught because the checksum covers it.
        let mut frame3 = encode_frame(9, &payload);
        frame3[0].re += 1.0;
        assert_eq!(decode_frame(&frame3), Err(FrameError::Corrupt));
    }

    #[test]
    fn framed_send_recv_round_trip() {
        let payload: Vec<u8> = (0..500).map(|i| (i * 13 % 251) as u8).collect();
        let ledger = VolumeLedger::new(2);
        let results = run_world(2, ledger, |comm| {
            if comm.rank() == 0 {
                send_framed(&comm, 1, 70, 3, &payload);
                Vec::new()
            } else {
                let (kind, got) = recv_framed(&comm, 0, 70);
                assert_eq!(kind, 3);
                got
            }
        });
        assert_eq!(results[1], payload);
    }

    #[test]
    fn staged_broadcast_delivers_real_material() {
        let dev = DeviceStructure::build(DeviceConfig::tiny());
        let bytes = serialize_structure(&dev).to_vec();
        let p = 5;
        let ledger = VolumeLedger::new(p);
        let results = run_world(p, ledger.clone(), |comm| {
            let data = if comm.rank() == 1 {
                Some(&bytes[..])
            } else {
                None
            };
            stage_material(&comm, 1, data, 64)
        });
        for r in &results {
            assert_eq!(r, &bytes, "all ranks must receive the exact file");
            // And it must parse back into the device.
            let back = omen_device::deserialize_structure(r).expect("valid material file");
            assert_eq!(back.num_atoms(), dev.num_atoms());
        }
        assert!(ledger.bytes(OpKind::Bcast) > 0);
    }
}
