//! Binary material-file format and the data-ingestion path (§7.1.1).
//!
//! The paper's simulator loads GiBs of CP2K output (Hamiltonian blocks,
//! derivative blocks, structural data) from a parallel filesystem; naive
//! per-rank reads cost ~30 minutes at scale, chunked broadcast staging
//! brings it under a minute. Here we define the on-disk format — a
//! deterministic little-endian layout over plain byte slices — so the
//! staging simulation in `omen-comm` ships real payloads, and a loader
//! that round-trips a [`DeviceStructure`].

use crate::structure::{DeviceConfig, DeviceStructure};

/// Magic number identifying the material file format ("OMENMAT1").
pub const MAGIC: u64 = 0x4F4D_454E_4D41_5431;

/// Errors produced by [`deserialize_structure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The buffer ended prematurely.
    Truncated,
    /// The embedded payload checksum does not match the regenerated data.
    ChecksumMismatch,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::BadMagic => write!(f, "not a material file (bad magic)"),
            IngestError::Truncated => write!(f, "material file truncated"),
            IngestError::ChecksumMismatch => write!(f, "material payload checksum mismatch"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Serializes a device structure to the material-file format.
///
/// The payload carries the generator configuration *and* the full `∇H`
/// gradient table plus per-pair geometry — the bulky part CP2K would
/// produce — so the byte volume scales like the real ingestion problem:
/// `O(pairs · 3 · Norb²)` doubles.
pub fn serialize_structure(dev: &DeviceStructure) -> Vec<u8> {
    let c = &dev.config;
    let mut buf = Vec::with_capacity(serialized_size(dev.neighbors.num_pairs(), c.norb));
    for n in [
        MAGIC,
        c.nx as u64,
        c.ny as u64,
        c.cols_per_slab as u64,
        c.norb as u64,
    ] {
        buf.extend_from_slice(&n.to_le_bytes());
    }
    for x in [c.ax, c.ay, c.az, c.cutoff] {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    buf.extend_from_slice(&c.seed.to_le_bytes());

    // Bulk payload: per-pair displacement + gradient blocks.
    buf.extend_from_slice(&(dev.neighbors.num_pairs() as u64).to_le_bytes());
    let mut checksum = 0.0f64;
    for (p, g) in dev.neighbors.pairs.iter().zip(dev.gradients.grads.iter()) {
        buf.extend_from_slice(&(p.from as u64).to_le_bytes());
        buf.extend_from_slice(&(p.to as u64).to_le_bytes());
        buf.extend_from_slice(&p.z_image.to_le_bytes());
        for d in p.delta {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        for mat in g.iter() {
            for z in mat.as_slice() {
                buf.extend_from_slice(&z.re.to_le_bytes());
                buf.extend_from_slice(&z.im.to_le_bytes());
                checksum += z.re.abs() + z.im.abs();
            }
        }
    }
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Little-endian reads off the front of a byte slice; running out of
/// bytes is [`IngestError::Truncated`].
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], IngestError> {
        let (head, tail) = self.0.split_first_chunk().ok_or(IngestError::Truncated)?;
        self.0 = tail;
        Ok(*head)
    }

    fn u64(&mut self) -> Result<u64, IngestError> {
        self.take().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, IngestError> {
        self.take().map(f64::from_le_bytes)
    }
}

/// Parses a material file, rebuilds the device from its configuration, and
/// verifies the payload against the regenerated gradient table.
pub fn deserialize_structure(data: &[u8]) -> Result<DeviceStructure, IngestError> {
    let mut data = Reader(data);
    if data.u64()? != MAGIC {
        return Err(IngestError::BadMagic);
    }
    let config = DeviceConfig {
        nx: data.u64()? as usize,
        ny: data.u64()? as usize,
        cols_per_slab: data.u64()? as usize,
        norb: data.u64()? as usize,
        ax: data.f64()?,
        ay: data.f64()?,
        az: data.f64()?,
        cutoff: data.f64()?,
        seed: data.u64()?,
    };
    let dev = DeviceStructure::build(config);

    let npairs = data.u64()? as usize;
    if npairs != dev.neighbors.num_pairs() {
        return Err(IngestError::ChecksumMismatch);
    }
    let mut checksum = 0.0f64;
    for g in dev.gradients.grads.iter() {
        // from, to, z image, displacement
        data.take::<{ 8 + 8 + 1 + 3 * 8 }>()?;
        for mat in g.iter() {
            for z in mat.as_slice() {
                let (re, im) = (data.f64()?, data.f64()?);
                // Regeneration is deterministic, so the comparison can be
                // bit-exact — any corrupted payload bit is detected.
                if re.to_bits() != z.re.to_bits() || im.to_bits() != z.im.to_bits() {
                    return Err(IngestError::ChecksumMismatch);
                }
                checksum += re.abs() + im.abs();
            }
        }
    }
    let stored = data.f64()?;
    if (stored - checksum).abs() > 1e-6 * checksum.max(1.0) {
        return Err(IngestError::ChecksumMismatch);
    }
    Ok(dev)
}

/// The serialized size in bytes of a device's material file, without
/// building the buffer (used by the staging model at paper scales).
pub fn serialized_size(num_pairs: usize, norb: usize) -> usize {
    8 /* magic */ + 4 * 8 + 4 * 8 + 8 /* config */
        + 8 /* pair count */
        + num_pairs * (8 + 8 + 1 + 24 + 3 * norb * norb * 16)
        + 8 /* checksum */
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{DeviceConfig, DeviceStructure};

    #[test]
    fn round_trip() {
        let dev = DeviceStructure::build(DeviceConfig::tiny());
        let bytes = serialize_structure(&dev);
        let back = deserialize_structure(&bytes).expect("round trip");
        assert_eq!(back.config, dev.config);
        assert_eq!(back.num_atoms(), dev.num_atoms());
        assert_eq!(back.neighbors.num_pairs(), dev.neighbors.num_pairs());
    }

    #[test]
    fn size_formula_matches() {
        let dev = DeviceStructure::build(DeviceConfig::tiny());
        let bytes = serialize_structure(&dev);
        assert_eq!(
            bytes.len(),
            serialized_size(dev.neighbors.num_pairs(), dev.config.norb)
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = serialize_structure(&DeviceStructure::build(DeviceConfig::tiny())).to_vec();
        data[0] ^= 0xFF;
        assert_eq!(
            deserialize_structure(&data).unwrap_err(),
            IngestError::BadMagic
        );
    }

    #[test]
    fn truncation_rejected() {
        let data = serialize_structure(&DeviceStructure::build(DeviceConfig::tiny()));
        for cut in [4usize, 40, data.len() / 2, data.len() - 1] {
            assert_eq!(
                deserialize_structure(&data[..cut]).unwrap_err(),
                IngestError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corruption_detected() {
        let dev = DeviceStructure::build(DeviceConfig::tiny());
        let mut data = serialize_structure(&dev).to_vec();
        // Flip a byte inside the gradient payload.
        let off = data.len() - 100;
        data[off] ^= 0x01;
        assert_eq!(
            deserialize_structure(&data).unwrap_err(),
            IngestError::ChecksumMismatch
        );
    }
}
