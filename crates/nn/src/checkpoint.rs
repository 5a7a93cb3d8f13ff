//! Compact binary checkpoints for [`StateDict`]s.
//!
//! The federated simulation "transmits" models as state dicts; this module
//! gives them a wire format so runs can be checkpointed to disk and so the
//! communication accounting in `fedzkt-fl` corresponds to real bytes. The
//! format is deliberately simple and versioned:
//!
//! ```text
//! magic  "FZKT"          4 bytes
//! version u32 LE          4 bytes
//! n_params u32 LE
//! n_buffers u32 LE
//! per tensor: rank u32, dims [u32], data [f32 LE]
//! ```

use crate::{NnError, StateDict};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use fedzkt_tensor::{checked_numel, Tensor};

const MAGIC: &[u8; 4] = b"FZKT";
const VERSION: u32 = 1;

/// Serialize a state dict into the versioned binary format.
pub fn encode_state_dict(sd: &StateDict) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + sd.byte_size() + 16 * (sd.params.len() + 1));
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(sd.params.len() as u32);
    buf.put_u32_le(sd.buffers.len() as u32);
    for t in sd.params.iter().chain(&sd.buffers) {
        buf.put_u32_le(t.shape().len() as u32);
        for &d in t.shape() {
            buf.put_u32_le(d as u32);
        }
        for &v in t.data() {
            buf.put_f32_le(v);
        }
    }
    buf.freeze()
}

/// Deserialize a state dict produced by [`encode_state_dict`].
///
/// # Errors
/// Returns [`NnError::StateDictMismatch`] on bad magic, unsupported version,
/// a shape whose size overflows, or a truncated buffer — the decoder never
/// panics on malformed input.
pub fn decode_state_dict(mut data: &[u8]) -> Result<StateDict, NnError> {
    let fail = |detail: &str| NnError::StateDictMismatch { detail: detail.to_string() };
    if data.remaining() < 16 {
        return Err(fail("buffer shorter than header"));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(fail("bad magic"));
    }
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(fail(&format!("unsupported version {version}")));
    }
    let n_params = data.get_u32_le() as usize;
    let n_buffers = data.get_u32_le() as usize;
    if n_params + n_buffers > 1_000_000 {
        return Err(fail("implausible tensor count"));
    }
    let mut tensors = Vec::with_capacity(n_params + n_buffers);
    for _ in 0..n_params + n_buffers {
        if data.remaining() < 4 {
            return Err(fail("truncated tensor header"));
        }
        let rank = data.get_u32_le() as usize;
        if rank > 8 || data.remaining() < 4 * rank {
            return Err(fail("implausible tensor rank"));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(data.get_u32_le() as usize);
        }
        // Checked: a wrapped element count would let a huge claimed shape
        // pass the length check against a short buffer.
        let bytes = checked_numel(&shape)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| fail("tensor shape overflows the element count"))?;
        if data.remaining() < bytes {
            return Err(fail("truncated tensor data"));
        }
        let len = bytes / 4;
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(data.get_f32_le());
        }
        tensors.push(
            Tensor::from_vec(values, &shape)
                .map_err(|e| fail(&format!("tensor rebuild: {e}")))?,
        );
    }
    let buffers = tensors.split_off(n_params);
    Ok(StateDict { params: tensors, buffers })
}

/// Write a state dict to a file.
///
/// # Errors
/// Returns any I/O error from the filesystem.
pub fn save_state_dict(sd: &StateDict, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, encode_state_dict(sd))
}

/// Read a state dict from a file written by [`save_state_dict`].
///
/// # Errors
/// Returns I/O errors, or [`NnError`] mapped into
/// [`std::io::ErrorKind::InvalidData`] for malformed contents.
pub fn load_state_dict_file(path: &std::path::Path) -> std::io::Result<StateDict> {
    let data = std::fs::read(path)?;
    decode_state_dict(&data)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedzkt_tensor::seeded_rng;

    fn sample_sd() -> StateDict {
        let mut rng = seeded_rng(1);
        StateDict {
            params: vec![
                Tensor::randn(&[3, 4], &mut rng),
                Tensor::randn(&[7], &mut rng),
                Tensor::scalar(2.5),
            ],
            buffers: vec![Tensor::randn(&[2, 2, 2, 2], &mut rng)],
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let sd = sample_sd();
        let decoded = decode_state_dict(&encode_state_dict(&sd)).unwrap();
        assert_eq!(sd, decoded);
    }

    #[test]
    fn encoded_size_close_to_raw_bytes() {
        let sd = sample_sd();
        let encoded = encode_state_dict(&sd);
        assert!(encoded.len() >= sd.byte_size());
        assert!(encoded.len() < sd.byte_size() + 128, "excessive overhead");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut data = encode_state_dict(&sample_sd()).to_vec();
        data[0] = b'X';
        assert!(decode_state_dict(&data).is_err());
    }

    #[test]
    fn rejects_bad_version() {
        let mut data = encode_state_dict(&sample_sd()).to_vec();
        data[4] = 99;
        assert!(decode_state_dict(&data).is_err());
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let data = encode_state_dict(&sample_sd()).to_vec();
        // Any prefix must fail cleanly, never panic.
        for cut in 0..data.len() {
            assert!(decode_state_dict(&data[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn rejects_a_shape_whose_element_count_overflows() {
        // Dims [65536; 4]: the product is 2^64, which wraps to 0 unchecked
        // and would pass the length check against zero data bytes.
        let mut data = Vec::new();
        data.extend_from_slice(MAGIC);
        for word in [VERSION, 1, 0, 4, 65536, 65536, 65536, 65536] {
            data.extend_from_slice(&word.to_le_bytes());
        }
        let err = decode_state_dict(&data).expect_err("overflowing shape decoded");
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn empty_state_dict_roundtrips() {
        let sd = StateDict { params: vec![], buffers: vec![] };
        assert_eq!(decode_state_dict(&encode_state_dict(&sd)).unwrap(), sd);
    }

    #[test]
    fn file_roundtrip() {
        let sd = sample_sd();
        let dir = std::env::temp_dir().join("fedzkt_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.fzkt");
        save_state_dict(&sd, &path).unwrap();
        let loaded = load_state_dict_file(&path).unwrap();
        assert_eq!(sd, loaded);
        std::fs::remove_file(&path).ok();
    }
}
