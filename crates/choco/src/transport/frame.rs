//! Length-delimited wire frames with keyed BLAKE3 integrity tags.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! | len: u32 | kind: u8 | seq: u64 | payload … | tag: 32 B |
//! ```
//!
//! `len` counts every byte after the length field itself. The tag is a
//! keyed BLAKE3 hash over `kind ‖ seq ‖ payload`; the key is derived from
//! the session seed under a dedicated domain-separation label, so frames
//! from different sessions (or different labels) never verify against each
//! other. The tag is not part of the HE threat model — ciphertexts are
//! already semantically secure — it exists so that *accidental or
//! adversarial in-flight modification* is detected before a garbage
//! ciphertext reaches the decryptor.

use super::TransportError;
use choco_prng::blake3::Hasher;
use choco_prng::Blake3Rng;

/// Size of the keyed BLAKE3 tag trailing each frame.
pub const TAG_BYTES: usize = 32;

/// Bytes of framing overhead: length field, kind, sequence number, tag.
pub const FRAME_OVERHEAD: usize = 4 + 1 + 8 + TAG_BYTES;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A serialized BFV ciphertext (`CHO1` payload).
    BfvCiphertext,
    /// A serialized CKKS ciphertext (`CHO2` payload).
    CkksCiphertext,
    /// Plaintext slot data (e.g. decrypted intermediates in tests).
    Plaintext,
    /// Key material digests exchanged at session setup.
    KeyMaterial,
    /// Protocol control messages.
    Control,
    /// A remote-evaluation request (session setup, program upload, or an
    /// evaluate call — `choco::remote` payload magics discriminate). The
    /// server answers these with [`FrameKind::EvalResponse`] frames; it
    /// answers no other kind.
    EvalRequest,
    /// A remote-evaluation response (server → client).
    EvalResponse,
}

impl FrameKind {
    fn as_u8(self) -> u8 {
        match self {
            FrameKind::BfvCiphertext => 1,
            FrameKind::CkksCiphertext => 2,
            FrameKind::Plaintext => 3,
            FrameKind::KeyMaterial => 4,
            FrameKind::Control => 5,
            FrameKind::EvalRequest => 6,
            FrameKind::EvalResponse => 7,
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(FrameKind::BfvCiphertext),
            2 => Some(FrameKind::CkksCiphertext),
            3 => Some(FrameKind::Plaintext),
            4 => Some(FrameKind::KeyMaterial),
            5 => Some(FrameKind::Control),
            6 => Some(FrameKind::EvalRequest),
            7 => Some(FrameKind::EvalResponse),
            _ => None,
        }
    }
}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Payload discriminator.
    pub kind: FrameKind,
    /// Monotonic per-session sequence number; lets the receiver discard
    /// stale duplicates from earlier exchanges.
    pub seq: u64,
    /// The carried bytes.
    pub payload: Vec<u8>,
}

/// The session's frame-tagging key, derived from the session seed under the
/// `"transport-tag"` domain-separation label.
#[derive(Clone)]
pub struct TagKey([u8; 32]);

impl TagKey {
    /// Derives the tag key from a session seed.
    pub fn from_session_seed(seed: &[u8]) -> Self {
        let mut rng = Blake3Rng::from_seed_labeled(seed, "transport-tag");
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        TagKey(key)
    }

    /// Keyed tag over arbitrary bytes under a caller-chosen domain label.
    /// Used outside the frame format proper — e.g. the TCP hello handshake
    /// proves possession of the session key with a labeled tag, so a client
    /// that knows only a tenant id (but not its seed) is rejected before
    /// any frame is exchanged.
    pub fn labeled_tag(&self, label: &str, data: &[u8]) -> [u8; 32] {
        let mut h = Hasher::new_keyed(&self.0);
        h.update(&(label.len() as u64).to_le_bytes());
        h.update(label.as_bytes());
        h.update(data);
        h.finalize()
    }

    fn tag(&self, kind: FrameKind, seq: u64, payload: &[u8]) -> [u8; 32] {
        let mut h = Hasher::new_keyed(&self.0);
        h.update(&[kind.as_u8()]);
        h.update(&seq.to_le_bytes());
        h.update(payload);
        h.finalize()
    }
}

/// Encodes a frame onto the wire.
pub fn encode_frame(kind: FrameKind, seq: u64, payload: &[u8], key: &TagKey) -> Vec<u8> {
    let body_len = 1 + 8 + payload.len() + TAG_BYTES;
    let mut out = Vec::with_capacity(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(kind.as_u8());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&key.tag(kind, seq, payload));
    out
}

/// Decodes and verifies a wire frame.
///
/// # Errors
///
/// [`TransportError::Truncated`] if bytes are missing,
/// [`TransportError::Malformed`] on an inconsistent length field or unknown
/// kind byte, [`TransportError::TagMismatch`] if the keyed tag does not
/// verify. Never panics, whatever the input.
pub fn decode_frame(wire: &[u8], key: &TagKey) -> Result<Frame, TransportError> {
    if wire.len() < FRAME_OVERHEAD {
        return Err(TransportError::Truncated {
            need: FRAME_OVERHEAD,
            have: wire.len(),
        });
    }
    let mut len_buf = [0u8; 4];
    len_buf.copy_from_slice(&wire[..4]);
    let declared = u32::from_le_bytes(len_buf) as usize;
    let actual = wire.len() - 4;
    if declared > actual {
        return Err(TransportError::Truncated {
            need: declared + 4,
            have: wire.len(),
        });
    }
    if declared < actual {
        return Err(TransportError::Malformed(format!(
            "length field {declared} < body {actual}"
        )));
    }
    let kind = FrameKind::from_u8(wire[4])
        .ok_or_else(|| TransportError::Malformed(format!("unknown frame kind {}", wire[4])))?;
    let mut seq_buf = [0u8; 8];
    seq_buf.copy_from_slice(&wire[5..13]);
    let seq = u64::from_le_bytes(seq_buf);
    let payload = &wire[13..wire.len() - TAG_BYTES];
    let tag = &wire[wire.len() - TAG_BYTES..];
    if key.tag(kind, seq, payload) != *tag {
        return Err(TransportError::TagMismatch { seq });
    }
    Ok(Frame {
        kind,
        seq,
        payload: payload.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> TagKey {
        TagKey::from_session_seed(b"frame tests")
    }

    #[test]
    fn roundtrip() {
        let k = key();
        let wire = encode_frame(FrameKind::BfvCiphertext, 7, b"hello ciphertext", &k);
        let frame = decode_frame(&wire, &k).unwrap();
        assert_eq!(frame.kind, FrameKind::BfvCiphertext);
        assert_eq!(frame.seq, 7);
        assert_eq!(frame.payload, b"hello ciphertext");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let k = key();
        let wire = encode_frame(FrameKind::Control, 0, b"", &k);
        assert_eq!(wire.len(), FRAME_OVERHEAD);
        let frame = decode_frame(&wire, &k).unwrap();
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn every_payload_bit_flip_is_caught() {
        let k = key();
        let wire = encode_frame(FrameKind::Plaintext, 3, &[0xAA; 24], &k);
        for byte in 0..wire.len() {
            for bit in 0..8 {
                let mut mutated = wire.clone();
                mutated[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&mutated, &k).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_is_typed() {
        let k = key();
        let wire = encode_frame(FrameKind::KeyMaterial, 1, &[1, 2, 3, 4], &k);
        for cut in 0..wire.len() {
            let err = decode_frame(&wire[..cut], &k).unwrap_err();
            assert!(matches!(
                err,
                TransportError::Truncated { .. } | TransportError::Malformed(_)
            ));
        }
    }

    #[test]
    fn wrong_session_key_rejects() {
        let wire = encode_frame(FrameKind::BfvCiphertext, 9, b"payload", &key());
        let other = TagKey::from_session_seed(b"another session");
        assert!(matches!(
            decode_frame(&wire, &other),
            Err(TransportError::TagMismatch { seq: 9 })
        ));
    }

    #[test]
    fn tag_covers_kind_and_seq() {
        let k = key();
        let mut wire = encode_frame(FrameKind::Plaintext, 5, b"data", &k);
        // Re-labelling the kind byte without re-tagging must fail.
        wire[4] = FrameKind::Control.as_u8();
        assert!(decode_frame(&wire, &k).is_err());
        let mut wire = encode_frame(FrameKind::Plaintext, 5, b"data", &k);
        wire[5] = 6; // seq 5 -> 6
        assert!(decode_frame(&wire, &k).is_err());
    }
}
