//! Client side of the `jitspmm-serve` wire protocol, written from the
//! protocol table in `crates/bench/src/bin/jitspmm_serve.rs`:
//!
//! | op | request payload               | ok response payload                |
//! |----|-------------------------------|------------------------------------|
//! | 1  | INFO                          | `0u8`, UTF-8 status text           |
//! | 2  | MUL: engine `u32`, seed `u64` | `0u8`, nrows `u32`, d `u32`, row-major little-endian `f32` output |
//! | 3  | SHUTDOWN                      | `0u8`                              |
//! | 4  | UPDATE: engine `u32`, count `u32`, then per op: kind `u8` (0 upsert, 1 delete), row `u32`, col `u32`, value `f32` | `0u8`, UTF-8 `revision=N` |
//!
//! Every frame is a little-endian `u32` byte count followed by the payload;
//! errors come back as `1u8` followed by UTF-8 text.

pub const OP_INFO: u8 = 1;
pub const OP_MUL: u8 = 2;
pub const OP_SHUTDOWN: u8 = 3;
pub const OP_UPDATE: u8 = 4;

/// Largest reply the decoder accepts, as the server's own reader does.
const MAX_FRAME: usize = 64 << 20;

/// One edge operation of an UPDATE frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeOp {
    Upsert { row: u32, col: u32, value: f32 },
    Delete { row: u32, col: u32 },
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

pub fn info() -> Vec<u8> {
    frame(&[OP_INFO])
}

pub fn shutdown() -> Vec<u8> {
    frame(&[OP_SHUTDOWN])
}

pub fn mul(engine: u32, seed: u64) -> Vec<u8> {
    let mut payload = vec![OP_MUL];
    payload.extend_from_slice(&engine.to_le_bytes());
    payload.extend_from_slice(&seed.to_le_bytes());
    frame(&payload)
}

pub fn update(engine: u32, ops: &[EdgeOp]) -> Vec<u8> {
    let mut payload = vec![OP_UPDATE];
    payload.extend_from_slice(&engine.to_le_bytes());
    payload.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        let (kind, row, col, value) = match *op {
            EdgeOp::Upsert { row, col, value } => (0u8, row, col, value),
            EdgeOp::Delete { row, col } => (1u8, row, col, 0.0),
        };
        payload.push(kind);
        payload.extend_from_slice(&row.to_le_bytes());
        payload.extend_from_slice(&col.to_le_bytes());
        payload.extend_from_slice(&value.to_le_bytes());
    }
    frame(&payload)
}

/// Split a reply payload into its body, or the server's error text.
pub fn reply_body(payload: &[u8]) -> Result<&[u8], String> {
    match payload.split_first() {
        Some((0, body)) => Ok(body),
        Some((1, text)) => Err(String::from_utf8_lossy(text).into_owned()),
        _ => Err("malformed reply".to_string()),
    }
}

/// A MUL reply body: `(nrows, d, output values)`.
pub fn mul_output(body: &[u8]) -> Result<(usize, usize, Vec<f32>), String> {
    if body.len() < 8 {
        return Err("short MUL reply".to_string());
    }
    let nrows = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes")) as usize;
    let d = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes")) as usize;
    let values = &body[8..];
    if values.len() != nrows * d * 4 {
        return Err(format!("MUL reply holds {} bytes for a {nrows}x{d} output", values.len()));
    }
    let out =
        values.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4"))).collect();
    Ok((nrows, d, out))
}

/// The revision an UPDATE reply reports (`revision=N`).
pub fn revision(body: &[u8]) -> Result<u64, String> {
    let text = String::from_utf8_lossy(body);
    text.strip_prefix("revision=")
        .and_then(|n| n.trim().parse().ok())
        .ok_or_else(|| format!("unexpected UPDATE reply {text:?}"))
}

/// Reassembles frames from a byte stream that arrives in arbitrary chunks.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete payload, if one has fully arrived.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, String> {
        let pending = &self.buf[self.start..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            return Err(format!("reply frame of {len} bytes exceeds the protocol limit"));
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let payload = pending[4..4 + len].to_vec();
        self.start += 4 + len;
        if self.start > (1 << 20) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_match_the_protocol_table() {
        assert_eq!(info(), vec![1, 0, 0, 0, OP_INFO]);
        assert_eq!(shutdown(), vec![1, 0, 0, 0, OP_SHUTDOWN]);
        // MUL: 13-byte payload = op, engine u32 LE, seed u64 LE.
        let m = mul(3, 0x0102_0304_0506_0708);
        assert_eq!(m[..4], 13u32.to_le_bytes());
        assert_eq!(m[4], OP_MUL);
        assert_eq!(m[5..9], [3, 0, 0, 0]);
        assert_eq!(m[9..17], [8, 7, 6, 5, 4, 3, 2, 1]);
        // UPDATE: op, engine, count, then 13-byte kind/row/col/value records.
        let u = update(
            1,
            &[EdgeOp::Upsert { row: 2, col: 5, value: 1.5 }, EdgeOp::Delete { row: 9, col: 4 }],
        );
        assert_eq!(u[..4], (9u32 + 2 * 13).to_le_bytes());
        assert_eq!(u[4], OP_UPDATE);
        assert_eq!(u[5..9], 1u32.to_le_bytes());
        assert_eq!(u[9..13], 2u32.to_le_bytes());
        assert_eq!(u[13], 0);
        assert_eq!(u[14..18], 2u32.to_le_bytes());
        assert_eq!(u[18..22], 5u32.to_le_bytes());
        assert_eq!(u[22..26], 1.5f32.to_le_bytes());
        assert_eq!(u[26], 1);
        assert_eq!(u[27..31], 9u32.to_le_bytes());
        assert_eq!(u[31..35], 4u32.to_le_bytes());
        assert_eq!(u.len(), 4 + 9 + 26);
    }

    #[test]
    fn replies_decode_ok_and_error_frames() {
        let mut body = vec![0u8];
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&0.5f32.to_le_bytes());
        body.extend_from_slice(&(-2.0f32).to_le_bytes());
        let ok = reply_body(&body).unwrap();
        assert_eq!(mul_output(ok).unwrap(), (2, 1, vec![0.5, -2.0]));
        assert!(mul_output(&ok[..11]).is_err());
        assert_eq!(
            reply_body(b"\x01not admitted: queue full"),
            Err("not admitted: queue full".into())
        );
        assert!(reply_body(&[]).is_err());
        assert_eq!(revision(b"revision=42"), Ok(42));
        assert!(revision(b"rev 42").is_err());
    }

    #[test]
    fn frames_reassemble_across_arbitrary_chunks() {
        let mut stream = Vec::new();
        let payloads: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; i as usize * 37 + 1]).collect();
        for p in &payloads {
            stream.extend_from_slice(&(p.len() as u32).to_le_bytes());
            stream.extend_from_slice(p);
        }
        for chunk in [1, 3, 4, 5, 64, 1000, stream.len()] {
            let mut reader = FrameReader::default();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                reader.push(piece);
                while let Some(frame) = reader.next_frame().unwrap() {
                    got.push(frame);
                }
            }
            assert_eq!(got, payloads, "chunk size {chunk}");
        }
    }

    #[test]
    fn oversized_frames_are_refused() {
        let mut reader = FrameReader::default();
        reader.push(&(u32::MAX).to_le_bytes());
        assert!(reader.next_frame().is_err());
    }
}
