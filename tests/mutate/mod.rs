//! Byte-level mutators shared by the parser fuzz suites
//! (`persist_layouts.rs` for persisted entries, `parser_fuzz.rs` for the
//! request/response protocol): each draws one mutation of a valid line
//! from the seeded proptest stream.

use proptest::prelude::*;

/// One byte-level mutation of a valid line.
#[derive(Clone, Copy, Debug)]
pub enum Mutation {
    /// Cut the bytes at a sampled point.
    Truncate,
    /// Flip one bit of one byte.
    FlipBit,
    /// Swap a digit for another digit (keeps the line well-formed more
    /// often than a flip, so it reaches deeper into the decoder).
    SwapDigit,
    /// Overwrite a short run with random bytes.
    RandomBytes,
    /// Cut a short run out of the middle, so the line still ends the way
    /// a whole line does but an array or string inside it is shorter.
    DeleteRun,
}

pub fn mutation_strategy() -> impl Strategy<Value = (Mutation, u64, u64)> {
    (
        prop_oneof![
            Just(Mutation::Truncate),
            Just(Mutation::FlipBit),
            Just(Mutation::SwapDigit),
            Just(Mutation::RandomBytes),
            Just(Mutation::DeleteRun),
        ],
        any::<u64>(),
        any::<u64>(),
    )
}

/// Applies one mutation to a non-empty line that contains a digit.
pub fn mutate(bytes: &[u8], (kind, at, noise): (Mutation, u64, u64)) -> Vec<u8> {
    let mut out = bytes.to_vec();
    // Half the mutations land in the first 128 bytes, where the key,
    // version, schema and type fields live.
    let span = if noise >> 63 == 1 { bytes.len().min(128) } else { bytes.len() };
    let pos = (at % span as u64) as usize;
    match kind {
        Mutation::Truncate => out.truncate(pos),
        Mutation::FlipBit => out[pos] ^= 1 << (noise % 8),
        Mutation::SwapDigit => {
            let digits: Vec<usize> = (0..out.len()).filter(|&i| out[i].is_ascii_digit()).collect();
            let i = digits[pos % digits.len()];
            let replacement = b'0' + (noise % 10) as u8;
            out[i] = if replacement == out[i] { b'0' + (out[i] - b'0' + 1) % 10 } else { replacement };
        }
        Mutation::RandomBytes => {
            for (k, byte) in noise.to_le_bytes().iter().enumerate().take(1 + (noise % 8) as usize) {
                if let Some(slot) = out.get_mut(pos + k) {
                    *slot = *byte;
                }
            }
        }
        Mutation::DeleteRun => {
            let end = (pos + 1 + (noise % 64) as usize).min(out.len());
            out.drain(pos..end);
        }
    }
    out
}
