// A generic type ascription ends in `>` right before the `let`'s `=`.
// That `>` closes the generic; it does not start a `>=`, so the
// initializer is still tracked and the untrusted count reaching the
// allocation is exactly one taint finding.
pub fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

pub fn decode(b: &[u8]) -> Vec<u32> {
    let n: Option<usize> = Some(le_u32(b) as usize);
    Vec::with_capacity(n.unwrap_or(0))
}
