//! Helpers shared by this crate's unit tests.

/// Lower-case hex of `bytes`.
pub(crate) fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Bytes of a hex string (whitespace ignored).
pub(crate) fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .map(|b| (b as char).to_digit(16).expect("hex digit") as u8)
        .collect();
    assert!(digits.len().is_multiple_of(2), "odd number of hex digits");
    digits.chunks_exact(2).map(|d| d[0] << 4 | d[1]).collect()
}

/// A small deterministic generator for test inputs.
pub(crate) struct Lcg(pub u64);

impl Lcg {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    pub(crate) fn byte(&mut self) -> u8 {
        self.next() as u8
    }
}
