//! Physical-layer bit coding and on-wire frame length.
//!
//! FlexRay serializes a frame as:
//!
//! ```text
//! TSS | FSS | (BSS + 8 data bits) × N | FES [| DTS]
//! ```
//!
//! * **TSS** — transmission start sequence, a configurable run of LOW bits
//!   (3–15 bit times; the collision-avoidance preamble);
//! * **FSS** — frame start sequence, 1 bit;
//! * **BSS** — byte start sequence, 2 bits prepended to each of the N
//!   frame bytes (5 header bytes + payload bytes + 3 trailer-CRC bytes);
//! * **FES** — frame end sequence, 2 bits;
//! * **DTS** — dynamic trailing sequence, only on dynamic-segment frames
//!   (stretches the transmission to the next minislot action point; we
//!   account its 2-bit minimum).
//!
//! The on-wire length is what determines how long a frame occupies a slot,
//! which is what every latency/utilization metric in the paper measures.

/// Number of bytes in the serialized frame header (40 header bits).
pub const HEADER_BYTES: u64 = 5;
/// Number of bytes in the serialized trailer (24-bit frame CRC).
pub const TRAILER_BYTES: u64 = 3;
/// Bits on the wire per frame byte (2-bit BSS + 8 data bits).
pub const BITS_PER_BYTE_CODED: u64 = 10;
/// Frame start sequence length in bits.
pub const FSS_BITS: u64 = 1;
/// Frame end sequence length in bits.
pub const FES_BITS: u64 = 2;
/// Minimum dynamic trailing sequence length in bits.
pub const DTS_MIN_BITS: u64 = 2;

/// Physical coding parameters (currently just the TSS length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameCoding {
    tss_bits: u64,
}

impl Default for FrameCoding {
    fn default() -> Self {
        FrameCoding { tss_bits: 5 }
    }
}

impl FrameCoding {
    /// Creates a coding with the given transmission-start-sequence length.
    ///
    /// # Panics
    /// Panics if `tss_bits` is outside the spec range 3–15.
    pub fn new(tss_bits: u64) -> Self {
        assert!(
            (3..=15).contains(&tss_bits),
            "TSS length must be 3–15 bit times, got {tss_bits}"
        );
        FrameCoding { tss_bits }
    }

    /// Total on-wire bits of a frame with `payload_bytes` payload bytes.
    /// `dynamic` adds the minimum DTS of dynamic-segment frames.
    pub fn frame_wire_bits(&self, payload_bytes: u64, dynamic: bool) -> u64 {
        let bytes = HEADER_BYTES + payload_bytes + TRAILER_BYTES;
        self.tss_bits
            + FSS_BITS
            + bytes * BITS_PER_BYTE_CODED
            + FES_BITS
            + if dynamic { DTS_MIN_BITS } else { 0 }
    }

    /// On-wire bits for a message of `message_bits` *logical* bits: the
    /// payload is padded to whole 2-byte words (FlexRay payload length is
    /// counted in words).
    pub fn message_wire_bits(&self, message_bits: u64, dynamic: bool) -> u64 {
        self.frame_wire_bits(payload_bytes_for(message_bits), dynamic)
    }
}

/// Payload bytes needed to carry `message_bits` logical bits, padded to a
/// whole number of 2-byte words (0 bits still occupy one word: a FlexRay
/// frame always carries its header, and a null frame has length 0 — we
/// model data frames, which carry at least one word).
pub fn payload_bytes_for(message_bits: u64) -> u64 {
    let bytes = message_bits.div_ceil(8).max(2);
    bytes.div_ceil(2) * 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_padding() {
        assert_eq!(payload_bytes_for(0), 2);
        assert_eq!(payload_bytes_for(1), 2);
        assert_eq!(payload_bytes_for(16), 2);
        assert_eq!(payload_bytes_for(17), 4);
        assert_eq!(payload_bytes_for(1742), 218); // largest BBW message
    }

    #[test]
    fn wire_bits_formula() {
        let c = FrameCoding::default(); // TSS 5
                                        // 2-byte payload: 5 + 1 + (5+2+3)*10 + 2 = 108 bits.
        assert_eq!(c.frame_wire_bits(2, false), 108);
        assert_eq!(c.frame_wire_bits(2, true), 110);
    }

    #[test]
    fn message_wire_bits_includes_padding() {
        let c = FrameCoding::default();
        // 20 logical bits → 4 payload bytes → 5+1+120+2 = 128.
        assert_eq!(c.message_wire_bits(20, false), 128);
    }

    #[test]
    fn largest_bbw_message_fits_paper_preset_slot() {
        let c = FrameCoding::default();
        let wire = c.message_wire_bits(1742, false);
        // 218 payload bytes → (5+218+3)*10 + 5 + 1 + 2 = 2268 bits.
        assert_eq!(wire, 2268);
        let cfg = crate::config::ClusterConfig::paper_static(80);
        assert!(wire <= cfg.static_slot_capacity_bits());
    }

    #[test]
    fn coding_overhead_grows_linearly() {
        let c = FrameCoding::default();
        let d = c.frame_wire_bits(10, false) - c.frame_wire_bits(8, false);
        assert_eq!(d, 2 * BITS_PER_BYTE_CODED);
    }

    #[test]
    #[should_panic(expected = "TSS length")]
    fn tss_out_of_range_rejected() {
        let _ = FrameCoding::new(16);
    }

    #[test]
    fn custom_tss() {
        assert_eq!(
            FrameCoding::new(15).frame_wire_bits(2, false)
                - FrameCoding::new(3).frame_wire_bits(2, false),
            12
        );
    }
}
