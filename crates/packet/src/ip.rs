//! IPv4 header with options, including the FTC piggyback-presence option.

use crate::checksum;
use crate::{WireError, WireResult};
use std::net::Ipv4Addr;

/// Minimum IPv4 header length (no options).
pub const MIN_HEADER_LEN: usize = 20;
/// Maximum IPv4 header length (15 32-bit words).
pub const MAX_HEADER_LEN: usize = 60;

/// IP protocol number for TCP.
pub const PROTO_TCP: u8 = 6;
/// IP protocol number for UDP.
pub const PROTO_UDP: u8 = 17;
/// IP protocol number for ICMP.
pub const PROTO_ICMP: u8 = 1;

/// The IPv4 option kind FTC uses to flag a piggyback trailer (paper §6).
///
/// `0x5e` is copy=0, class=2 (debugging/measurement), number=30 — an
/// experimental-range option that routers ignore.
pub const OPTION_FTC: u8 = 0x5e;
/// Total length of the FTC option: kind, length, 16-bit trailer length.
pub const OPTION_FTC_LEN: usize = 4;

/// An immutable IPv4 header view.
#[derive(Debug, Clone, Copy)]
pub struct Ipv4View<'a> {
    buf: &'a [u8],
}

impl<'a> Ipv4View<'a> {
    /// Parses an IPv4 header at the start of `buf`.
    ///
    /// Validates version, header length, and that the buffer holds at least
    /// the full header. It does *not* verify the checksum; use
    /// [`Ipv4View::verify_checksum`].
    pub fn new(buf: &'a [u8]) -> WireResult<Self> {
        if buf.len() < MIN_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let v = Ipv4View { buf };
        if v.version() != 4 {
            return Err(WireError::BadMagic);
        }
        let ihl = v.header_len();
        if !(MIN_HEADER_LEN..=MAX_HEADER_LEN).contains(&ihl) || buf.len() < ihl {
            return Err(WireError::BadLength);
        }
        Ok(v)
    }

    /// IP version (must be 4).
    pub fn version(&self) -> u8 {
        self.buf[0] >> 4
    }

    /// Header length in bytes.
    pub fn header_len(&self) -> usize {
        usize::from(self.buf[0] & 0x0f) * 4
    }

    /// The DSCP/ECN byte.
    pub fn tos(&self) -> u8 {
        self.buf[1]
    }

    /// Total length of header + payload, in bytes.
    pub fn total_len(&self) -> u16 {
        u16::from_be_bytes([self.buf[2], self.buf[3]])
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        u16::from_be_bytes([self.buf[4], self.buf[5]])
    }

    /// Time-to-live.
    pub fn ttl(&self) -> u8 {
        self.buf[8]
    }

    /// L4 protocol number.
    pub fn protocol(&self) -> u8 {
        self.buf[9]
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.buf[12], self.buf[13], self.buf[14], self.buf[15])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.buf[16], self.buf[17], self.buf[18], self.buf[19])
    }

    /// The raw options bytes (between byte 20 and the end of the header).
    pub fn options(&self) -> &'a [u8] {
        &self.buf[MIN_HEADER_LEN..self.header_len()]
    }

    /// Verifies the header checksum.
    pub fn verify_checksum(&self) -> WireResult<()> {
        if checksum::checksum(&self.buf[..self.header_len()]) == 0 {
            Ok(())
        } else {
            Err(WireError::BadChecksum)
        }
    }

    /// Scans the options for the FTC option and returns the advertised
    /// piggyback trailer length if present.
    pub fn ftc_option(&self) -> Option<u16> {
        let mut opts = self.options();
        while let Some(&kind) = opts.first() {
            match kind {
                0 => return None,       // end of options list
                1 => opts = &opts[1..], // no-op padding
                OPTION_FTC => {
                    if opts.len() >= OPTION_FTC_LEN && opts[1] as usize == OPTION_FTC_LEN {
                        return Some(u16::from_be_bytes([opts[2], opts[3]]));
                    }
                    return None;
                }
                _ => {
                    // other option: skip by its length byte
                    let len = *opts.get(1)? as usize;
                    if len < 2 || len > opts.len() {
                        return None;
                    }
                    opts = &opts[len..];
                }
            }
        }
        None
    }
}

/// Field-by-field description used to emit an IPv4 header.
#[derive(Debug, Clone, Copy)]
pub struct Ipv4Fields {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// L4 protocol number.
    pub protocol: u8,
    /// Payload length in bytes (header length is added automatically).
    pub payload_len: u16,
    /// Time-to-live.
    pub ttl: u8,
    /// Identification field.
    pub ident: u16,
    /// Whether to reserve space for the FTC option.
    pub with_ftc_option: bool,
}

impl Default for Ipv4Fields {
    fn default() -> Self {
        Ipv4Fields {
            src: Ipv4Addr::UNSPECIFIED,
            dst: Ipv4Addr::UNSPECIFIED,
            protocol: PROTO_UDP,
            payload_len: 0,
            ttl: 64,
            ident: 0,
            with_ftc_option: false,
        }
    }
}

impl Ipv4Fields {
    /// The header length this description will emit.
    pub fn header_len(&self) -> usize {
        if self.with_ftc_option {
            MIN_HEADER_LEN + OPTION_FTC_LEN
        } else {
            MIN_HEADER_LEN
        }
    }
}

/// Emits an IPv4 header into `buf` and returns the header length.
///
/// When `fields.with_ftc_option` is set, an FTC option with trailer length 0
/// is included; use [`set_ftc_trailer_len`] to update it later.
pub fn emit(buf: &mut [u8], fields: &Ipv4Fields) -> WireResult<usize> {
    let hlen = fields.header_len();
    if buf.len() < hlen {
        return Err(WireError::Truncated);
    }
    let total_len = hlen as u16 + fields.payload_len;
    buf[0] = 0x40 | (hlen / 4) as u8;
    buf[1] = 0;
    buf[2..4].copy_from_slice(&total_len.to_be_bytes());
    buf[4..6].copy_from_slice(&fields.ident.to_be_bytes());
    buf[6..8].copy_from_slice(&[0, 0]); // flags + fragment offset
    buf[8] = fields.ttl;
    buf[9] = fields.protocol;
    buf[10..12].copy_from_slice(&[0, 0]); // checksum placeholder
    buf[12..16].copy_from_slice(&fields.src.octets());
    buf[16..20].copy_from_slice(&fields.dst.octets());
    if fields.with_ftc_option {
        buf[20] = OPTION_FTC;
        buf[21] = OPTION_FTC_LEN as u8;
        buf[22..24].copy_from_slice(&0u16.to_be_bytes());
    }
    let c = checksum::checksum(&buf[..hlen]);
    buf[10..12].copy_from_slice(&c.to_be_bytes());
    Ok(hlen)
}

/// Rewrites the total-length field of the IPv4 header at the start of `buf`,
/// incrementally fixing the header checksum.
pub fn set_total_len(buf: &mut [u8], total_len: u16) -> WireResult<()> {
    if buf.len() < MIN_HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let old = u16::from_be_bytes([buf[2], buf[3]]);
    buf[2..4].copy_from_slice(&total_len.to_be_bytes());
    let hc = u16::from_be_bytes([buf[10], buf[11]]);
    let hc = checksum::update(hc, old, total_len);
    buf[10..12].copy_from_slice(&hc.to_be_bytes());
    Ok(())
}

/// Updates the FTC option's trailer-length field (fixing the checksum).
///
/// Returns `Err(Unsupported)` if the header carries no FTC option.
pub fn set_ftc_trailer_len(buf: &mut [u8], trailer_len: u16) -> WireResult<()> {
    let view = Ipv4View::new(buf)?;
    let hlen = view.header_len();
    // Locate the option (we only ever emit it first in the options area).
    let mut off = MIN_HEADER_LEN;
    while off + 1 < hlen {
        match buf[off] {
            0 => return Err(WireError::Unsupported),
            1 => off += 1,
            OPTION_FTC => {
                let old = u16::from_be_bytes([buf[off + 2], buf[off + 3]]);
                buf[off + 2..off + 4].copy_from_slice(&trailer_len.to_be_bytes());
                let hc = u16::from_be_bytes([buf[10], buf[11]]);
                // The two option payload bytes form one aligned 16-bit word
                // only when `off + 2` is even; our emit layout guarantees it.
                let hc = checksum::update(hc, old, trailer_len);
                buf[10..12].copy_from_slice(&hc.to_be_bytes());
                return Ok(());
            }
            _ => {
                let len = buf[off + 1] as usize;
                if len < 2 {
                    return Err(WireError::BadLength);
                }
                off += len;
            }
        }
    }
    Err(WireError::Unsupported)
}

/// Rewrites the source address (incremental checksum fix). Used by NATs.
pub fn set_src(buf: &mut [u8], addr: Ipv4Addr) -> WireResult<u32> {
    rewrite_addr(buf, 12, addr)
}

/// Rewrites the destination address (incremental checksum fix).
pub fn set_dst(buf: &mut [u8], addr: Ipv4Addr) -> WireResult<u32> {
    rewrite_addr(buf, 16, addr)
}

fn rewrite_addr(buf: &mut [u8], off: usize, addr: Ipv4Addr) -> WireResult<u32> {
    if buf.len() < MIN_HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let old = u32::from_be_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]);
    let new = u32::from_be_bytes(addr.octets());
    buf[off..off + 4].copy_from_slice(&addr.octets());
    let hc = u16::from_be_bytes([buf[10], buf[11]]);
    let hc = checksum::update_u32(hc, old, new);
    buf[10..12].copy_from_slice(&hc.to_be_bytes());
    Ok(old)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields() -> Ipv4Fields {
        Ipv4Fields {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(192, 168, 1, 9),
            protocol: PROTO_UDP,
            payload_len: 100,
            ttl: 61,
            ident: 0x1234,
            with_ftc_option: false,
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let mut buf = [0u8; 64];
        let f = fields();
        let hlen = emit(&mut buf, &f).unwrap();
        assert_eq!(hlen, MIN_HEADER_LEN);
        let v = Ipv4View::new(&buf).unwrap();
        assert_eq!(v.src(), f.src);
        assert_eq!(v.dst(), f.dst);
        assert_eq!(v.protocol(), PROTO_UDP);
        assert_eq!(v.total_len(), 120);
        assert_eq!(v.ttl(), 61);
        assert_eq!(v.ident(), 0x1234);
        v.verify_checksum().unwrap();
        assert_eq!(v.ftc_option(), None);
    }

    #[test]
    fn ftc_option_roundtrip() {
        let mut buf = [0u8; 64];
        let mut f = fields();
        f.with_ftc_option = true;
        let hlen = emit(&mut buf, &f).unwrap();
        assert_eq!(hlen, MIN_HEADER_LEN + OPTION_FTC_LEN);
        let v = Ipv4View::new(&buf).unwrap();
        v.verify_checksum().unwrap();
        assert_eq!(v.ftc_option(), Some(0));

        set_ftc_trailer_len(&mut buf, 314).unwrap();
        let v = Ipv4View::new(&buf).unwrap();
        v.verify_checksum().unwrap();
        assert_eq!(v.ftc_option(), Some(314));
    }

    #[test]
    fn ftc_option_missing() {
        let mut buf = [0u8; 64];
        emit(&mut buf, &fields()).unwrap();
        assert_eq!(
            set_ftc_trailer_len(&mut buf, 3),
            Err(WireError::Unsupported)
        );
    }

    #[test]
    fn total_len_update_keeps_checksum_valid() {
        let mut buf = [0u8; 64];
        emit(&mut buf, &fields()).unwrap();
        set_total_len(&mut buf, 400).unwrap();
        let v = Ipv4View::new(&buf).unwrap();
        assert_eq!(v.total_len(), 400);
        v.verify_checksum().unwrap();
    }

    #[test]
    fn nat_rewrites_keep_checksum_valid() {
        let mut buf = [0u8; 64];
        emit(&mut buf, &fields()).unwrap();
        set_src(&mut buf, Ipv4Addr::new(1, 2, 3, 4)).unwrap();
        set_dst(&mut buf, Ipv4Addr::new(8, 8, 8, 8)).unwrap();
        let v = Ipv4View::new(&buf).unwrap();
        assert_eq!(v.src(), Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(v.dst(), Ipv4Addr::new(8, 8, 8, 8));
        v.verify_checksum().unwrap();
    }

    #[test]
    fn rejects_bad_version_and_truncation() {
        let mut buf = [0u8; 64];
        emit(&mut buf, &fields()).unwrap();
        buf[0] = 0x65; // version 6
        assert_eq!(Ipv4View::new(&buf).unwrap_err(), WireError::BadMagic);
        assert_eq!(Ipv4View::new(&[0u8; 10]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn rejects_bad_ihl() {
        let mut buf = [0u8; 64];
        emit(&mut buf, &fields()).unwrap();
        buf[0] = 0x44; // ihl = 16 bytes < 20
        assert_eq!(Ipv4View::new(&buf).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn corrupted_checksum_detected() {
        let mut buf = [0u8; 64];
        emit(&mut buf, &fields()).unwrap();
        buf[15] ^= 0xff;
        let v = Ipv4View::new(&buf).unwrap();
        assert_eq!(v.verify_checksum(), Err(WireError::BadChecksum));
    }
}
