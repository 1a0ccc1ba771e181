//! The collection wire protocol.
//!
//! A node opens a TCP connection, sends one **hello frame** — magic, name
//! length, name — and then streams an ordinary trace byte stream: the
//! `ktrace-io` file header followed by fixed-size buffer records, exactly
//! the bytes a [`TraceSession`](ktrace_io::TraceSession) writes to any
//! sink. The collector needs no custom framing beyond the hello, because
//! the trace format is already self-describing and record-aligned.
//!
//! ```text
//! +-------------------------------------------------------------+
//! | hello magic "KCOLHELO" (8) | name_len u32 LE | name (UTF-8) |
//! +-------------------------------------------------------------+
//! | trace file header (fixed 40 bytes + registry text)          |
//! | record 0 | record 1 | …   (fixed record_size each)          |
//! +-------------------------------------------------------------+
//! ```

use ktrace_io::file::{FIXED_HEADER_BYTES, REGISTRY_LEN_OFFSET};
use std::io::{Error, ErrorKind, Read, Write};

/// Identifies a collector hello frame.
pub const HELLO_MAGIC: [u8; 8] = *b"KCOLHELO";

/// Longest accepted node name, bytes.
pub const MAX_NODE_NAME: usize = 128;

/// Registry-text cap when reading a stream header; a hostile or desynced
/// peer cannot make the collector allocate unboundedly.
pub const MAX_REGISTRY_BYTES: usize = 16 * 1024 * 1024;

/// True if `name` is usable as both a wire identity and a store directory
/// name: 1–[`MAX_NODE_NAME`] bytes of `[A-Za-z0-9._-]`, not starting with
/// a dot or a dash.
pub fn valid_node_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NODE_NAME
        && !name.starts_with(['.', '-'])
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// Writes the hello frame naming this node.
pub fn write_hello(w: &mut impl Write, name: &str) -> std::io::Result<()> {
    if !valid_node_name(name) {
        return Err(Error::new(
            ErrorKind::InvalidInput,
            format!("invalid node name {name:?}"),
        ));
    }
    w.write_all(&HELLO_MAGIC)?;
    w.write_all(&(name.len() as u32).to_le_bytes())?;
    w.write_all(name.as_bytes())
}

/// Reads and validates a hello frame, returning the node name.
pub fn read_hello(r: &mut impl Read) -> std::io::Result<String> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != HELLO_MAGIC {
        return Err(Error::new(ErrorKind::InvalidData, "bad hello magic"));
    }
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_NODE_NAME {
        return Err(Error::new(ErrorKind::InvalidData, "bad hello name length"));
    }
    let mut name = vec![0u8; len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name)
        .map_err(|_| Error::new(ErrorKind::InvalidData, "node name not UTF-8"))?;
    if !valid_node_name(&name) {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("invalid node name {name:?}"),
        ));
    }
    Ok(name)
}

/// Reads the raw bytes of a trace file header from the stream: the fixed
/// prefix, then exactly the registry text it declares. Returns the complete
/// header bytes, decodable with `FileHeader::decode` and reusable verbatim
/// as the header of every store shard.
pub fn read_header_bytes(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut fixed = [0u8; FIXED_HEADER_BYTES];
    r.read_exact(&mut fixed)?;
    let registry_len = u64::from_le_bytes(
        fixed[REGISTRY_LEN_OFFSET..REGISTRY_LEN_OFFSET + 8]
            .try_into()
            .expect("8-byte slice"),
    );
    if registry_len > MAX_REGISTRY_BYTES as u64 {
        return Err(Error::new(
            ErrorKind::InvalidData,
            "stream header declares an oversized registry",
        ));
    }
    let mut bytes = Vec::with_capacity(FIXED_HEADER_BYTES + registry_len as usize);
    bytes.extend_from_slice(&fixed);
    let mut registry = vec![0u8; registry_len as usize];
    r.read_exact(&mut registry)?;
    bytes.extend_from_slice(&registry);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_format::EventRegistry;
    use ktrace_io::FileHeader;
    use std::io::Cursor;

    #[test]
    fn hello_round_trips() {
        let mut wire = Vec::new();
        write_hello(&mut wire, "web-3.rack_9").unwrap();
        assert_eq!(read_hello(&mut Cursor::new(&wire)).unwrap(), "web-3.rack_9");
    }

    #[test]
    fn bad_names_rejected_on_both_sides() {
        for bad in ["", ".hidden", "-flag", "a/b", "a b", &"x".repeat(129)] {
            assert!(!valid_node_name(bad), "{bad:?} should be invalid");
            assert!(write_hello(&mut Vec::new(), bad).is_err());
        }
        assert!(valid_node_name("node-0"));
        // A forged on-wire name fails the read side too.
        let mut wire = Vec::new();
        wire.extend_from_slice(&HELLO_MAGIC);
        wire.extend_from_slice(&3u32.to_le_bytes());
        wire.extend_from_slice(b"a/b");
        assert!(read_hello(&mut Cursor::new(&wire)).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut wire = Vec::new();
        write_hello(&mut wire, "n").unwrap();
        wire[0] ^= 0xff;
        assert!(read_hello(&mut Cursor::new(&wire)).is_err());
    }

    #[test]
    fn header_bytes_round_trip_through_decode() {
        let header = FileHeader {
            ncpus: 2,
            buffer_words: 64,
            ticks_per_sec: 1_000_000_000,
            clock_synchronized: true,
            registry: EventRegistry::with_builtin(),
        };
        let encoded = header.encode();
        let read = read_header_bytes(&mut Cursor::new(&encoded)).unwrap();
        assert_eq!(read, encoded);
        let (decoded, used) = FileHeader::decode(&read).unwrap();
        assert_eq!(used, read.len());
        assert_eq!(decoded.record_size(), header.record_size());
    }

    #[test]
    fn oversized_registry_rejected() {
        let mut fixed = vec![0u8; 40];
        fixed[..8].copy_from_slice(b"KTRACE01");
        fixed[32..40].copy_from_slice(&(u64::MAX).to_le_bytes());
        assert!(read_header_bytes(&mut Cursor::new(&fixed)).is_err());
    }
}
