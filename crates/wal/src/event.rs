//! The tagged event vocabulary of the mutation log and its fixed binary
//! codec, including the fixed-width document record that the log's insert
//! events and the snapshot payload share.
//!
//! Exactly the three serving-tier mutations exist as events — insert a
//! document, record a visit, replace a popularity score — because those
//! are the only operations that change serving state. Every field is
//! encoded little-endian at a fixed offset; floats travel as their IEEE
//! bit patterns (`f64::to_bits`), so replaying an event reproduces the
//! *bit-identical* value that was applied live, with no text round-trip
//! in between.

use rrp_core::Document;

/// Bytes in one encoded [`Document`] record: id ‖ popularity bits ‖
/// unexplored flag ‖ age, the body of an insert event and one entry of a
/// snapshot payload.
pub const DOCUMENT_RECORD_LEN: usize = 25;

/// Append `doc`'s fixed-width record to `out`: id `u64`-le, popularity as
/// its IEEE bits `u64`-le, the unexplored flag as one byte (0 or 1), age in
/// days `u64`-le.
pub fn encode_document(doc: &Document, out: &mut Vec<u8>) {
    out.extend_from_slice(&doc.id.to_le_bytes());
    out.extend_from_slice(&doc.popularity.to_bits().to_le_bytes());
    out.push(doc.is_unexplored as u8);
    out.extend_from_slice(&doc.age_days.to_le_bytes());
}

/// Decode one record written by [`encode_document`]. `None` unless `bytes`
/// is exactly [`DOCUMENT_RECORD_LEN`] long with a flag byte of 0 or 1.
pub fn decode_document(bytes: &[u8]) -> Option<Document> {
    if bytes.len() != DOCUMENT_RECORD_LEN || bytes[16] > 1 {
        return None;
    }
    Some(Document {
        id: read_u64(&bytes[0..8]),
        popularity: f64::from_bits(read_u64(&bytes[8..16])),
        is_unexplored: bytes[16] == 1,
        age_days: read_u64(&bytes[17..25]),
    })
}

const TAG_INSERT: u8 = 0;
const TAG_VISIT: u8 = 1;
const TAG_SET_POPULARITY: u8 = 2;

/// One logged mutation, in the order the service applied it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalEvent {
    /// A document was appended to the store (sequence = insertion order).
    Insert(Document),
    /// A user visit was recorded against store sequence `seq`.
    Visit {
        /// The store sequence the visit targeted.
        seq: u64,
    },
    /// The popularity score of store sequence `seq` was replaced.
    SetPopularity {
        /// The store sequence the update targeted.
        seq: u64,
        /// The replacement score, exact to the bit.
        popularity: f64,
    },
}

impl WalEvent {
    /// Append this event's payload bytes (tag + fields) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            WalEvent::Insert(doc) => {
                out.push(TAG_INSERT);
                encode_document(&doc, out);
            }
            WalEvent::Visit { seq } => {
                out.push(TAG_VISIT);
                out.extend_from_slice(&seq.to_le_bytes());
            }
            WalEvent::SetPopularity { seq, popularity } => {
                out.push(TAG_SET_POPULARITY);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&popularity.to_bits().to_le_bytes());
            }
        }
    }

    /// Decode one payload. `None` means the bytes are not a well-formed
    /// event (unknown tag, wrong length, non-boolean flag) — the reader
    /// treats that exactly like a checksum failure.
    pub fn decode(payload: &[u8]) -> Option<WalEvent> {
        let (&tag, rest) = payload.split_first()?;
        match tag {
            TAG_INSERT => decode_document(rest).map(WalEvent::Insert),
            TAG_VISIT => {
                if rest.len() != 8 {
                    return None;
                }
                Some(WalEvent::Visit {
                    seq: read_u64(rest),
                })
            }
            TAG_SET_POPULARITY => {
                if rest.len() != 16 {
                    return None;
                }
                Some(WalEvent::SetPopularity {
                    seq: read_u64(&rest[0..8]),
                    popularity: f64::from_bits(read_u64(&rest[8..16])),
                })
            }
            _ => None,
        }
    }
}

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("caller sliced exactly 8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(event: WalEvent) {
        let mut buf = Vec::new();
        event.encode_into(&mut buf);
        assert_eq!(WalEvent::decode(&buf), Some(event), "{event:?}");
    }

    #[test]
    fn every_event_round_trips_bit_exactly() {
        round_trip(WalEvent::Insert(Document::unexplored(42)));
        round_trip(WalEvent::Insert(
            Document::established(7, 0.1 + 0.2).with_age(365),
        ));
        round_trip(WalEvent::Insert(Document::established(
            u64::MAX,
            f64::MIN_POSITIVE,
        )));
        round_trip(WalEvent::Visit { seq: 0 });
        round_trip(WalEvent::Visit { seq: u64::MAX });
        round_trip(WalEvent::SetPopularity {
            seq: 3,
            popularity: 1.0 / 3.0,
        });
    }

    #[test]
    fn popularity_travels_as_exact_bits() {
        // A value with no short decimal form: the codec must not lose the
        // trailing bits a text round-trip could.
        let awkward = f64::from_bits(0x3FB9_9999_9999_999A); // 0.1
        let mut buf = Vec::new();
        WalEvent::SetPopularity {
            seq: 1,
            popularity: awkward,
        }
        .encode_into(&mut buf);
        match WalEvent::decode(&buf) {
            Some(WalEvent::SetPopularity { popularity, .. }) => {
                assert_eq!(popularity.to_bits(), awkward.to_bits());
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicked() {
        assert_eq!(WalEvent::decode(&[]), None);
        assert_eq!(WalEvent::decode(&[9]), None); // unknown tag
        assert_eq!(WalEvent::decode(&[TAG_VISIT, 1, 2]), None); // short
        let mut buf = Vec::new();
        WalEvent::Insert(Document::unexplored(1)).encode_into(&mut buf);
        buf[17] = 2; // non-boolean unexplored flag
        assert_eq!(WalEvent::decode(&buf), None);
        buf.push(0); // trailing garbage
        buf[17] = 1;
        assert_eq!(WalEvent::decode(&buf), None);
    }
}
