//! The routable message record used by the §4.2 sorting-based protocols.
//!
//! The deterministic router moves whole messages (destination, unique id,
//! original payload) through the sorting phases; the sort key is
//! `(destination, uid)`, with dummy records carrying "nominal destination
//! `p`" exactly as Step 1 of the protocol prescribes, so they sort after
//! every real message.

use bvl_model::{Payload, Word, INLINE_WORDS};

/// A message record in transit through the protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Destination processor, or `p` for a dummy.
    pub dest: u32,
    /// Globally unique id (ties the record back to its demand; also breaks
    /// sort-key ties so records are totally ordered).
    pub uid: u64,
    /// The original message payload (inline for short bodies, so a record
    /// moves through the sorting rounds without allocating).
    pub payload: Payload,
}

/// Words of an encoded record ahead of the original body: dest, uid, tag.
const HEADER_WORDS: usize = 3;

impl Record {
    /// A dummy record (nominal destination `p`).
    pub fn dummy(p: usize, uid: u64) -> Record {
        Record {
            dest: p as u32,
            uid,
            payload: Payload::tagged(0),
        }
    }

    /// Is this a dummy for a `p`-processor machine?
    pub fn is_dummy(&self, p: usize) -> bool {
        self.dest as usize >= p
    }

    /// The sort key.
    pub fn key(&self) -> (u32, u64) {
        (self.dest, self.uid)
    }

    /// Encode into a message payload (constant-size per the model: the
    /// record rides in one message): `[dest, uid, tag, data..]` under
    /// [`RECORD_TAG`]. Bodies of up to three words encode on the stack
    /// into an inline payload.
    pub fn to_payload(&self) -> Payload {
        let data = self.payload.data();
        let header = [self.dest as Word, self.uid as Word, self.payload.tag as Word];
        let len = HEADER_WORDS + data.len();
        if len <= INLINE_WORDS {
            let mut words = [0 as Word; INLINE_WORDS];
            words[..HEADER_WORDS].copy_from_slice(&header);
            words[HEADER_WORDS..len].copy_from_slice(data);
            Payload::words(RECORD_TAG, &words[..len])
        } else {
            let mut words = Vec::with_capacity(len);
            words.extend_from_slice(&header);
            words.extend_from_slice(data);
            Payload::from_vec(RECORD_TAG, words)
        }
    }

    /// Decode from a payload produced by [`Record::to_payload`].
    pub fn from_payload(p: &Payload) -> Record {
        assert_eq!(p.tag, RECORD_TAG, "not a record payload");
        let d = p.data();
        Record {
            dest: d[0] as u32,
            uid: d[1] as u64,
            payload: Payload::words(d[2] as u32, &d[HEADER_WORDS..]),
        }
    }

    /// The original message payload this record carries.
    pub fn original_payload(&self) -> Payload {
        self.payload.clone()
    }
}

/// Payload tag marking an encoded [`Record`].
pub const RECORD_TAG: u32 = 0x5EC0;

impl PartialOrd for Record {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Record {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip() {
        for data in [&[][..], &[10, -20, 30], &[1, 2, 3, 4], &[5, 6, 7, 8, 9, 10, 11]] {
            let r = Record {
                dest: 3,
                uid: 42,
                payload: Payload::words(7, data),
            };
            let encoded = r.to_payload();
            assert_eq!(encoded.tag, RECORD_TAG);
            assert_eq!(&encoded.data()[..3], &[3, 42, 7]);
            assert_eq!(&encoded.data()[3..], data);
            assert_eq!(encoded.is_inline(), data.len() <= 3);
            let back = Record::from_payload(&encoded);
            assert_eq!(r, back);
            assert_eq!(back.original_payload().tag, 7);
            assert_eq!(back.original_payload().data(), data);
            assert_eq!(back.payload.is_inline(), data.len() <= INLINE_WORDS);
        }
    }

    #[test]
    fn dummies_sort_last() {
        let real = Record {
            dest: 7,
            uid: 999,
            payload: Payload::tagged(0),
        };
        let dummy = Record::dummy(8, 0);
        assert!(real < dummy);
        assert!(dummy.is_dummy(8));
        assert!(!real.is_dummy(8));
    }

    #[test]
    fn ordering_by_dest_then_uid() {
        let rec = |dest, uid| Record {
            dest,
            uid,
            payload: Payload::tagged(0),
        };
        let (a, b, c) = (rec(1, 5), rec(1, 6), rec(2, 0));
        assert!(a < b && b < c);
    }
}
