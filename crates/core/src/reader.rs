//! Decoding raw buffer words back into events.
//!
//! Because events never cross buffer boundaries, a reader can start at any
//! alignment point of a large trace and interpret forward (§3.2's "random
//! access" property). [`BufferWalk`] is the one decode loop: it walks one
//! buffer, reconstructs full 64-bit timestamps from the buffer's time
//! anchor, validates the event chain, and reports every anomaly (zero
//! headers, overruns, missing anchors, timestamp regressions) as
//! [`GarbleNote`]s instead of failing — "with high probability … errors can
//! be detected by the post-processing tools" (§3.1).
//!
//! The walk borrows: each [`EventRef`] points its payload into the buffer
//! words, so a consumer that only counts events or keeps a few of them
//! allocates nothing per event. [`parse_buffer`] is the walk plus a copy of
//! every event into an owned [`RawEvent`], for callers that keep them all.
//! Owned events keep their payload on the heap: an inline fixed-size payload
//! was tried and rejected, because it grew `RawEvent` from 64 to 88 bytes
//! and made every sort and move of a loaded trace slower than the
//! allocations it saved.

use ktrace_clock::WrapExtender;
use ktrace_format::{EventHeader, MajorId, MinorId};

/// One decoded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawEvent {
    /// CPU whose region the event came from.
    pub cpu: usize,
    /// Buffer sequence number within that region.
    pub seq: u64,
    /// Word offset of the header within the buffer.
    pub offset: usize,
    /// Reconstructed full 64-bit timestamp (clock ticks).
    pub time: u64,
    /// The raw 32-bit stamp from the header.
    pub ts32: u32,
    /// Major ID.
    pub major: MajorId,
    /// Minor ID.
    pub minor: MinorId,
    /// Payload words.
    pub payload: Vec<u64>,
}

impl RawEvent {
    /// True for stream-control filler events.
    pub fn is_filler(&self) -> bool {
        self.major == MajorId::CONTROL && self.minor == ktrace_format::ids::control::FILLER
    }

    /// True for any tracing-infrastructure control event.
    pub fn is_control(&self) -> bool {
        self.major == MajorId::CONTROL
    }

    /// Total size in words (header + payload).
    pub fn len_words(&self) -> usize {
        1 + self.payload.len()
    }
}

/// An anomaly detected while decoding a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GarbleNote {
    /// A zero header word: a reservation that was never filled in (killed or
    /// long-blocked logger, §3.1). Decoding cannot continue past it.
    ZeroHeader {
        /// Word offset of the bad header.
        offset: usize,
    },
    /// An event length that runs past the buffer end (random data where a
    /// header was expected).
    Overrun {
        /// Word offset of the bad header.
        offset: usize,
        /// Claimed total length in words.
        len_words: usize,
    },
    /// The buffer does not begin with a time anchor; timestamps in it can
    /// only be approximated.
    MissingAnchor,
    /// A timestamp stepped backwards within the buffer, which the reservation
    /// algorithm makes impossible for honestly logged events.
    NonMonotonic {
        /// Word offset of the offending event.
        offset: usize,
    },
}

/// The result of decoding one buffer.
#[derive(Debug, Clone)]
pub struct ParsedBuffer {
    /// Every decoded event, control events included, in buffer order.
    pub events: Vec<RawEvent>,
    /// Anomalies found.
    pub notes: Vec<GarbleNote>,
    /// Words consumed by filler events (space overhead accounting, E6).
    pub filler_words: usize,
    /// The last reconstructed timestamp, to hint the next buffer if its
    /// anchor is damaged.
    pub end_time: Option<u64>,
}

impl ParsedBuffer {
    /// Events excluding tracing-infrastructure control events.
    pub fn data_events(&self) -> impl Iterator<Item = &RawEvent> {
        self.events.iter().filter(|e| !e.is_control())
    }

    /// True if the buffer decoded without anomalies.
    pub fn clean(&self) -> bool {
        self.notes.is_empty()
    }
}

/// One event viewed in place: the decoded header, the reconstructed time,
/// and the payload borrowed from the buffer words. [`BufferWalk`] yields
/// these; [`EventRef::to_raw`] copies one out when a caller keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRef<'a> {
    /// Word offset of the header within the buffer.
    pub offset: usize,
    /// Reconstructed full 64-bit timestamp (clock ticks).
    pub time: u64,
    /// The raw 32-bit stamp from the header.
    pub ts32: u32,
    /// Major ID.
    pub major: MajorId,
    /// Minor ID.
    pub minor: MinorId,
    /// Payload words, borrowed from the buffer.
    pub payload: &'a [u64],
}

impl EventRef<'_> {
    /// True for any tracing-infrastructure control event.
    #[inline]
    pub fn is_control(&self) -> bool {
        self.major == MajorId::CONTROL
    }

    /// An owned copy, tagged with the buffer's CPU and sequence number.
    #[inline]
    pub fn to_raw(&self, cpu: usize, seq: u64) -> RawEvent {
        RawEvent {
            cpu,
            seq,
            offset: self.offset,
            time: self.time,
            ts32: self.ts32,
            major: self.major,
            minor: self.minor,
            payload: self.payload.to_vec(),
        }
    }
}

/// The one decode loop: a walk over a buffer's words that allocates
/// nothing per event (only a note per anomaly).
///
/// Each step decodes a header, rebuilds the 64-bit time from the buffer's
/// anchor (or `time_hint` when the anchor is missing), and yields the event
/// with its payload borrowed. Anomalies accumulate as [`GarbleNote`]s; a
/// zero header or an overrun ends the walk. After the walk,
/// [`into_notes`](BufferWalk::into_notes),
/// [`end_time`](BufferWalk::end_time) and
/// [`filler_words`](BufferWalk::filler_words) report what
/// [`parse_buffer`] reports, which is this walk plus a copy per event.
#[derive(Debug)]
pub struct BufferWalk<'a> {
    words: &'a [u64],
    off: usize,
    extender: Option<WrapExtender>,
    time_hint: Option<u64>,
    notes: Vec<GarbleNote>,
    filler_words: usize,
    end_time: Option<u64>,
}

impl<'a> BufferWalk<'a> {
    /// Starts a walk over one buffer's words. `time_hint` supplies an
    /// approximate full timestamp (e.g. the previous buffer's `end_time`)
    /// used when the buffer's own anchor is missing or damaged.
    #[inline]
    pub fn new(words: &'a [u64], time_hint: Option<u64>) -> BufferWalk<'a> {
        BufferWalk {
            words,
            off: 0,
            extender: None,
            time_hint,
            notes: Vec::new(),
            filler_words: 0,
            end_time: None,
        }
    }

    /// The anomalies, consuming the walk.
    pub fn into_notes(self) -> Vec<GarbleNote> {
        self.notes
    }

    /// The time of the last event yielded, to hint the next buffer.
    pub fn end_time(&self) -> Option<u64> {
        self.end_time
    }

    /// Words covered by the filler events yielded so far.
    pub fn filler_words(&self) -> usize {
        self.filler_words
    }

    /// Ends the walk after an anomaly that makes the rest undecodable.
    #[cold]
    fn stop(&mut self, note: GarbleNote) -> Option<EventRef<'a>> {
        self.notes.push(note);
        self.off = self.words.len();
        None
    }
}

impl<'a> Iterator for BufferWalk<'a> {
    type Item = EventRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<EventRef<'a>> {
        let (words, off) = (self.words, self.off);
        let &word = words.get(off)?;
        let Ok(header) = EventHeader::decode(word) else {
            return self.stop(GarbleNote::ZeroHeader { offset: off });
        };
        let len = header.len_words as usize;
        if off + len > words.len() {
            return self.stop(GarbleNote::Overrun {
                offset: off,
                len_words: len,
            });
        }
        let payload = &words[off + 1..off + len];

        // A time anchor re-seeds the extender with the full 64-bit time.
        if header.is_time_anchor() && !payload.is_empty() {
            let full = payload[0];
            match &mut self.extender {
                Some(e) => {
                    if full < e.last() {
                        self.notes.push(GarbleNote::NonMonotonic { offset: off });
                    }
                    e.reseed(full);
                }
                None => self.extender = Some(WrapExtender::new(full)),
            }
        } else if off == 0 {
            self.notes.push(GarbleNote::MissingAnchor);
        }

        let time = match &mut self.extender {
            Some(e) => {
                let prev = e.last();
                let t = e.extend(header.timestamp);
                if t < prev {
                    self.notes.push(GarbleNote::NonMonotonic { offset: off });
                }
                t
            }
            None => match self.time_hint {
                Some(hint) => {
                    let mut e = WrapExtender::new(hint);
                    let t = e.extend(header.timestamp);
                    self.extender = Some(e);
                    t
                }
                None => header.timestamp as u64,
            },
        };

        if header.is_filler() {
            self.filler_words += len;
        }
        self.off = off + len;
        self.end_time = Some(time);
        Some(EventRef {
            offset: off,
            time,
            ts32: header.timestamp,
            major: header.major,
            minor: header.minor,
            payload,
        })
    }
}

/// The full time of the anchor a buffer starts with, if [`BufferWalk`]
/// would accept it as one. `prefix` holds the buffer's first words (two
/// suffice) and `buffer_words` its length. Lets an index read three words
/// per record instead of the record.
pub fn leading_anchor(prefix: &[u64], buffer_words: usize) -> Option<u64> {
    let header = EventHeader::decode(*prefix.first()?).ok()?;
    let len = header.len_words as usize;
    if header.is_time_anchor() && len >= 2 && len <= buffer_words {
        prefix.get(1).copied()
    } else {
        None
    }
}

/// Decodes the words of buffer `seq` from `cpu`'s region into owned
/// events: a [`BufferWalk`] that copies every event out.
///
/// `time_hint` supplies an approximate full timestamp (e.g. the previous
/// buffer's `end_time`) used when the buffer's own anchor is missing or
/// damaged.
pub fn parse_buffer(cpu: usize, seq: u64, words: &[u64], time_hint: Option<u64>) -> ParsedBuffer {
    let mut walk = BufferWalk::new(words, time_hint);
    // A push loop: `collect` over the walk measured slower here.
    let mut events = Vec::new();
    for e in walk.by_ref() {
        events.push(e.to_raw(cpu, seq));
    }
    ParsedBuffer {
        events,
        filler_words: walk.filler_words(),
        end_time: walk.end_time(),
        notes: walk.into_notes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktrace_format::ids::control;

    fn anchor(full_ts: u64, cpu: u64) -> Vec<u64> {
        let h =
            EventHeader::new(full_ts as u32, 2, MajorId::CONTROL, control::TIME_ANCHOR).unwrap();
        vec![h.encode(), full_ts, cpu]
    }

    fn event(ts32: u32, major: MajorId, minor: u16, payload: &[u64]) -> Vec<u64> {
        let h = EventHeader::new(ts32, payload.len(), major, minor).unwrap();
        let mut v = vec![h.encode()];
        v.extend_from_slice(payload);
        v
    }

    #[test]
    fn parses_anchored_buffer() {
        let mut words = anchor(0x5_0000_0100, 2);
        words.extend(event(0x0000_0150, MajorId::TEST, 1, &[10, 20]));
        words.extend(event(0x0000_0200, MajorId::MEM, 2, &[]));
        let p = parse_buffer(2, 0, &words, None);
        assert!(p.clean(), "{:?}", p.notes);
        assert_eq!(p.events.len(), 3);
        assert_eq!(p.events[1].time, 0x5_0000_0150);
        assert_eq!(p.events[1].payload, vec![10, 20]);
        assert_eq!(p.events[2].time, 0x5_0000_0200);
        assert_eq!(p.end_time, Some(0x5_0000_0200));
        assert_eq!(p.data_events().count(), 2);
    }

    #[test]
    fn timestamp_wrap_within_buffer() {
        let mut words = anchor(0x5_ffff_fff0, 0);
        words.extend(event(0xffff_fffa, MajorId::TEST, 1, &[]));
        words.extend(event(0x0000_0004, MajorId::TEST, 2, &[]));
        let p = parse_buffer(0, 0, &words, None);
        assert!(p.clean());
        assert_eq!(p.events[1].time, 0x5_ffff_fffa);
        assert_eq!(p.events[2].time, 0x6_0000_0004);
    }

    #[test]
    fn zero_header_stops_decode_with_note() {
        let mut words = anchor(1000, 0);
        words.extend(event(1001, MajorId::TEST, 1, &[7]));
        words.push(0); // unwritten reservation
        words.extend(event(1002, MajorId::TEST, 2, &[8])); // unreachable
        let p = parse_buffer(0, 0, &words, None);
        assert_eq!(p.events.len(), 2);
        assert_eq!(p.notes, vec![GarbleNote::ZeroHeader { offset: 5 }]);
    }

    #[test]
    fn overrun_detected() {
        let mut words = anchor(1000, 0);
        // Header claiming 500 words in a tiny buffer.
        let h = EventHeader::new(1001, 499, MajorId::TEST, 1).unwrap();
        words.push(h.encode());
        let p = parse_buffer(0, 0, &words, None);
        assert_eq!(p.events.len(), 1);
        assert!(matches!(
            p.notes[0],
            GarbleNote::Overrun {
                offset: 3,
                len_words: 500
            }
        ));
    }

    #[test]
    fn missing_anchor_uses_hint() {
        let words = event(0x0000_0042, MajorId::TEST, 1, &[]);
        let p = parse_buffer(0, 3, &words, Some(0x9_0000_0000));
        assert!(p.notes.contains(&GarbleNote::MissingAnchor));
        assert_eq!(p.events[0].time, 0x9_0000_0042);
        // Without a hint the 32-bit stamp is used as-is.
        let p2 = parse_buffer(0, 3, &words, None);
        assert_eq!(p2.events[0].time, 0x42);
    }

    #[test]
    fn nonmonotonic_flagged() {
        let mut words = anchor(0x1000, 0);
        words.extend(event(0x2000, MajorId::TEST, 1, &[]));
        // A stamp "before" the previous one: the extender wraps it forward a
        // full 2^32 and flags nothing... so craft a genuine regression by
        // reseeding via a second (corrupt) anchor going backwards.
        let mut bad_anchor = anchor(0x500, 0);
        // Give the corrupt anchor a plausible 32-bit stamp.
        words.append(&mut bad_anchor);
        words.extend(event(0x600, MajorId::TEST, 2, &[]));
        let p = parse_buffer(0, 0, &words, None);
        assert!(
            p.notes
                .iter()
                .any(|n| matches!(n, GarbleNote::NonMonotonic { .. })),
            "{:?}",
            p.notes
        );
    }

    #[test]
    fn filler_words_counted_and_filtered() {
        let mut words = anchor(10, 0);
        words.extend(event(11, MajorId::TEST, 1, &[1]));
        let f = EventHeader::filler(12, 5).unwrap();
        words.push(f.encode());
        words.extend([0u64; 4]); // filler body (uninitialized is fine)
        let p = parse_buffer(0, 0, &words, None);
        assert!(p.clean());
        assert_eq!(p.filler_words, 5);
        assert_eq!(p.data_events().count(), 1);
        assert!(p.events.iter().any(|e| e.is_filler()));
    }

    #[test]
    fn walk_borrows_what_parse_buffer_copies() {
        let mut words = anchor(0x7_0000_0010, 1);
        words.extend(event(0x0000_0020, MajorId::TEST, 1, &[4, 5, 6]));
        words.push(0); // unwritten reservation ends the walk
        words.extend(event(0x0000_0030, MajorId::TEST, 2, &[]));
        let parsed = parse_buffer(1, 9, &words, None);
        let mut walk = BufferWalk::new(&words, None);
        let owned: Vec<RawEvent> = walk.by_ref().map(|e| e.to_raw(1, 9)).collect();
        assert_eq!(owned, parsed.events);
        assert!(walk.next().is_none(), "a stopped walk stays stopped");
        assert_eq!(walk.end_time(), parsed.end_time);
        assert_eq!(walk.filler_words(), parsed.filler_words);
        assert_eq!(walk.into_notes(), parsed.notes);
        let second = BufferWalk::new(&words, None).nth(1).unwrap();
        assert_eq!(second.payload, &[4, 5, 6]);
        assert!(std::ptr::eq(second.payload.as_ptr(), &words[4]));
    }

    #[test]
    fn leading_anchor_agrees_with_the_walk() {
        let words = anchor(0x3_0000_0000, 0);
        assert_eq!(leading_anchor(&words, 64), Some(0x3_0000_0000));
        // A bare anchor header carries no time; neither accepts it.
        let bare = EventHeader::new(1, 0, MajorId::CONTROL, control::TIME_ANCHOR).unwrap();
        assert_eq!(leading_anchor(&[bare.encode(), 5], 64), None);
        let p = parse_buffer(0, 0, &[bare.encode()], None);
        assert!(p.notes.contains(&GarbleNote::MissingAnchor));
        // Neither does one that runs past the buffer.
        assert_eq!(leading_anchor(&words, 2), None);
        assert_eq!(leading_anchor(&event(1, MajorId::TEST, 1, &[9]), 64), None);
        assert_eq!(leading_anchor(&[0, 0], 64), None);
    }

    #[test]
    fn empty_buffer_parses_empty() {
        let p = parse_buffer(0, 0, &[], None);
        assert!(p.events.is_empty());
        assert!(p.clean());
        assert_eq!(p.end_time, None);
    }
}
