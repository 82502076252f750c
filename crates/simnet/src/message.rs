//! Messages exchanged between simulated nodes.

use crate::time::SimTime;
use crate::NodeId;

/// Identifier of a message, unique within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub u64);

/// A protocol tag — the discriminant of a [`Payload::Record`].
///
/// A `Tag` is a `Copy` handle to a `'static` string. Protocols name
/// their message kinds as `const` tags (`Tag::new("pushsum")`), so the
/// hot path never allocates, clones or hashes a `String`: comparison is
/// a pointer check with a content fallback, and the wire size is the
/// tag's byte length.
#[derive(Debug, Clone, Copy)]
pub struct Tag(&'static str);

impl Tag {
    /// Wraps a static tag name; `const`, so protocols write
    /// `const PUSHSUM: Tag = Tag::new("pushsum");`.
    pub const fn new(name: &'static str) -> Self {
        Tag(name)
    }

    /// The tag name.
    pub fn as_str(self) -> &'static str {
        self.0
    }

    /// Byte length on the wire (the name's length).
    pub fn wire_len(self) -> usize {
        self.0.len()
    }
}

impl PartialEq for Tag {
    fn eq(&self, other: &Self) -> bool {
        // Equal `const` tags usually share the allocation: pointer
        // equality is the fast path, content equality keeps tags of
        // different provenance (two copies of one name) correct.
        std::ptr::eq(self.0, other.0) || self.0 == other.0
    }
}

impl Eq for Tag {}

impl From<&'static str> for Tag {
    fn from(value: &'static str) -> Self {
        Tag::new(value)
    }
}

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// Application payload carried by an [`Envelope`].
///
/// The simulator is payload-agnostic: higher layers define their own
/// protocol vocabulary. `Payload` covers the needs of the tsn workspace
/// (small tagged records) without forcing every protocol message through
/// serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Free-form text (used by examples and tests).
    Text(String),
    /// A tagged record: protocol discriminant plus small numeric fields.
    /// This is the workhorse for reputation / privacy protocol messages.
    /// The field buffer is typically drawn from the network's
    /// [`BufferPool`](crate::BufferPool) and recycled on consumption.
    Record {
        /// Protocol message kind, e.g. `"feedback.report"`.
        tag: Tag,
        /// Numeric fields keyed positionally by the protocol.
        fields: Vec<f64>,
    },
}

impl Payload {
    /// Approximate wire size in bytes, used by the network for
    /// bandwidth accounting and by the privacy ledger for exposure weight.
    pub fn wire_size(&self) -> usize {
        match self {
            Payload::Text(s) => s.len(),
            Payload::Record { tag, fields } => tag.wire_len() + fields.len() * 8,
        }
    }

    /// Convenience constructor for a tagged record.
    pub fn record(tag: impl Into<Tag>, fields: Vec<f64>) -> Self {
        Payload::Record {
            tag: tag.into(),
            fields,
        }
    }
}

impl From<&str> for Payload {
    fn from(value: &str) -> Self {
        Payload::Text(value.to_owned())
    }
}

impl From<String> for Payload {
    fn from(value: String) -> Self {
        Payload::Text(value)
    }
}

/// A message in flight: payload plus routing and timing metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Unique id of this message.
    pub id: MessageId,
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Time the message was handed to the network.
    pub sent_at: SimTime,
    /// The payload.
    pub payload: Payload,
}

impl Envelope {
    /// Approximate wire size (payload plus a fixed 48-byte header,
    /// mirroring a UDP-ish header + ids).
    pub fn wire_size(&self) -> usize {
        48 + self.payload.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_wire_sizes() {
        assert_eq!(Payload::from("abcd").wire_size(), 4);
        assert_eq!(Payload::record("t", vec![1.0, 2.0]).wire_size(), 1 + 16);
    }

    #[test]
    fn envelope_wire_size_includes_header() {
        let env = Envelope {
            id: MessageId(1),
            from: NodeId(0),
            to: NodeId(1),
            sent_at: SimTime::ZERO,
            payload: Payload::from("xy"),
        };
        assert_eq!(env.wire_size(), 50);
    }

    #[test]
    fn payload_from_string_types() {
        assert_eq!(Payload::from("a"), Payload::Text("a".into()));
        assert_eq!(Payload::from(String::from("b")), Payload::Text("b".into()));
    }

    #[test]
    fn tags_compare_by_content_across_provenance() {
        const PUSHSUM: Tag = Tag::new("pushsum");
        assert_eq!(PUSHSUM, Tag::new("pushsum"));
        let leaked: &'static str = Box::leak(String::from("pushsum").into_boxed_str());
        assert_eq!(PUSHSUM, Tag::new(leaked), "content fallback");
        assert_ne!(PUSHSUM, Tag::new("other"));
        assert_eq!(PUSHSUM.as_str(), "pushsum");
        assert_eq!(PUSHSUM.wire_len(), 7);
    }
}
