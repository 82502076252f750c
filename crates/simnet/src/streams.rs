//! The stream-domain registry: every `SimRng::stream` caller in the
//! workspace, in one place.
//!
//! [`SimRng::stream`](crate::SimRng::stream) derives an independent
//! generator from `(seed, label)`. Labels used to be ad-hoc per-module
//! constants, which made collisions (two subsystems drawing correlated
//! randomness from the same stream) invisible until someone diffed the
//! call sites by hand. This module is the single registry: a
//! [`StreamDomain`] names every caller, carries its high-bit tag, and a
//! compile-time check plus a unit test reject any two domains that
//! share both a seed family and a tag.
//!
//! ## Seed families
//!
//! A label only collides with another label *under the same seed*.
//! The workspace derives several independent seeds from one config
//! seed (e.g. the scenario engine hands `config.seed` to interaction
//! streams but `config.seed ^ DYNAMICS_SALT` to the dynamics runtime),
//! so the registry keys uniqueness on `(family, tag)`, not on the tag
//! alone. The two historically untagged domains —
//! [`StreamDomain::Interaction`] and [`StreamDomain::ServiceOp`] — share
//! the raw tag `0`; they are sound because one labels scenario-seed
//! streams and the other driver-seed streams, and the registry
//! documents exactly that instead of letting the overlap hide in two
//! distant files.
//!
//! Tag values are frozen: they are part of the reproducibility
//! contract (goldens, BENCH fingerprints, torture replays), so a new
//! domain takes a fresh value and an existing one never changes — not
//! even when its only user is gone ([`StreamDomain::ServiceRetry`]
//! keeps `1 << 62`, which it once shared with a retired scenario
//! domain). Retired tags are never handed out again: `0x7A00…` (in the
//! fault family) belonged to the wire-fault verdict streams, deleted
//! with the message-fault family.

/// The seed namespace a stream label lives in. Labels are unique per
/// family; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamFamily {
    /// Streams derived from the scenario config seed (`config.seed`).
    Scenario,
    /// Streams derived from the service-driver seed.
    Service,
    /// Streams derived from the fault-plan seed.
    Fault,
    /// Streams derived from the membership seed
    /// (`seed ^ MEMBERSHIP_SEED_SALT`, see
    /// [`membership`](crate::membership)).
    Membership,
}

/// One registered `SimRng::stream` caller.
///
/// The low bits of a label carry the per-draw coordinates (round, node,
/// epoch, attempt…); the domain tag occupies the high bits so streams
/// from different subsystems can never alias. Each variant documents
/// its low-bit layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamDomain {
    /// Per-(round, node) interaction streams of the scenario engine's
    /// sharded path. Low bits: `(round << 32) | node`.
    Interaction,
    /// Per-(epoch, node) op streams of the service driver. Low bits:
    /// `(epoch << 32) | node`.
    ServiceOp,
    /// Per-epoch interaction-quality streams of the service driver.
    /// Low bits: `epoch`.
    ServiceQuality,
    /// Per-(op, attempt) retry-backoff jitter of the service client.
    /// Low bits: `(op_id << 8) | (attempt & 0xff)`.
    ServiceRetry,
    /// Per-write storage-fault streams of the fault injector. Low
    /// bits: XORed write label (historical layout: the tag is XORed,
    /// not ORed, with the label).
    FaultStorage,
    /// Per-(round, block, pass) view-shuffle streams of the membership
    /// overlay. Low bits: `(round << 24) | (block << 2) | pass`, with
    /// `block` the 1,024-slot block (below `2^22`, as node ids are
    /// `u32`) and `pass` 0 for the serial claim step (block 0), 1 for
    /// the buffer draws and 2 for the merges' random trims. Rounds stay
    /// below `2^32`, clear of the tag.
    MembershipShuffle,
    /// Bootstrap view seeding of the membership overlay. Low bits:
    /// `node`.
    MembershipBootstrap,
}

impl StreamDomain {
    /// Every registered domain, for exhaustive collision checks.
    pub const ALL: [StreamDomain; 7] = [
        StreamDomain::Interaction,
        StreamDomain::ServiceOp,
        StreamDomain::ServiceQuality,
        StreamDomain::ServiceRetry,
        StreamDomain::FaultStorage,
        StreamDomain::MembershipShuffle,
        StreamDomain::MembershipBootstrap,
    ];

    /// The seed family this domain draws under.
    pub const fn family(self) -> StreamFamily {
        match self {
            StreamDomain::Interaction => StreamFamily::Scenario,
            StreamDomain::ServiceOp | StreamDomain::ServiceQuality | StreamDomain::ServiceRetry => {
                StreamFamily::Service
            }
            StreamDomain::FaultStorage => StreamFamily::Fault,
            StreamDomain::MembershipShuffle | StreamDomain::MembershipBootstrap => {
                StreamFamily::Membership
            }
        }
    }

    /// The high-bit tag combined with per-draw low bits to form the
    /// stream label. Frozen — see the [module docs](self).
    pub const fn tag(self) -> u64 {
        match self {
            // Historically untagged: the per-(round,node) /
            // per-(epoch,node) coordinates *are* the label.
            StreamDomain::Interaction | StreamDomain::ServiceOp => 0,
            StreamDomain::ServiceQuality => 1 << 61,
            StreamDomain::ServiceRetry => 1 << 62,
            StreamDomain::FaultStorage => 0x7B00_0000_0000_0000,
            StreamDomain::MembershipShuffle => 0x7C00_0000_0000_0000,
            StreamDomain::MembershipBootstrap => 0x7D00_0000_0000_0000,
        }
    }

    /// Derives the stream for this domain under `family_seed`, with
    /// the variant's documented low-bit coordinates ORed in.
    pub fn stream(self, family_seed: u64, low: u64) -> crate::SimRng {
        crate::SimRng::stream(family_seed, self.tag() | low)
    }
}

// Compile-time collision check: no two domains may share both a seed
// family and a tag. A colliding addition fails `cargo build`, not a
// test run.
const _: () = {
    let all = StreamDomain::ALL;
    let mut i = 0;
    while i < all.len() {
        let mut j = i + 1;
        while j < all.len() {
            let same_family = all[i].family() as u64 == all[j].family() as u64;
            assert!(
                !(same_family && all[i].tag() == all[j].tag()),
                "stream domain collision: two domains share a seed family and a tag"
            );
            j += 1;
        }
        i += 1;
    }
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_family_tag_collisions() {
        for (i, a) in StreamDomain::ALL.iter().enumerate() {
            for b in &StreamDomain::ALL[i + 1..] {
                assert!(
                    a.family() != b.family() || a.tag() != b.tag(),
                    "{a:?} and {b:?} collide on ({:?}, {:#x})",
                    a.family(),
                    a.tag()
                );
            }
        }
    }

    #[test]
    fn historical_tags_are_frozen() {
        // These values are load-bearing for golden / replay stability;
        // a renumbering must fail loudly.
        assert_eq!(StreamDomain::Interaction.tag(), 0);
        assert_eq!(StreamDomain::ServiceQuality.tag(), 1 << 61);
        assert_eq!(StreamDomain::ServiceRetry.tag(), 1 << 62);
        assert_eq!(StreamDomain::FaultStorage.tag(), 0x7B00_0000_0000_0000);
    }

    #[test]
    fn stream_matches_raw_call() {
        let mut a = StreamDomain::ServiceRetry.stream(42, 7);
        let mut b = crate::SimRng::stream(42, (1 << 62) | 7);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn same_tag_different_family_is_documented_not_accidental() {
        // The one intentional raw-tag overlap in the workspace.
        assert_eq!(
            StreamDomain::Interaction.tag(),
            StreamDomain::ServiceOp.tag()
        );
        assert_ne!(
            StreamDomain::Interaction.family(),
            StreamDomain::ServiceOp.family()
        );
    }
}
