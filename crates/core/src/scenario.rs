//! The end-to-end decentralized social-network scenario.
//!
//! This is the system the paper argues for, assembled from every
//! substrate: users on a small-world social graph publish and request
//! content under *privacy policies*, a *reputation mechanism* scores
//! providers from (policy-filtered) feedback, and every participant's
//! *satisfaction* is tracked long-run. The scenario measures the three
//! facets and the resulting trust — and, when `adaptive_disclosure` is
//! on, closes the Section-3 loop "the less a user trusts towards the
//! system, the less she discloses information".
//!
//! Privacy-relevant flows modelled per interaction:
//!
//! 1. **Content access** — the consumer requests the provider's content;
//!    the PriServ-style [`Enforcer`] checks the provider's policy
//!    (friends-only, minimal trust level…). Grants are logged in the
//!    [`DisclosureLedger`]; a malicious *consumer* then leaks the granted
//!    data with `leak_probability` (breach cause: `MaliciousUser`).
//! 2. **Feedback reporting** — the system *requires* the configured
//!    disclosure level for a report to be accepted; users whose
//!    willingness has eroded below it opt out of feedback entirely,
//!    while anonymous levels leave lying raters free to ballot-stuff.
//! 3. **Behaviour metadata** — the system observes every request at its
//!    collection level; collection beyond what a user's own policy
//!    tolerates is a *system-caused* breach (cause: `System`), kept
//!    apart from user-caused leaks — the paper's footnote-2 distinction.

use crate::config::ScenarioConfig;
use crate::facets::FacetScores;
use crate::runner::{Observer, ValidationError};
use crate::trust::TrustMetric;
use tsn_graph::{generators, Graph, InterestProfile, InterestSpace};
use tsn_privacy::enforcement::RequestContext;
use tsn_privacy::policy::DataCategory;
use tsn_privacy::{
    AccessDecision, AccessRequest, BreachCause, DisclosureLedger, Enforcer, Operation,
    PrivacyFacetInputs, PrivacyPolicy, Purpose,
};
use tsn_reputation::{
    accuracy, Anonymized, BehaviorClass, DisclosurePolicy, MechanismKind, Population, PowerReport,
    ReportView, ReputationMechanism, SelectionPolicy, SelectionScratch,
};
use tsn_satisfaction::{
    adequacy::adequacy, ConsumerIntentions, GlobalSatisfaction, InteractionAspects,
    ProviderIntentions, SatisfactionTracker,
};
use tsn_simnet::{
    steal::{for_each_chunk_mut, join},
    DynamicsEvent, DynamicsRuntime, GroupMap, MembershipRuntime, NodeId, PartialView, SimDuration,
    SimRng, SimTime, StreamDomain, MEMBERSHIP_SEED_SALT,
};

/// Virtual time one scenario round spans (the interaction loop models
/// hourly activity waves).
pub const ROUND_DURATION: SimDuration = SimDuration::from_secs(3600);

/// Node count at or above which `shards = 0` (auto) splits the round
/// engine into several shards (a few per hardware thread); below it,
/// auto runs one shard on the calling thread. The shard count never
/// changes the outcome, so auto runs are deterministic across hardware;
/// only wall-clock time varies with the core count.
pub const SHARD_AUTO_NODES: usize = 10_000;

/// Weight of the *consumer-role* satisfaction in a user's overall
/// satisfaction; the rest is the provider-role satisfaction (ref \[17\]
/// models participants in both roles).
const CONSUMER_ROLE_WEIGHT: f64 = 0.75;

/// Ballot-stuffing amplification: when the rater identity is *not*
/// disclosed, nothing ties reports to a rater, so a lying rater can
/// submit up to this many copies of each false report (the classic
/// ballot-stuffing / badmouthing attack that anonymity enables and
/// identity-based rate limiting prevents).
const BALLOT_STUFFING_FACTOR: usize = 4;

/// The RNG stream a consumer's interactions draw from: one
/// independent stream per `(round, node)`, derived
/// statelessly from the config seed ([`StreamDomain::Interaction`]).
/// This is what makes the draw sequence — and therefore the whole
/// outcome — independent of the shard count and of shard execution
/// order.
fn interaction_stream(seed: u64, round: usize, node: usize) -> SimRng {
    StreamDomain::Interaction.stream(seed, ((round as u64) << 32) | node as u64)
}

/// Per-round measurements (the time series behind Figure 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSample {
    /// Round index.
    pub round: usize,
    /// Mean long-run satisfaction across users.
    pub mean_satisfaction: f64,
    /// Mean per-user trust estimate.
    pub mean_trust: f64,
    /// Ledger respect rate so far.
    pub respect_rate: f64,
    /// Mechanism consistency with ground truth (Spearman mapped to
    /// `[0, 1]`).
    pub consistency: f64,
    /// Mean effective disclosure exposure users are willing to provide.
    pub mean_willingness: f64,
    /// Interaction success rate this round.
    pub success_rate: f64,
    /// Feedback reports filed this round.
    pub reports_filed: u64,
    /// Fraction of users online this round (1.0 without churn).
    pub availability: f64,
    /// Partition health this round: the probability a random user pair
    /// shares a group — 1.0 outside any partition window.
    pub partition_health: f64,
    /// Consumers skipped this round because no eligible partner
    /// existed (dead/partitioned graph neighborhood, or — with the
    /// membership overlay — an empty/dead partial view). Always 0 in
    /// a healthy static run.
    pub isolated: u64,
}

/// Everything a scenario run produces.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The measured global facets.
    pub facets: FacetScores,
    /// Global trust toward the system (default metric).
    pub global_trust: f64,
    /// Per-user trust toward the system.
    pub per_user_trust: Vec<f64>,
    /// Per-user long-run satisfaction.
    pub per_user_satisfaction: Vec<f64>,
    /// Per-user policy-respect rate over their own data.
    pub per_user_respect: Vec<f64>,
    /// Mechanism power detail.
    pub power: PowerReport,
    /// Satisfaction aggregate detail.
    pub satisfaction: GlobalSatisfaction,
    /// Policy-respect rate measured by the ledger.
    pub respect_rate: f64,
    /// Breaches caused by malicious users.
    pub user_breaches: usize,
    /// Breaches caused by the system (over-sharing).
    pub system_breaches: usize,
    /// OECD audit overall score.
    pub oecd_score: f64,
    /// Mean effective disclosure exposure at the end of the run.
    pub mean_willingness: f64,
    /// Fraction of content requests denied by privacy enforcement.
    pub denial_rate: f64,
    /// Success rate of the requests honest consumers made (a denied
    /// request counts as a failed try) — the headline number of the
    /// EigenTrust-style mechanism-under-attack evaluation.
    pub honest_success_rate: f64,
    /// Total interactions attempted.
    pub interactions: u64,
    /// Total protocol messages.
    pub messages: u64,
    /// Whitewash re-joins that occurred during the run (0 unless a
    /// dynamics plan with whitewashing was configured).
    pub whitewashes: u64,
    /// Per-round time series.
    pub samples: Vec<RoundSample>,
}

impl RoundSample {
    /// The recognized series names, in the order of the struct fields.
    pub const SERIES_NAMES: [&'static str; 10] = [
        "satisfaction",
        "trust",
        "respect",
        "consistency",
        "willingness",
        "success",
        "reports",
        "availability",
        "partition_health",
        "isolated",
    ];

    /// Extracts one named measurement, or `None` for an unknown name.
    pub fn field(&self, name: &str) -> Option<f64> {
        match name {
            "satisfaction" => Some(self.mean_satisfaction),
            "trust" => Some(self.mean_trust),
            "respect" => Some(self.respect_rate),
            "consistency" => Some(self.consistency),
            "willingness" => Some(self.mean_willingness),
            "success" => Some(self.success_rate),
            "reports" => Some(self.reports_filed as f64),
            "availability" => Some(self.availability),
            "partition_health" => Some(self.partition_health),
            "isolated" => Some(self.isolated as f64),
            _ => None,
        }
    }
}

impl ScenarioOutcome {
    /// Extracts a named series from the samples (for correlation
    /// analysis). Recognized names are [`RoundSample::SERIES_NAMES`];
    /// an unknown name returns `None` instead of panicking.
    pub fn series(&self, name: &str) -> Option<Vec<f64>> {
        if !RoundSample::SERIES_NAMES.contains(&name) {
            return None;
        }
        Some(
            self.samples
                .iter()
                // tsn-lint: allow(no-unwrap, "name membership in SERIES_NAMES is checked at function entry; every sample carries every series")
                .map(|s| s.field(name).expect("name checked against SERIES_NAMES"))
                .collect(),
        )
    }
}

struct UserState {
    intentions: ConsumerIntentions,
    provider_intentions: ProviderIntentions,
    satisfaction: SatisfactionTracker,
    provider_satisfaction: SatisfactionTracker,
    load_this_round: u32,
    /// Disclosure ladder level the user is willing to feed the
    /// reputation system.
    willingness_level: usize,
    /// Whether a privacy breach hit this user's data in the current round.
    breached_this_round: bool,
}

impl UserState {
    /// Overall satisfaction: the consumer and provider roles blended
    /// with consumer weight [`CONSUMER_ROLE_WEIGHT`].
    fn blended_satisfaction(&self) -> f64 {
        CONSUMER_ROLE_WEIGHT * self.satisfaction.satisfaction()
            + (1.0 - CONSUMER_ROLE_WEIGHT) * self.provider_satisfaction.satisfaction()
    }
}

/// Whether allocating `provider` to `consumer` is intended: it is on
/// the consumer's preferred list (see `Scenario::preferred`), or the list
/// is empty. Exact also for an overlay partner that is not a neighbour.
fn intends(offsets: &[usize], preferred: &[NodeId], consumer: NodeId, provider: NodeId) -> bool {
    let list = &preferred[offsets[consumer.index()]..offsets[consumer.index() + 1]];
    list.is_empty() || list.binary_search(&provider).is_ok()
}

/// Reusable buffers for the round loop. Owned by the [`Scenario`] so the
/// steady-state hot path performs no per-round or per-interaction
/// allocation; every buffer is cleared (never assumed empty) before use,
/// so contents never leak between rounds or runs.
#[derive(Debug, Default)]
struct ScenarioScratch {
    /// Per-user offline flag for the current round.
    offline: Vec<bool>,
    /// Per-user trust of the current round.
    trust: Vec<f64>,
    /// Slot-indexed selection weights of the current round:
    /// `selection.weight(score(identity(slot)))`, filled once before the
    /// interaction phase freezes (empty under `SelectionPolicy::Random`,
    /// which reads no score).
    weights: Vec<f64>,
    /// Slot-indexed mechanism scores for the power measurement.
    scores: Vec<f64>,
    /// Ground-truth qualities for the power measurement.
    truth: Vec<f64>,
    /// Adversarial flags for the power measurement.
    adversarial: Vec<bool>,
    /// The last power measurement and the inputs it was computed from.
    power_memo: PowerMemo,
}

/// The last [`accuracy::evaluate_scores`] call of a scenario, keyed by
/// its complete input. The mechanism is fixed for the scenario's
/// lifetime, so scores, ground truth, adversarial flags and refresh
/// iterations determine the report; equal inputs (floats compared by
/// bit pattern) give the bit-identical report without recomputing it.
#[derive(Debug, Default)]
struct PowerMemo {
    scores: Vec<f64>,
    truth: Vec<f64>,
    adversarial: Vec<bool>,
    iterations: usize,
    /// `None` until the first measurement.
    report: Option<PowerReport>,
    /// Measurements actually computed (memo misses).
    computed: u64,
}

impl PowerMemo {
    /// The memoized report, if it was computed from exactly these
    /// inputs.
    fn lookup(
        &self,
        scores: &[f64],
        truth: &[f64],
        adversarial: &[bool],
        iterations: usize,
    ) -> Option<PowerReport> {
        let same_bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        self.report.filter(|_| {
            self.iterations == iterations
                && self.adversarial == adversarial
                && same_bits(&self.scores, scores)
                && same_bits(&self.truth, truth)
        })
    }
}

/// Fills `out` with `value(slot)` for every slot `0..nodes`, in
/// 1024-slot pieces on up to `workers` threads. Each slot has exactly
/// one writer and `value` reads only shared state, so the worker count
/// never changes a bit.
fn fill_slots(
    out: &mut Vec<f64>,
    nodes: usize,
    workers: usize,
    value: impl Fn(usize) -> f64 + Sync,
) {
    out.clear();
    out.resize(nodes, 0.0);
    for_each_chunk_mut(out, 1024, workers, |offset, piece| {
        for (slot, out) in (offset..).zip(piece) {
            *out = value(slot);
        }
    });
}

/// Fills `out` with `f(score)` for every slot `0..nodes`, scoring each
/// slot under its current identity (`identities[slot]`, or the slot
/// itself without a dynamics plan).
fn slot_scores_into(
    out: &mut Vec<f64>,
    mechanism: &dyn ReputationMechanism,
    identities: Option<&[NodeId]>,
    nodes: usize,
    workers: usize,
    f: impl Fn(f64) -> f64 + Sync,
) {
    fill_slots(out, nodes, workers, |slot| {
        let id = identities.map_or(NodeId::from_index(slot), |ids| ids[slot]);
        f(mechanism.score(id))
    });
}

/// Event counters: a shard accumulates one round's worth locally, the
/// merge barrier sums the shards into the round's, and the round loop
/// sums the rounds into the run's (integer sums, so every total is
/// independent of merge order — though the order is fixed anyway).
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    requests: u64,
    denials: u64,
    interactions: u64,
    messages: u64,
    /// Granted interactions that succeeded.
    ok: u64,
    /// Attempted interactions, granted or denied.
    tried: u64,
    reports: u64,
    isolated: u64,
    honest_ok: u64,
    honest_tried: u64,
    /// Whitewashes (counted by the pre-round step, not by shards).
    whitewashes: u64,
}

impl Counters {
    fn add(&mut self, other: Counters) {
        self.requests += other.requests;
        self.denials += other.denials;
        self.interactions += other.interactions;
        self.messages += other.messages;
        self.ok += other.ok;
        self.tried += other.tried;
        self.reports += other.reports;
        self.isolated += other.isolated;
        self.honest_ok += other.honest_ok;
        self.honest_tried += other.honest_tried;
        self.whitewashes += other.whitewashes;
    }
}

/// A deferred disclosure-ledger entry. Shards cannot touch the shared
/// ledger mid-phase; they stage events in interaction order and the
/// merge barrier applies them shard-by-shard — which, with contiguous
/// shards, is exactly global consumer order for any shard count.
#[derive(Debug, Clone, Copy)]
enum LedgerEvent {
    Disclosure {
        owner: NodeId,
        category: DataCategory,
        anonymized: bool,
    },
    Breach {
        owner: NodeId,
        category: DataCategory,
        cause: BreachCause,
    },
}

/// Everything a shard defers to the merge barrier.
#[derive(Debug, Default)]
struct ShardOutbox {
    /// Feedback filed by this shard's consumers as the system sees it
    /// (`system_policy.view`, which is pure), in consumer order, with
    /// ballot-stuffed copies already expanded: the barrier hands it to
    /// `record_batch` as is.
    views: Vec<ReportView>,
    /// Ledger events in interaction order.
    ledger: Vec<LedgerEvent>,
    /// One provider per *granted* interaction: the merge credits one
    /// served interaction and one unit of round load each.
    touches: Vec<NodeId>,
    counters: Counters,
}

impl ShardOutbox {
    fn clear(&mut self) {
        self.views.clear();
        self.ledger.clear();
        self.touches.clear();
        self.counters = Counters::default();
    }
}

/// One contiguous node shard: its range plus owned scratch and outbox,
/// persistent across rounds so the steady-state phase allocates nothing.
#[derive(Debug, Default)]
struct ShardState {
    /// First node (inclusive) this shard owns.
    start: usize,
    /// Past-the-end node of this shard's range.
    end: usize,
    /// Online neighbour candidates of the current consumer.
    candidates: Vec<NodeId>,
    /// Partner-selection scratch.
    selection: SelectionScratch,
    outbox: ShardOutbox,
}

/// One claimable unit of the interaction phase: a shard's contiguous
/// user slice plus its scratch/outbox.
type ShardUnit<'a> = (&'a mut [UserState], &'a mut ShardState);

/// The read-only world a shard worker sees during the interaction
/// phase: a frozen round-start snapshot. All mutation goes through the
/// worker's own user slice and its outbox.
struct ShardCtx<'a> {
    config: &'a ScenarioConfig,
    graph: &'a Graph,
    population: &'a Population,
    mechanism: &'a dyn ReputationMechanism,
    enforcer: &'a Enforcer,
    offline: &'a [bool],
    /// Slot-indexed selection weights, frozen for the phase (see
    /// `ScenarioScratch::weights`).
    weights: &'a [f64],
    strict: &'a [bool],
    policy_classes: &'a [(PrivacyPolicy, f64); 2],
    preferred_offsets: &'a [usize],
    preferred: &'a [NodeId],
    /// Active partition group map, if a window is open this round
    /// (plain data extracted from the dynamics runtime, which itself is
    /// not `Sync` — it owns transport trait objects the phase never
    /// touches).
    partition: Option<&'a GroupMap>,
    /// Slot → current-identity map under whitewashing, `None` without a
    /// dynamics plan.
    identities: Option<&'a [NodeId]>,
    /// Slot-indexed partial views of the membership overlay — the
    /// round's frozen snapshot (shuffled on the round's workers before
    /// the phase starts), `None` when the overlay is off.
    views: Option<&'a [PartialView]>,
    system_policy: DisclosurePolicy,
    system_exposure: f64,
    round: usize,
    now: SimTime,
}

impl ShardCtx<'_> {
    fn identity(&self, slot: NodeId) -> NodeId {
        self.identities.map_or(slot, |ids| ids[slot.index()])
    }
}

/// Executes one shard's interaction/feedback phase against the frozen
/// round snapshot. `users` is the shard's own contiguous slice
/// (`state.start ..state.end`); everything cross-shard lands in the
/// outbox. Randomness comes from per-`(round, node)` streams;
/// reputation scores, served counters and ledger state are as of round
/// start; and a consumer's `privacy_respected` reflects only its own
/// flows this round — a leak of its data by another node reaches the
/// ledger at the merge barrier (the round semantics of DESIGN.md §10).
fn run_shard(ctx: &ShardCtx<'_>, users: &mut [UserState], state: &mut ShardState) {
    let ShardState {
        start,
        candidates,
        selection,
        outbox,
        ..
    } = state;
    let start = *start;
    outbox.clear();
    for u in users.iter_mut() {
        u.breached_this_round = false;
        u.load_this_round = 0;
    }
    for (local, user) in users.iter_mut().enumerate() {
        let consumer_idx = start + local;
        if ctx.offline[consumer_idx] {
            continue;
        }
        let consumer = NodeId::from_index(consumer_idx);
        let honest = !ctx.population.is_adversarial(consumer);
        let requester_trust = ctx.mechanism.score(ctx.identity(consumer));
        let mut rng = interaction_stream(ctx.config.seed, ctx.round, consumer_idx);
        for _ in 0..ctx.config.interactions_per_node {
            candidates.clear();
            // While a partition window is active, users can only reach
            // providers in their own group.
            let eligible = |p: &NodeId| {
                !ctx.offline[p.index()] && ctx.partition.is_none_or(|m| m.same_group(consumer, *p))
            };
            match ctx.views {
                // Peer sampling on: partners come from the consumer's
                // bounded partial view, not the global graph
                // neighborhood.
                Some(views) => {
                    candidates.extend(views[consumer_idx].peers().filter(|p| eligible(p)))
                }
                None => candidates.extend(
                    ctx.graph
                        .neighbors(consumer)
                        .iter()
                        .copied()
                        .filter(eligible),
                ),
            }
            let Some(provider) = ctx.config.selection.select_weighted(
                candidates,
                |c| ctx.weights[c.index()],
                &mut rng,
                selection,
            ) else {
                // No eligible partner. The candidate set is fixed for
                // the round (offline flags, partition and view all
                // are), so count the consumer isolated once and skip
                // its remaining attempts; no randomness is consumed.
                outbox.counters.isolated += 1;
                break;
            };
            outbox.counters.requests += 1;
            outbox.counters.messages += 1; // content request

            // --- Flow 1: content access under the provider's PP.
            let request = AccessRequest {
                requester: consumer,
                owner: provider,
                operation: Operation::Read,
                purpose: Purpose::Social,
            };
            let request_ctx = RequestContext {
                social_distance: Some(1), // candidates are neighbours
                requester_trust,
            };
            let (policy, _) = &ctx.policy_classes[usize::from(ctx.strict[provider.index()])];
            let decision = ctx.enforcer.decide(&request, policy, &request_ctx);

            let outcome_quality;
            if decision.is_granted() {
                let anonymized = decision == AccessDecision::GrantAnonymized;
                outbox.ledger.push(LedgerEvent::Disclosure {
                    owner: provider,
                    category: DataCategory::Content,
                    anonymized,
                });
                let outcome = ctx.population.interact_frozen(provider, &mut rng);
                outbox.touches.push(provider);
                outbox.counters.interactions += 1;
                outbox.counters.messages += 1; // content response
                outbox.counters.tried += 1;
                outbox.counters.honest_tried += honest as u64;
                if outcome.is_success() {
                    outbox.counters.ok += 1;
                    outbox.counters.honest_ok += honest as u64;
                }
                outcome_quality = outcome.value();

                // Malicious consumers leak what they were granted.
                if !honest && rng.gen_bool(ctx.config.leak_probability) {
                    outbox.ledger.push(LedgerEvent::Breach {
                        owner: provider,
                        category: DataCategory::Content,
                        cause: BreachCause::MaliciousUser,
                    });
                }

                // --- Flow 2: feedback. The system *requires* the
                // configured disclosure level to accept a report; users
                // unwilling to meet it opt out ("the less a user trusts
                // towards the system, the less she discloses
                // information"). Adversaries always comply — influence
                // is their goal. The report is staged and reaches the
                // mechanism at the merge barrier.
                let willing = user.willingness_level;
                if !honest || willing >= ctx.config.disclosure_level {
                    let mut report = ctx
                        .population
                        .feedback(consumer, provider, outcome, ctx.now, None);
                    // The mechanism knows whitewashed slots by their
                    // current identity only.
                    report.rater = ctx.identity(report.rater);
                    report.ratee = ctx.identity(report.ratee);
                    // Ballot stuffing: without a disclosed rater
                    // identity, nothing rate-limits a lying rater, so
                    // false reports arrive amplified; every extra
                    // disclosed field improves duplicate detection, and
                    // identity eliminates the attack entirely.
                    let copies = if !ctx.system_policy.rater_identity && !honest {
                        BALLOT_STUFFING_FACTOR
                            .saturating_sub(ctx.config.disclosure_level)
                            .max(1)
                    } else {
                        1
                    };
                    let view = ctx.system_policy.view(&report);
                    outbox.views.extend(std::iter::repeat_n(view, copies));
                    outbox.counters.reports += copies as u64;
                    outbox.counters.messages +=
                        (ctx.mechanism.overhead_per_report() * copies) as u64;
                }
            } else {
                outbox.counters.denials += 1;
                outbox.counters.tried += 1;
                outbox.counters.honest_tried += honest as u64;
                outcome_quality = 0.0; // the consumer got nothing
            }

            // Behaviour metadata: the system observes the request at its
            // configured collection level whether or not it was granted
            // or feedback was filed. Collection beyond what the user's
            // own policy tolerates is a *system-caused* breach (the
            // paper's footnote-2 category).
            let (_, exposure_cap) = ctx.policy_classes[usize::from(ctx.strict[consumer_idx])];
            if ctx.system_exposure > exposure_cap + 1e-9 {
                outbox.ledger.push(LedgerEvent::Breach {
                    owner: consumer,
                    category: DataCategory::Behavior,
                    cause: BreachCause::System,
                });
                user.breached_this_round = true;
            } else {
                outbox.ledger.push(LedgerEvent::Disclosure {
                    owner: consumer,
                    category: DataCategory::Behavior,
                    anonymized: ctx.config.disclosure_level <= 1,
                });
            }

            let aspects = InteractionAspects {
                intended: intends(ctx.preferred_offsets, ctx.preferred, consumer, provider),
                outcome_quality,
                privacy_respected: !user.breached_this_round,
            };
            user.satisfaction
                .observe(adequacy(&user.intentions, &aspects));
        }
    }
}

/// The assembled scenario, ready to run.
pub struct Scenario {
    config: ScenarioConfig,
    graph: Graph,
    population: Population,
    mechanism: Box<dyn ReputationMechanism>,
    users: Vec<UserState>,
    ledger: DisclosureLedger,
    enforcer: Enforcer,
    metric: TrustMetric,
    /// Exposure of each disclosure-ladder level, precomputed once (the
    /// round loop looks these up per user per round).
    ladder_exposure: [f64; DisclosurePolicy::LADDER_LEVELS],
    /// Round-loop scratch buffers.
    scratch: ScenarioScratch,
    /// Each slot's index into `policy_classes`: the permissive and the
    /// strict (content policy, tolerated behaviour-metadata exposure).
    /// Kept outside `UserState` so shard workers can read any
    /// *provider's* class while holding their own `&mut` user slice.
    strict: Vec<bool>,
    policy_classes: [(PrivacyPolicy, f64); 2],
    /// Every slot's sorted preferred providers as one CSR table: slot
    /// `i`'s list is `preferred[preferred_offsets[i]..preferred_offsets[i + 1]]`.
    preferred_offsets: Vec<usize>,
    preferred: Vec<NodeId>,
    /// Shard ranges, scratch and outboxes of the round engine; empty
    /// until the first run, persistent afterwards.
    shard_state: Vec<ShardState>,
    /// Dynamics executor (session churn, whitewashing, partitions),
    /// present iff `config.dynamics` is. Runs detached — the abstract
    /// scenario has no transport.
    net_dynamics: Option<DynamicsRuntime>,
    /// Peer-sampling overlay (bounded partial views + shuffling),
    /// present iff `config.membership` is. When on, partner candidates
    /// come from each consumer's local view instead of the global
    /// graph neighborhood.
    membership: Option<MembershipRuntime>,
    /// Threads the round engine's parallel steps may use: the
    /// interaction phase, the merge barrier and the per-slot tail
    /// fills. Set from the shard plan at the start of a run; 1 (no
    /// thread spawned) before it and whenever the plan has one shard.
    workers: usize,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("nodes", &self.config.nodes)
            .field("mechanism", &self.config.mechanism)
            .field("disclosure_level", &self.config.disclosure_level)
            .finish()
    }
}

impl Scenario {
    /// Builds the scenario from a configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] when the configuration is invalid.
    pub fn new(config: ScenarioConfig) -> Result<Self, ValidationError> {
        config.validate()?;
        let mut rng = SimRng::seed_from_u64(config.seed);
        let mut graph_rng = rng.fork(1);
        let graph = generators::watts_strogatz(
            config.nodes,
            config.graph_degree,
            config.graph_beta,
            &mut graph_rng,
        )
        .map_err(|e| ValidationError::new("graph_degree", e.to_string()))?;
        let mut pop_rng = rng.fork(2);
        // Default the traitor betrayal deadline to the switch-after
        // horizon in round time: a traitor then turns after
        // `switch_after` rounds even if no consumer ever selects it (the
        // stuck-traitor fix). An explicit deadline in the config wins.
        let mut pop_config = config.population.clone();
        if pop_config.traitor > 0.0 && pop_config.traitor_switch_deadline.is_none() {
            pop_config.traitor_switch_deadline = Some(
                SimTime::ZERO + ROUND_DURATION.mul_f64(pop_config.traitor_switch_after as f64),
            );
        }
        let population = Population::new(config.nodes, pop_config, &mut pop_rng);

        let base: Box<dyn ReputationMechanism> =
            if config.mechanism == MechanismKind::EigenTrust && config.pretrusted > 0 {
                let pretrusted: Vec<NodeId> = (0..config.nodes)
                    .map(NodeId::from_index)
                    .filter(|&n| !population.is_adversarial(n))
                    .take(config.pretrusted)
                    .collect();
                Box::new(tsn_reputation::EigenTrust::new(config.nodes, pretrusted))
            } else {
                tsn_reputation::mechanism::build_mechanism(config.mechanism, config.nodes)
            };
        let mechanism: Box<dyn ReputationMechanism> = match config.anonymization {
            Some(anon) => Box::new(Anonymized::new(base, anon, rng.fork(3))),
            None => base,
        };

        let mut user_rng = rng.fork(4);
        let space = InterestSpace::new(8);
        let profiles: Vec<InterestProfile> = (0..config.nodes)
            .map(|_| space.sample_profile(2.0, &mut user_rng))
            .collect();
        let strict_cut =
            (config.policy_profile.strict_fraction() * config.nodes as f64).round() as usize;
        let mut strict: Vec<bool> = (0..config.nodes).map(|i| i < strict_cut).collect();
        user_rng.shuffle(&mut strict);

        let mut users = Vec::with_capacity(config.nodes);
        let mut preferred_offsets = vec![0];
        let mut preferred = Vec::new();
        for (i, profile) in profiles.iter().enumerate() {
            // Preferred providers: neighbours sharing the dominant topic
            // (falling back to all neighbours when none does).
            let neighbors = graph.neighbors(NodeId::from_index(i));
            let topic = profile.dominant_topic();
            let shares_topic = |n: &&NodeId| profiles[n.index()].dominant_topic() == topic;
            let start = preferred.len();
            preferred.extend(neighbors.iter().filter(shares_topic));
            if preferred.len() == start {
                preferred.extend_from_slice(neighbors);
            }
            preferred[start..].sort_unstable();
            preferred_offsets.push(preferred.len());
            let concern =
                (config.privacy_concern_mean + user_rng.gen_normal(0.0, 0.2)).clamp(0.0, 1.0);
            // Provider capacity per round varies per user (ref [17]:
            // providers intend to treat a bounded load).
            let capacity = user_rng.gen_range(3..9u32);
            users.push(UserState {
                intentions: ConsumerIntentions {
                    quality_expectation: 0.6,
                    privacy_concern: concern,
                },
                provider_intentions: ProviderIntentions { capacity },
                satisfaction: SatisfactionTracker::default(),
                provider_satisfaction: SatisfactionTracker::default(),
                load_this_round: 0,
                // Users initially comply with the system's required
                // feedback-disclosure level; distrust erodes this
                // willingness when `adaptive_disclosure` is on.
                willingness_level: config.disclosure_level,
                breached_this_round: false,
            });
        }

        let ladder_exposure: [f64; DisclosurePolicy::LADDER_LEVELS] =
            std::array::from_fn(|level| DisclosurePolicy::ladder(level).exposure());
        // Strict users tolerate at most ladder level 2 (no topic, no
        // identity) of *behaviour-metadata collection*; permissive users
        // accept everything.
        let content = DataCategory::Content;
        let policy_classes = [
            (PrivacyPolicy::permissive(content), ladder_exposure[4]),
            (PrivacyPolicy::strict(content), ladder_exposure[2]),
        ];

        // Seeded straight from the config seed rather than forked off
        // `rng`, so attaching a plan never shifts another stream: runs
        // with a no-op plan stay bit-identical to dynamics-off runs.
        // Whitewasher-class slots return from every downtime under a
        // fresh identity.
        let net_dynamics = match &config.dynamics {
            Some(plan) => Some(
                DynamicsRuntime::with_whitewashers(
                    plan.clone(),
                    config.nodes,
                    SimRng::seed_from_u64(config.seed ^ 0x5D71_4A3C_9E2B_8F01),
                    (0..config.nodes)
                        .map(|i| {
                            population.class(NodeId::from_index(i)) == BehaviorClass::Whitewasher
                        })
                        .collect(),
                )
                .map_err(|m| ValidationError::new("dynamics", m))?,
            ),
            None => None,
        };

        // Same seeding idiom as dynamics: derived straight from the
        // config seed (never forked), so attaching the overlay leaves
        // every other stream intact.
        let membership = match &config.membership {
            Some(cfg) => Some(
                MembershipRuntime::new(config.nodes, *cfg, config.seed ^ MEMBERSHIP_SEED_SALT)
                    .map_err(|m| ValidationError::new("membership", m))?,
            ),
            None => None,
        };

        Ok(Scenario {
            ledger: DisclosureLedger::new(),
            config,
            graph,
            population,
            mechanism,
            users,
            enforcer: Enforcer::new(),
            metric: TrustMetric::default(),
            ladder_exposure,
            scratch: ScenarioScratch::default(),
            strict,
            policy_classes,
            preferred_offsets,
            preferred,
            shard_state: Vec::new(),
            net_dynamics,
            membership,
            workers: 1,
        })
    }

    /// The configuration of this scenario.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The OECD audit score of this configuration (see
    /// [`tsn_privacy::oecd`]).
    fn oecd_score(&self) -> f64 {
        tsn_privacy::oecd::audit_score(
            self.config.disclosure_policy().exposure(),
            self.ledger.respect_rate(),
            self.config.anonymization.is_some() || self.config.disclosure_level <= 1,
        )
    }

    fn mean_willingness(&self) -> f64 {
        self.users
            .iter()
            .map(|u| self.ladder_exposure[u.willingness_level])
            .sum::<f64>()
            / self.users.len() as f64
    }

    /// Computes per-user trust into `self.scratch.trust` (the round loop
    /// needs it every round; reusing the buffer keeps the loop
    /// allocation-free). Each user's entry depends on that user alone,
    /// so it fills per slot on the workers.
    fn per_user_trust_into(&mut self, reputation_facet: f64, oecd: f64) {
        let users = &self.users;
        let ledger = &self.ledger;
        let metric = &self.metric;
        let ladder_exposure = &self.ladder_exposure;
        fill_slots(&mut self.scratch.trust, users.len(), self.workers, |i| {
            let u = &users[i];
            let inputs = PrivacyFacetInputs {
                exposure: ladder_exposure[u.willingness_level],
                respect_rate: ledger.respect_rate_for(NodeId::from_index(i)),
                oecd_score: oecd,
            };
            let facets = FacetScores {
                privacy: inputs.facet().facet,
                reputation: reputation_facet,
                satisfaction: u.blended_satisfaction(),
            };
            metric.trust(&facets)
        });
    }

    /// Fills the round's selection-weight table. Runs after `pre_round`
    /// has settled the round's whitewashes and resized the mechanism,
    /// before the interaction phase freezes; `Random` reads no score and
    /// keeps the table empty.
    fn fill_selection_weights(&mut self) {
        let policy = self.config.selection;
        let weights = &mut self.scratch.weights;
        if matches!(policy, SelectionPolicy::Random) {
            weights.clear();
            return;
        }
        slot_scores_into(
            weights,
            self.mechanism.as_ref(),
            self.net_dynamics.as_ref().map(|d| d.identities()),
            self.config.nodes,
            self.workers,
            |score| policy.weight(score),
        );
    }

    /// The mechanism's power against the current ground truth. Ground
    /// truth is slot-indexed; the mechanism sees the slot's *current
    /// identity*, so whitewashed adversaries are judged as the same
    /// adversary even though the mechanism sees a newcomer. Returns the
    /// memoized report when every input equals the last computed call's.
    fn measure_power(&mut self, iterations: usize) -> PowerReport {
        let n = self.config.nodes;
        let mechanism = self.mechanism.as_ref();
        let population = &self.population;
        let ScenarioScratch {
            scores,
            truth,
            adversarial,
            power_memo,
            ..
        } = &mut self.scratch;
        let identities = self.net_dynamics.as_ref().map(|d| d.identities());
        slot_scores_into(scores, mechanism, identities, n, self.workers, |score| {
            score
        });
        adversarial.clear();
        adversarial.extend((0..n).map(|i| population.is_adversarial(NodeId::from_index(i))));
        truth.clear();
        truth.extend((0..n).map(|i| population.true_quality(NodeId::from_index(i))));
        if let Some(report) = power_memo.lookup(scores, truth, adversarial, iterations) {
            return report;
        }
        let report = accuracy::evaluate_scores(mechanism, scores, truth, adversarial, iterations);
        // This call's inputs become the key; the old key's buffers are
        // reused as the next call's scratch.
        std::mem::swap(&mut power_memo.scores, scores);
        std::mem::swap(&mut power_memo.truth, truth);
        std::mem::swap(&mut power_memo.adversarial, adversarial);
        power_memo.iterations = iterations;
        power_memo.report = Some(report);
        power_memo.computed += 1;
        report
    }

    /// Runs the configured number of rounds and returns the outcome.
    pub fn run(&mut self) -> ScenarioOutcome {
        self.run_observed(&mut [])
    }

    /// The shard count `ScenarioConfig::shards` selects (see
    /// [`SHARD_AUTO_NODES`] for auto mode). The auto count depends on
    /// the hardware, which is safe because the outcome does not depend
    /// on the shard count.
    fn shard_count(&self) -> usize {
        let n = self.config.nodes;
        match self.config.shards {
            0 if n < SHARD_AUTO_NODES => 1,
            // A few shards per worker keeps the atomic-cursor stealing
            // effective when ranges cost unevenly (adversary clusters).
            0 => std::thread::available_parallelism()
                .map_or(1, |c| c.get() * 4)
                .min(n),
            k => k.min(n),
        }
    }

    /// Pre-round step: advances the dynamics runtime to `now` and fills
    /// `scratch.offline` from its session state (everyone is online
    /// without a plan). It also restarts whitewashed users' willingness
    /// at the system level, counts the whitewashes and grows the
    /// mechanism to the identity space.
    fn pre_round(&mut self, now: SimTime, whitewashes: &mut u64) {
        let n = self.config.nodes;
        let offline = &mut self.scratch.offline;
        offline.clear();
        let Some(dynamics) = self.net_dynamics.as_mut() else {
            offline.resize(n, false);
            return;
        };
        dynamics.clear_events();
        dynamics.advance_detached(now);
        offline.extend((0..n).map(|slot| !dynamics.online(NodeId::from_index(slot))));
        for &(_, event) in dynamics.events() {
            if let DynamicsEvent::Whitewash { slot, .. } = event {
                *whitewashes += 1;
                // The fresh identity re-enters compliant: its
                // willingness restarts at the system's required
                // level (it has no history of distrust to act on).
                self.users[slot.index()].willingness_level = self.config.disclosure_level;
            }
        }
        // Make sure the mechanism tracks every identity ever
        // allocated (whitewashed ones score at the prior).
        self.mechanism.resize(dynamics.identity_count());
    }

    /// Membership pre-round step: one view shuffle against this
    /// round's offline flags and any active partition, on the round's
    /// workers. It finishes before the interaction phase and its result
    /// does not depend on the worker count, so the per-round view
    /// snapshot is identical for any shard count. No-op when the
    /// overlay is off.
    fn membership_pre_round(&mut self) {
        let Some(membership) = self.membership.as_mut() else {
            return;
        };
        let offline = &self.scratch.offline;
        let partition = self
            .net_dynamics
            .as_ref()
            .and_then(|d| d.active_group_map());
        membership.shuffle_round_on(
            self.workers,
            |node| !offline[node.index()],
            |a, b| partition.is_none_or(|m| m.same_group(a, b)),
        );
    }

    /// The round tail: provider-role adequacy, a possible mechanism
    /// refresh, the round sample and the adaptive-disclosure update (the
    /// Section-3 loop). Pure state math — no randomness.
    fn finish_round(
        &mut self,
        round: usize,
        tally: Counters,
        refresh_iterations: &mut usize,
        observers: &mut [&mut dyn Observer],
        samples: &mut Vec<RoundSample>,
    ) {
        let n = self.config.nodes;
        // Provider-role adequacy: did the system keep each provider's
        // load within intentions? Offline providers observe nothing.
        {
            let offline = &self.scratch.offline;
            for (i, u) in self.users.iter_mut().enumerate() {
                if !offline[i] {
                    let adequacy = u.provider_intentions.load_adequacy(u.load_this_round);
                    u.provider_satisfaction.observe(adequacy);
                }
            }
        }

        if (round + 1).is_multiple_of(self.config.refresh_every) {
            *refresh_iterations += self.mechanism.refresh_on(self.workers);
        }

        // --- Round sample + adaptive disclosure (the Section-3 loop).
        let power_now = self.measure_power(*refresh_iterations);
        let oecd = self.oecd_score();
        self.per_user_trust_into(power_now.power(), oecd);
        let trust_now = &self.scratch.trust;
        let mean_trust = trust_now.iter().sum::<f64>() / trust_now.len() as f64;
        if self.config.adaptive_disclosure {
            for (i, u) in self.users.iter_mut().enumerate() {
                if trust_now[i] < 0.4 && u.willingness_level > 0 {
                    u.willingness_level -= 1;
                } else if trust_now[i] > 0.7 && u.willingness_level < self.config.disclosure_level {
                    u.willingness_level += 1;
                }
            }
        }
        let sample = RoundSample {
            round,
            mean_satisfaction: self
                .users
                .iter()
                .map(|u| u.satisfaction.satisfaction())
                .sum::<f64>()
                / n as f64,
            mean_trust,
            respect_rate: self.ledger.respect_rate(),
            consistency: power_now.consistency,
            mean_willingness: self.mean_willingness(),
            success_rate: if tally.tried == 0 {
                0.0
            } else {
                tally.ok as f64 / tally.tried as f64
            },
            reports_filed: tally.reports,
            // The offline flags and the group map are the pre-round
            // step's; nothing since has moved them.
            availability: 1.0
                - self.scratch.offline.iter().filter(|&&o| o).count() as f64 / n as f64,
            partition_health: self
                .net_dynamics
                .as_ref()
                .map_or(1.0, |d| d.partition_health()),
            isolated: tally.isolated,
        };
        for observer in observers.iter_mut() {
            observer.on_round(&sample);
        }
        samples.push(sample);
    }

    /// The end-of-run assembly: a final refresh and power
    /// measurement, global facets and the per-user vectors.
    fn assemble_outcome(
        &mut self,
        totals: Counters,
        refresh_iterations: usize,
        samples: Vec<RoundSample>,
        observers: &mut [&mut dyn Observer],
    ) -> ScenarioOutcome {
        let n = self.config.nodes;
        let refresh_iterations = refresh_iterations + self.mechanism.refresh_on(self.workers);
        let power = self.measure_power(refresh_iterations);
        let oecd = self.oecd_score();

        let satisfaction_values: Vec<f64> = self
            .users
            .iter()
            .map(UserState::blended_satisfaction)
            .collect();
        let satisfaction =
            // tsn-lint: allow(no-unwrap, "the population is non-empty (config validation rejects n == 0), so the aggregate exists")
            GlobalSatisfaction::from_values(&satisfaction_values).expect("population is non-empty");

        let privacy_inputs = PrivacyFacetInputs {
            exposure: self
                .mean_willingness()
                .min(self.config.disclosure_policy().exposure()),
            respect_rate: self.ledger.respect_rate(),
            oecd_score: oecd,
        };
        let facets = FacetScores {
            privacy: privacy_inputs.facet().facet,
            reputation: power.power(),
            satisfaction: satisfaction.fairness_discounted(),
        };
        let global_trust = self.metric.trust(&facets);
        self.per_user_trust_into(facets.reputation, oecd);
        let per_user_trust = self.scratch.trust.clone();
        let per_user_respect: Vec<f64> = (0..n)
            .map(|i| self.ledger.respect_rate_for(NodeId::from_index(i)))
            .collect();

        let outcome = ScenarioOutcome {
            facets,
            global_trust,
            per_user_trust,
            per_user_satisfaction: satisfaction_values,
            per_user_respect,
            power,
            satisfaction,
            respect_rate: self.ledger.respect_rate(),
            user_breaches: self.ledger.breach_count(Some(BreachCause::MaliciousUser)),
            system_breaches: self.ledger.breach_count(Some(BreachCause::System)),
            oecd_score: oecd,
            mean_willingness: self.mean_willingness(),
            denial_rate: if totals.requests == 0 {
                0.0
            } else {
                totals.denials as f64 / totals.requests as f64
            },
            honest_success_rate: if totals.honest_tried == 0 {
                0.0
            } else {
                totals.honest_ok as f64 / totals.honest_tried as f64
            },
            interactions: totals.interactions,
            messages: totals.messages,
            whitewashes: totals.whitewashes,
            samples,
        };
        for observer in observers.iter_mut() {
            observer.on_finish(&outcome);
        }
        outcome
    }
}

// ---------------------------------------------------------------------
// The round engine (DESIGN.md §10).
//
// Nodes are partitioned into contiguous shards (one below
// `SHARD_AUTO_NODES` unless `shards` asks for more). Every round:
//
//   1. *Pre-round*: population clock and dynamics/offline flags on the
//      calling thread; then the membership shuffle and the round's
//      selection-weight table, both on the workers.
//   2. *Interaction phase*: workers claim shards off an atomic cursor
//      and run them against the frozen round-start snapshot — scores,
//      served counters and ledger state do not move. Randomness comes
//      from per-(round, node) streams, so draws are independent of shard
//      count and order. One shard runs inline on the calling thread.
//   3. *Merge barrier* (fixed shard order, two ways): the calling
//      thread feeds the shards' staged report views to the mechanism
//      while one helper drains ledger events and served/load credits.
//      Contiguous shards in ascending order make each merged sequence
//      exactly global consumer order — for any shard count, which is
//      why k = 1, 2, 8 are bit-identical.
//   4. *Round tail*: provider adequacy, refresh, measurement, adaptive
//      disclosure. The per-slot fills (power scores, per-user trust)
//      and the refresh walk's ratee blocks split over the workers, one
//      writer per slot; every reduction (the walk's dangling mass and
//      L1 change included) stays serial in slot order. One shard
//      spawns no thread anywhere.
impl Scenario {
    /// (Re)builds the shard plan: `shards` contiguous ranges of
    /// near-equal size covering `0..nodes`.
    fn init_shard_state(&mut self, shards: usize) {
        let n = self.config.nodes;
        let matches_plan =
            self.shard_state.len() == shards && self.shard_state.last().is_some_and(|s| s.end == n);
        if matches_plan {
            return;
        }
        self.shard_state = (0..shards)
            .map(|i| ShardState {
                start: i * n / shards,
                end: (i + 1) * n / shards,
                ..Default::default()
            })
            .collect();
    }

    /// Runs the scenario, invoking every [`Observer`] at start, after
    /// each round and at completion. Observers only watch: the outcome
    /// is identical to [`Scenario::run`].
    pub fn run_observed(&mut self, observers: &mut [&mut dyn Observer]) -> ScenarioOutcome {
        let shards = self.shard_count();
        self.init_shard_state(shards);
        for observer in observers.iter_mut() {
            observer.on_start(&self.config);
        }
        let mut samples = Vec::with_capacity(self.config.rounds);
        let mut totals = Counters::default();
        let mut refresh_iterations = 0;
        let mut now = SimTime::ZERO;
        let system_policy = self.config.disclosure_policy();
        let system_exposure = self.ladder_exposure[self.config.disclosure_level];
        self.workers = if shards == 1 {
            1
        } else {
            std::thread::available_parallelism().map_or(1, |c| c.get().min(shards))
        };

        for round in 0..self.config.rounds {
            self.population.advance_clock(now);
            self.pre_round(now, &mut totals.whitewashes);
            // View shuffle before the phase snapshot freezes — shards
            // then read identical views for any shard count.
            self.membership_pre_round();
            self.fill_selection_weights();

            // --- Interaction phase: workers steal shards off a cursor.
            {
                let ctx = ShardCtx {
                    config: &self.config,
                    graph: &self.graph,
                    population: &self.population,
                    mechanism: self.mechanism.as_ref(),
                    enforcer: &self.enforcer,
                    offline: &self.scratch.offline,
                    weights: &self.scratch.weights,
                    strict: &self.strict,
                    policy_classes: &self.policy_classes,
                    preferred_offsets: &self.preferred_offsets,
                    preferred: &self.preferred,
                    partition: self
                        .net_dynamics
                        .as_ref()
                        .and_then(|d| d.active_group_map()),
                    identities: self.net_dynamics.as_ref().map(|d| d.identities()),
                    views: self.membership.as_ref().map(|m| m.views()),
                    system_policy,
                    system_exposure,
                    round,
                    now,
                };
                let mut rest: &mut [UserState] = &mut self.users;
                let mut units: Vec<ShardUnit<'_>> = Vec::with_capacity(shards);
                for state in self.shard_state.iter_mut() {
                    let width = state.end - state.start;
                    let (own, tail) = std::mem::take(&mut rest).split_at_mut(width);
                    rest = tail;
                    units.push((own, state));
                }
                for_each_chunk_mut(&mut units, 1, self.workers, |_, claimed| {
                    for (users, state) in claimed {
                        run_shard(&ctx, users, state);
                    }
                });
            }

            // --- Merge barrier, in ascending shard order.
            let tally = self.merge_shards();
            totals.add(tally);
            self.finish_round(
                round,
                tally,
                &mut refresh_iterations,
                observers,
                &mut samples,
            );
            now += ROUND_DURATION;
        }

        self.assemble_outcome(totals, refresh_iterations, samples, observers)
    }

    /// Drains every shard outbox into the shared state, in shard order,
    /// two ways at once: the calling thread feeds each shard's staged
    /// views to the mechanism through one `record_batch` per shard,
    /// while a helper applies the ledger events and the served/load
    /// credits. The two touch disjoint state, and each keeps shard
    /// order, so the result is the serial drain's bit for bit. The
    /// mechanism stays on the calling thread: the rows `record_batch`
    /// grows would otherwise be allocated from a helper thread's heap
    /// arena, which holds on to its pages and inflates the peak
    /// resident set.
    fn merge_shards(&mut self) -> Counters {
        let Scenario {
            shard_state,
            ledger,
            population,
            users,
            mechanism,
            workers,
            ..
        } = self;
        let shards: &[ShardState] = shard_state;
        let mut tally = Counters::default();
        for state in shards {
            tally.add(state.outbox.counters);
        }
        join(
            *workers,
            || {
                for state in shards {
                    mechanism.record_batch(&state.outbox.views);
                }
            },
            || {
                for state in shards {
                    for &event in &state.outbox.ledger {
                        match event {
                            LedgerEvent::Disclosure {
                                owner,
                                category,
                                anonymized,
                            } => ledger.record_disclosure(owner, category, anonymized),
                            LedgerEvent::Breach {
                                owner,
                                category,
                                cause,
                            } => ledger.record_breach(owner, category, cause),
                        }
                    }
                    for &provider in &state.outbox.touches {
                        population.note_served(provider, 1);
                        users[provider.index()].load_this_round += 1;
                    }
                }
            },
        );
        tally
    }
}

/// Builds and runs a scenario in one call.
///
/// # Errors
///
/// Returns a [`ValidationError`] when the configuration is invalid.
pub fn run_scenario(config: ScenarioConfig) -> Result<ScenarioOutcome, ValidationError> {
    Ok(Scenario::new(config)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyProfile;
    use tsn_reputation::{FeedbackReport, PopulationConfig};
    use tsn_simnet::DynamicsPlan;

    fn small(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            ..ScenarioConfig::small()
        }
    }

    #[test]
    fn preferred_providers_are_sorted_neighbour_subsets() {
        let s = Scenario::new(small(11)).unwrap();
        let (offsets, table) = (&s.preferred_offsets, &s.preferred);
        let of = |slot: NodeId| &table[offsets[slot.index()]..offsets[slot.index() + 1]];
        let n = s.config.nodes;
        let mut proper_subset = None;
        for slot in (0..n).map(NodeId::from_index) {
            let neighbors = s.graph.neighbors(slot);
            let preferred = of(slot);
            assert!(preferred.windows(2).all(|w| w[0] < w[1]), "{slot} sorted");
            assert!(preferred.iter().all(|p| neighbors.contains(p)), "{slot}");
            assert_eq!(preferred.is_empty(), neighbors.is_empty(), "{slot}");
            if preferred.len() < neighbors.len() {
                proper_subset.get_or_insert(slot);
            }
        }
        let consumer = proper_subset.expect("some slot prefers part of its neighbourhood");
        let neighbors = s.graph.neighbors(consumer);
        let preferred = of(consumer);
        let unlisted = *neighbors.iter().find(|p| !preferred.contains(p)).unwrap();
        // A partner from the membership overlay need not be a neighbour.
        let stranger = (0..n)
            .map(NodeId::from_index)
            .find(|p| *p != consumer && !neighbors.contains(p))
            .unwrap();
        assert!(intends(offsets, table, consumer, preferred[0]));
        assert!(!intends(offsets, table, consumer, unlisted));
        assert!(!intends(offsets, table, consumer, stranger));
        // An empty list (a slot without neighbours) intends anyone.
        assert!(intends(&[0, 1, 1], &[NodeId(2)], NodeId(1), NodeId(0)));
        assert!(!intends(&[0, 1, 1], &[NodeId(2)], NodeId(0), NodeId(1)));
    }

    #[test]
    fn outcome_fields_are_bounded() {
        let o = run_scenario(small(1)).unwrap();
        for (name, v) in o.facets.iter() {
            assert!((0.0..=1.0).contains(&v), "{name} = {v}");
        }
        assert!((0.0..=1.0).contains(&o.global_trust));
        assert!((0.0..=1.0).contains(&o.respect_rate));
        assert!((0.0..=1.0).contains(&o.denial_rate));
        assert_eq!(o.per_user_trust.len(), 40);
        assert!(o.per_user_trust.iter().all(|t| (0.0..=1.0).contains(t)));
        assert_eq!(o.samples.len(), 10);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run_scenario(small(7)).unwrap();
        let b = run_scenario(small(7)).unwrap();
        assert_eq!(a.global_trust, b.global_trust);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.per_user_trust, b.per_user_trust);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_scenario(small(1)).unwrap();
        let b = run_scenario(small(2)).unwrap();
        assert_ne!(a.global_trust, b.global_trust);
    }

    #[test]
    fn full_disclosure_exposes_more_than_minimal() {
        let mut lo = small(3);
        lo.disclosure_level = 0;
        let mut hi = small(3);
        hi.disclosure_level = 4;
        let lo_out = run_scenario(lo).unwrap();
        let hi_out = run_scenario(hi).unwrap();
        assert!(
            lo_out.facets.privacy > hi_out.facets.privacy,
            "less disclosure → better privacy facet: {} vs {}",
            lo_out.facets.privacy,
            hi_out.facets.privacy
        );
    }

    #[test]
    fn disclosure_raises_reputation_power() {
        // The antagonistic coupling of Figure 2: averaged over seeds.
        let mean_rep = |level: usize| {
            (0..4)
                .map(|s| {
                    let mut c = small(20 + s);
                    c.disclosure_level = level;
                    c.population = PopulationConfig::with_malicious(0.3);
                    c.rounds = 15;
                    run_scenario(c).unwrap().facets.reputation
                })
                .sum::<f64>()
                / 4.0
        };
        let low = mean_rep(0);
        let high = mean_rep(4);
        assert!(high > low, "more shared info → more power: {high} vs {low}");

        // An anonymization layer on top of full disclosure costs power too.
        let consistency = |anonymization| {
            let mut c = small(4);
            c.population = PopulationConfig::with_malicious(0.3);
            c.policy_profile = PolicyProfile::Permissive;
            c.mechanism = MechanismKind::Beta;
            c.anonymization = anonymization;
            run_scenario(c).unwrap().power.consistency
        };
        let clean = consistency(None);
        let anonymized = consistency(Some(tsn_reputation::AnonymizationConfig {
            strip_probability: 1.0,
            flip_probability: 0.3,
        }));
        assert!(
            clean > anonymized,
            "clean {clean} vs anonymized {anonymized}"
        );
    }

    #[test]
    fn system_breaches_occur_only_when_oversharing() {
        let mut strict_low = small(5);
        strict_low.policy_profile = PolicyProfile::Strict;
        strict_low.disclosure_level = 2;
        let o = run_scenario(strict_low).unwrap();
        assert_eq!(o.system_breaches, 0, "level 2 within strict cap");

        let mut strict_high = small(5);
        strict_high.policy_profile = PolicyProfile::Strict;
        strict_high.disclosure_level = 4;
        let o = run_scenario(strict_high).unwrap();
        assert!(
            o.system_breaches > 0,
            "level 4 over-shares for strict users"
        );
    }

    #[test]
    fn malicious_population_causes_user_breaches() {
        let mut c = small(6);
        c.population = PopulationConfig::with_malicious(0.4);
        c.leak_probability = 0.5;
        let o = run_scenario(c).unwrap();
        assert!(o.user_breaches > 0);

        let mut honest = small(6);
        honest.population = PopulationConfig::with_malicious(0.0);
        honest.leak_probability = 0.5;
        honest.policy_profile = PolicyProfile::Permissive;
        honest.mechanism = MechanismKind::TrustMe;
        let o = run_scenario(honest).unwrap();
        assert_eq!(o.user_breaches, 0, "no adversaries, no leaks");
        // Nothing is denied or isolated, so every attempt interacts and
        // files one report. TrustMe: 2 transport + (holders + 1) = 4
        // overhead messages per interaction.
        assert_eq!(o.interactions, 40 * 10 * 2);
        assert_eq!(o.messages, o.interactions * 6);
        assert!(o.honest_success_rate > 0.8, "{}", o.honest_success_rate);
    }

    #[test]
    fn strict_policies_cause_denials() {
        let mut strict = small(8);
        strict.policy_profile = PolicyProfile::Strict;
        let o = run_scenario(strict).unwrap();
        assert!(o.denial_rate > 0.0);

        let mut permissive = small(8);
        permissive.policy_profile = PolicyProfile::Permissive;
        let o2 = run_scenario(permissive).unwrap();
        assert!(o2.denial_rate < o.denial_rate);
    }

    #[test]
    fn adaptive_disclosure_reacts_to_low_trust() {
        // A hostile, over-sharing system should push adaptive users to
        // retract disclosure relative to the open-loop run.
        let hostile = |adaptive: bool, seed: u64| {
            let mut c = small(seed);
            c.population = PopulationConfig::with_malicious(0.5);
            c.disclosure_level = 4;
            c.leak_probability = 0.8;
            c.adaptive_disclosure = adaptive;
            c.rounds = 20;
            run_scenario(c).unwrap().mean_willingness
        };
        let adaptive = (0..3).map(|s| hostile(true, 30 + s)).sum::<f64>() / 3.0;
        let open_loop = (0..3).map(|s| hostile(false, 30 + s)).sum::<f64>() / 3.0;
        assert!(
            adaptive < open_loop,
            "distrusting users retract disclosure: {adaptive} vs {open_loop}"
        );
    }

    #[test]
    fn series_extraction() {
        let o = run_scenario(small(9)).unwrap();
        for name in RoundSample::SERIES_NAMES {
            assert_eq!(o.series(name).expect("known name").len(), o.samples.len());
        }
    }

    #[test]
    fn unknown_series_is_none_not_panic() {
        let o = run_scenario(small(9)).unwrap();
        assert_eq!(o.series("nope"), None);
        assert_eq!(o.samples[0].field("nope"), None);
    }

    #[test]
    fn invalid_config_rejected() {
        let cases = [
            ScenarioConfig {
                disclosure_level: 9,
                ..Default::default()
            },
            ScenarioConfig {
                dynamics: Some(DynamicsPlan::steady_offline(1.5, ROUND_DURATION)),
                ..Default::default()
            },
        ];
        for c in cases {
            assert!(Scenario::new(c).is_err());
        }
    }

    #[test]
    fn churn_reduces_interactions_but_stays_sound() {
        let mut stable = small(40);
        stable.rounds = 12;
        let stable_out = run_scenario(stable).unwrap();
        let mut churny = small(40);
        churny.rounds = 12;
        churny.dynamics = Some(DynamicsPlan::steady_offline(0.4, ROUND_DURATION));
        let churny_out = run_scenario(churny).unwrap();
        assert!(churny_out.interactions < stable_out.interactions);
        assert!(churny_out.facets.validate().is_ok());
        assert!((0.0..=1.0).contains(&churny_out.global_trust));
    }

    #[test]
    fn only_whitewasher_slots_whitewash_when_the_coin_never_does() {
        // `steady_offline` churns with whitewash probability 0, so every
        // whitewash must come from a whitewasher-class slot.
        let whitewashes = |whitewasher: f64| {
            let mut c = small(42);
            c.population = PopulationConfig {
                whitewasher,
                ..PopulationConfig::with_malicious(0.1)
            };
            c.dynamics = Some(DynamicsPlan::steady_offline(0.3, ROUND_DURATION));
            run_scenario(c).unwrap().whitewashes
        };
        assert_eq!(whitewashes(0.0), 0);
        assert!(whitewashes(0.2) > 0);
    }

    fn report_bits(r: &PowerReport) -> [u64; 6] {
        [
            r.consistency.to_bits(),
            r.rmse.to_bits(),
            r.reliability.to_bits(),
            r.efficiency.to_bits(),
            r.iterations as u64,
            r.overhead_per_report as u64,
        ]
    }

    fn memo_misses(s: &Scenario) -> u64 {
        s.scratch.power_memo.computed
    }

    #[test]
    fn power_memo_hit_is_bit_identical_to_a_fresh_evaluation() {
        // EigenTrust under full disclosure: scores move only at a
        // refresh, so the rounds between refreshes hit the memo.
        let mut s = Scenario::new(small(7)).unwrap();
        let rounds = s.config.rounds as u64;
        let outcome = s.run();
        let misses = memo_misses(&s);
        assert!(misses < rounds + 1, "{misses} misses in {rounds} rounds");
        let iterations = outcome.power.iterations;
        let hit = s.measure_power(iterations);
        assert_eq!(memo_misses(&s), misses, "identical inputs hit");
        let adversarial: Vec<bool> = (0..s.config.nodes)
            .map(|i| s.population.is_adversarial(NodeId::from_index(i)))
            .collect();
        let fresh = accuracy::evaluate(
            s.mechanism.as_ref(),
            &s.population.true_qualities(),
            &adversarial,
            iterations,
        );
        assert_eq!(report_bits(&hit), report_bits(&fresh));
        assert_eq!(report_bits(&hit), report_bits(&outcome.power));
    }

    #[test]
    fn power_memo_misses_when_the_scores_move() {
        let mut c = small(8);
        c.mechanism = MechanismKind::Beta;
        let mut s = Scenario::new(c).unwrap();
        let rounds = s.config.rounds as u64;
        s.run();
        // Beta scores move with every recorded report, so every round
        // recomputes; its refresh is a no-op, so the final measurement
        // (no reports since the last round) hits.
        assert_eq!(memo_misses(&s), rounds);
        s.measure_power(0);
        let misses = memo_misses(&s);
        let report = FeedbackReport {
            rater: NodeId(0),
            ratee: NodeId(1),
            outcome: tsn_reputation::InteractionOutcome::Failure,
            topic: None,
            at: SimTime::ZERO,
        };
        s.mechanism.record(&DisclosurePolicy::full().view(&report));
        s.measure_power(0);
        assert_eq!(memo_misses(&s), misses + 1);
    }

    #[test]
    fn power_memo_misses_when_ground_truth_moves() {
        let mut c = small(9);
        c.population = PopulationConfig {
            traitor: 0.25,
            ..PopulationConfig::default()
        };
        let mut s = Scenario::new(c).unwrap();
        s.measure_power(0);
        s.measure_power(0);
        assert_eq!(memo_misses(&s), 1, "identical inputs hit");
        let (traitor, switch_after) = (0..s.config.nodes)
            .map(NodeId::from_index)
            .find_map(|n| match s.population.class(n) {
                BehaviorClass::Traitor { switch_after } => Some((n, switch_after)),
                _ => None,
            })
            .expect("a quarter of the population are traitors");
        // The traitor turns: its true quality drops, the scores do not
        // move.
        s.population.note_served(traitor, switch_after);
        s.measure_power(0);
        assert_eq!(memo_misses(&s), 2);
    }

    #[test]
    fn power_memo_misses_when_only_the_iterations_move() {
        let mut s = Scenario::new(small(10)).unwrap();
        let first = s.measure_power(3);
        let again = s.measure_power(3);
        assert_eq!(memo_misses(&s), 1);
        assert_eq!(report_bits(&first), report_bits(&again));
        // The final refresh adds iterations to otherwise equal inputs.
        let after_refresh = s.measure_power(4);
        assert_eq!(memo_misses(&s), 2);
        assert_eq!(after_refresh.iterations, 4);
        assert!(after_refresh.efficiency < first.efficiency);
    }

    #[test]
    fn full_churn_is_a_degenerate_but_safe_run() {
        let mut c = small(41);
        c.dynamics = Some(DynamicsPlan::steady_offline(1.0, ROUND_DURATION));
        let o = run_scenario(c).unwrap();
        assert_eq!(o.interactions, 0);
        assert_eq!(o.denial_rate, 0.0);
        assert!(o.facets.validate().is_ok());
    }

    #[test]
    fn greedy_selection_overloads_providers() {
        // Best-only selection concentrates load on top-scored providers,
        // hurting provider-role satisfaction relative to random spread.
        let provider_side = |selection: tsn_reputation::SelectionPolicy, seed: u64| {
            let mut c = small(seed);
            c.rounds = 15;
            c.interactions_per_node = 4;
            c.selection = selection;
            let mut scenario = Scenario::new(c).unwrap();
            scenario.run();
            // The provider role alone, aggregated as the facet is.
            let provider: Vec<f64> = scenario
                .users
                .iter()
                .map(|u| u.provider_satisfaction.satisfaction())
                .collect();
            GlobalSatisfaction::from_values(&provider)
                .unwrap()
                .fairness_discounted()
        };
        let spread = (0..3)
            .map(|s| provider_side(tsn_reputation::SelectionPolicy::Random, 60 + s))
            .sum::<f64>()
            / 3.0;
        let greedy = (0..3)
            .map(|s| provider_side(tsn_reputation::SelectionPolicy::Best, 60 + s))
            .sum::<f64>()
            / 3.0;
        assert!(
            greedy < spread,
            "greedy selection must overload winners: {greedy} vs {spread}"
        );
    }
}
