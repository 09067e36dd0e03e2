//! Pluggable crack-pivot policies: how a cracked structure chooses its
//! physical split points for a query predicate.
//!
//! The paper (and the CIDR'07 baseline) always crack *exactly* at the
//! query's predicate bounds. That choice is optimal for repeated and
//! random workloads but pathological for two adversarial patterns the
//! interactive-exploration benchmarks stress:
//!
//! * **Sequential sweeps** (`Pattern::Sequential`) leave one huge
//!   uncracked tail piece that every query re-partitions — per-query
//!   cost stays O(n) instead of converging.
//! * **Skewed drill-downs** shatter a hot value region into thousands of
//!   tiny pieces, bloating the AVL cracker index with boundaries that
//!   never pay for themselves.
//!
//! [`CrackPolicy`] makes the pivot choice pluggable:
//!
//! * [`CrackPolicy::Standard`] — crack exactly at the predicate bounds
//!   (the paper's behaviour, bit-for-bit).
//! * [`CrackPolicy::Stochastic`] — before cracking at a bound whose
//!   enclosing piece is still large, recursively inject *advisory*
//!   pivots (data values at pseudo-random positions) so pieces halve on
//!   every touch, à la stochastic cracking (Halim et al., VLDB 2012).
//! * [`CrackPolicy::CoarseGranular`] — never split a piece at or below
//!   `min_piece` tuples; the query filters inside the leaf piece
//!   instead, capping AVL growth under skew.
//!
//! * [`CrackPolicy::Adaptive`] — let a per-column
//!   [`PolicyAdvisor`](crate::advisor::PolicyAdvisor) pick one of the
//!   three static strategies above per query, from O(1) workload
//!   statistics (sequential-run detection, hot-range skew counters,
//!   boundary-density caps). The structures that own an advisor resolve
//!   `Adaptive` to an *effective* static policy before every crack; the
//!   partition kernels themselves never see it.
//!
//! **Determinism contract.** Alignment in sideways and partial sideways
//! cracking replays tape-logged predicates on sibling structures and
//! requires bit-identical physical outcomes. Every static policy is
//! therefore a *pure function of the array state and the predicate*:
//! the stochastic pivot is derived by hashing the enclosing piece's
//! coordinates (plus the policy seed) into a position and reading the
//! data value there — no mutable RNG state — so two aligned siblings
//! replaying the same tape choose identical pivots. A structure's
//! *effective* policy may change between queries (that is what
//! `Adaptive` does), but every tape entry records the effective static
//! policy the original crack ran under, and replay always uses the
//! logged policy — never the owner's current one — so siblings,
//! late-created maps and recreated chunks reproduce each historic crack
//! bit-for-bit regardless of what the advisor has decided since.

/// How many tuples a piece may hold before [`CrackPolicy::Stochastic`]
/// stops injecting advisory pivots and cracks exactly.
pub const DEFAULT_STOCHASTIC_MIN_PIECE: usize = 1 << 10;

/// Default leaf-piece size for [`CrackPolicy::CoarseGranular`].
pub const DEFAULT_COARSE_MIN_PIECE: usize = 1 << 10;

/// Default seed mixed into the stochastic pivot hash.
pub const DEFAULT_STOCHASTIC_SEED: u64 = 0x0C4A_C4DB_0000_51DE;

/// Smallest uncracked piece the radix-prepartition fast path bothers
/// with: below this, one blocked crack-in-two pass is already cheap and
/// the advisory boundaries would not pay for their AVL nodes.
pub const PREPARTITION_MIN_PIECE: usize = 1 << 20;

/// Piece size the prepartition aims for: roughly L2-resident pieces, so
/// every later crack of a seeded piece is cache-friendly.
pub const PREPARTITION_TARGET_PIECE: usize = 1 << 16;

/// The pivot-choice strategy of a cracked structure. See the module docs
/// for the behavioural and determinism contracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrackPolicy {
    /// Crack exactly at the query's predicate bounds — the paper's
    /// behaviour, reproduced bit-for-bit (the default).
    #[default]
    Standard,
    /// Inject deterministic pseudo-random *advisory* pivots into large
    /// enclosing pieces before the exact crack, so pieces halve even
    /// under sequential sweeps.
    Stochastic {
        /// Seed mixed into the pivot-position hash. Two structures that
        /// must stay aligned must share the seed.
        seed: u64,
    },
    /// Stop splitting pieces at or below `min_piece` tuples; queries
    /// filter inside the leaf piece instead of cracking it.
    CoarseGranular {
        /// Smallest piece the policy is willing to split.
        min_piece: usize,
    },
    /// Defer the choice to a per-structure
    /// [`PolicyAdvisor`](crate::advisor::PolicyAdvisor), which picks one
    /// of the three static strategies per query from O(1) workload
    /// statistics. Structures resolve this to an effective static policy
    /// before cracking; if a kernel ever sees it directly it behaves
    /// like [`CrackPolicy::Standard`].
    Adaptive,
}

impl CrackPolicy {
    /// Stochastic policy with the default seed.
    pub fn stochastic() -> Self {
        CrackPolicy::Stochastic {
            seed: DEFAULT_STOCHASTIC_SEED,
        }
    }

    /// Coarse-granular policy with the default leaf size.
    pub fn coarse() -> Self {
        CrackPolicy::CoarseGranular {
            min_piece: DEFAULT_COARSE_MIN_PIECE,
        }
    }

    /// Short machine-readable name (benchmark output, CI matrices).
    pub fn label(&self) -> &'static str {
        match self {
            CrackPolicy::Standard => "standard",
            CrackPolicy::Stochastic { .. } => "stochastic",
            CrackPolicy::CoarseGranular { .. } => "coarse",
            CrackPolicy::Adaptive => "adaptive",
        }
    }

    /// Parse a policy name: `standard`, `stochastic` (default seed),
    /// `coarse` (default leaf size), `coarse:<min_piece>` or `adaptive`.
    ///
    /// This is pure string parsing; the `CRACKDB_POLICY` environment
    /// hook the engine constructors consume lives next to the other env
    /// parsing in `crackdb-engine`'s `exec` module (`policy_from_env` /
    /// `env_policy`), where an invalid value is a recoverable startup
    /// error instead of a panic inside a library constructor.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        match s {
            "" | "standard" => Some(CrackPolicy::Standard),
            "stochastic" => Some(CrackPolicy::stochastic()),
            "coarse" => Some(CrackPolicy::coarse()),
            "adaptive" => Some(CrackPolicy::Adaptive),
            _ => {
                let rest = s.strip_prefix("coarse:")?;
                let min_piece: usize = rest.parse().ok()?;
                Some(CrackPolicy::CoarseGranular {
                    min_piece: min_piece.max(1),
                })
            }
        }
    }

    /// The piece size the radix-prepartition fast path should target
    /// under this policy. Coarse-granular cracking promises never to
    /// manufacture pieces below its leaf size, so its target is clamped
    /// up to `min_piece`; the other policies take the cache-friendly
    /// default. (Like every policy decision this is a pure function, so
    /// aligned siblings prepartition identically.)
    pub fn prepartition_target(&self) -> usize {
        match *self {
            CrackPolicy::Standard
            | CrackPolicy::Stochastic { .. }
            | CrackPolicy::Adaptive => PREPARTITION_TARGET_PIECE,
            CrackPolicy::CoarseGranular { min_piece } => PREPARTITION_TARGET_PIECE.max(min_piece),
        }
    }

    /// `true` for the self-tuning variant that needs an advisor to
    /// resolve it into a static policy.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, CrackPolicy::Adaptive)
    }

    /// The three static policy families at their defaults, for sweeps.
    /// (`Adaptive` is excluded: it is not a pivot strategy itself, only
    /// a per-query selector over these three.)
    pub fn all() -> [CrackPolicy; 3] {
        [
            CrackPolicy::Standard,
            CrackPolicy::stochastic(),
            CrackPolicy::coarse(),
        ]
    }

    /// Every parseable policy family at its defaults, adaptive included
    /// — what benchmark sweeps and CI matrices iterate.
    pub fn all_selectable() -> [CrackPolicy; 4] {
        [
            CrackPolicy::Standard,
            CrackPolicy::stochastic(),
            CrackPolicy::coarse(),
            CrackPolicy::Adaptive,
        ]
    }
}

/// The qualifying area a policy-aware crack produced.
///
/// Under [`CrackPolicy::Standard`] and [`CrackPolicy::Stochastic`] the
/// span is always **exact**: every tuple in `[start, end)` satisfies the
/// predicate. Under [`CrackPolicy::CoarseGranular`] a declined split
/// leaves the span **inexact** — a superset delimited by the enclosing
/// leaf pieces — and the caller must filter head values by the
/// predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First position of the (super)set of qualifying tuples.
    pub start: usize,
    /// One past the last position.
    pub end: usize,
    /// `true` when every tuple in the span satisfies the predicate.
    pub exact: bool,
}

impl Span {
    /// Exact span covering `[start, end)`.
    pub fn exact(start: usize, end: usize) -> Self {
        Span {
            start,
            end,
            exact: true,
        }
    }

    /// The `(start, end)` pair.
    pub fn range(&self) -> (usize, usize) {
        (self.start, self.end)
    }

    /// Number of tuples in the span (qualifying count only when exact).
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the span holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// splitmix64 finalizer: the stateless hash behind stochastic pivot
/// positions. Pure, so tape replay on aligned siblings reproduces the
/// same pivot from the same piece coordinates.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_labels() {
        for p in CrackPolicy::all_selectable() {
            assert_eq!(CrackPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(CrackPolicy::parse("adaptive"), Some(CrackPolicy::Adaptive));
        assert!(CrackPolicy::Adaptive.is_adaptive());
        assert!(!CrackPolicy::Standard.is_adaptive());
        assert_eq!(CrackPolicy::parse(""), Some(CrackPolicy::Standard));
        assert_eq!(
            CrackPolicy::parse("coarse:64"),
            Some(CrackPolicy::CoarseGranular { min_piece: 64 })
        );
        assert_eq!(
            CrackPolicy::parse("coarse:0"),
            Some(CrackPolicy::CoarseGranular { min_piece: 1 })
        );
        assert_eq!(CrackPolicy::parse("nonsense"), None);
        assert_eq!(CrackPolicy::parse("coarse:x"), None);
    }

    #[test]
    fn mix64_is_deterministic_and_spreading() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // Sequential inputs spread across the space (no tiny cycle).
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            seen.insert(mix64(i) % 1024);
        }
        assert!(seen.len() > 500);
    }

    #[test]
    fn span_helpers() {
        let s = Span::exact(3, 7);
        assert_eq!(s.range(), (3, 7));
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(Span::exact(5, 5).is_empty());
    }
}
