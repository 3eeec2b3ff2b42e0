//! Hard-fault descriptions and the injection plan consulted by the
//! simulator's decode and execute stages.

use std::fmt;
use std::str::FromStr;

/// A structure in the core that can harbor a permanent fault.
///
/// The granularity matches the paper's spatial-diversity argument: an
/// instruction is processed by exactly one *frontend way* (fetch slot,
/// decoder, rename port) and one *backend way* (functional-unit instance
/// with its operand-read and writeback paths), so faults are attached to
/// ways. The shared issue queue's payload RAM is its own site class
/// (§4.5's residual vulnerability).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The fetch/decode/rename path of frontend way `way` (0-based).
    /// Corrupts the raw instruction word of every instruction that flows
    /// through the way while the trigger matches.
    Frontend {
        /// Frontend way index.
        way: usize,
    },
    /// The execute path of the backend way with global index `way`
    /// (a specific functional-unit instance, including cache ports).
    /// Corrupts the computed result (or the resolved target of a control
    /// instruction, or the effective address of a memory operation).
    Backend {
        /// Global backend-way index.
        way: usize,
    },
    /// One entry of the issue-queue payload RAM. Corrupts the instruction
    /// word of whichever instruction occupies the entry, in *both* threads
    /// if they happen to reuse it — the escape the paper closes by
    /// splitting the payload RAM per thread.
    PayloadRam {
        /// Issue-queue entry index.
        entry: usize,
    },
    /// One set of the L1 data-cache data array (uncore). Corrupts the
    /// value of every load whose address maps to the set, *before* the
    /// leading thread captures it into the LVQ — so both threads agree on
    /// the corrupt value unless an ECC layer intervenes.
    CacheData {
        /// Cache set index.
        index: usize,
    },
    /// One set of the L1 data-cache tag array (uncore). A tag defect can
    /// only force spurious misses here (the model never fabricates false
    /// hits), so it perturbs latency without corrupting architectural
    /// state.
    CacheTag {
        /// Cache set index.
        index: usize,
    },
    /// One entry of the store buffer holding leading stores awaiting
    /// their trailing check. Corrupts the buffered store data, so the
    /// pair check sees a leading/trailing disagreement.
    StoreBuffer {
        /// Store-buffer entry index.
        entry: usize,
    },
    /// One entry of the DTQ payload RAM carrying the pristine instruction
    /// word to the trailing thread. Corrupts only the trailing copy —
    /// memory is driven by the leading thread, so this can never escape.
    DtqPayload {
        /// DTQ entry index.
        entry: usize,
    },
    /// One entry of the LVQ payload RAM holding captured load values for
    /// the trailing thread. Without ECC this corrupts the trailing load
    /// value (detected by the pair checks); with SEC-DED ECC enabled a
    /// single-bit defect is corrected and a multi-bit one raises a DUE.
    LvqPayload {
        /// LVQ entry index.
        entry: usize,
    },
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSite::Frontend { way } => write!(f, "frontend way {way}"),
            FaultSite::Backend { way } => write!(f, "backend way {way}"),
            FaultSite::PayloadRam { entry } => write!(f, "payload RAM entry {entry}"),
            FaultSite::CacheData { index } => write!(f, "L1D data array set {index}"),
            FaultSite::CacheTag { index } => write!(f, "L1D tag array set {index}"),
            FaultSite::StoreBuffer { entry } => write!(f, "store buffer entry {entry}"),
            FaultSite::DtqPayload { entry } => write!(f, "DTQ payload entry {entry}"),
            FaultSite::LvqPayload { entry } => write!(f, "LVQ payload entry {entry}"),
        }
    }
}

/// A site family's spelling and its constructor from an index.
type Family = (&'static str, fn(usize) -> FaultSite);

/// The site families, in [`FaultSite`] declaration order: the one table
/// behind [`FaultSite::label`] and its parser (`bjsim --fault`, the
/// corpus `fault` header, campaign job labels).
const FAMILIES: [Family; 8] = [
    ("frontend", |way| FaultSite::Frontend { way }),
    ("backend", |way| FaultSite::Backend { way }),
    ("payload", |entry| FaultSite::PayloadRam { entry }),
    ("cachedata", |index| FaultSite::CacheData { index }),
    ("cachetag", |index| FaultSite::CacheTag { index }),
    ("sbuf", |entry| FaultSite::StoreBuffer { entry }),
    ("dtq", |entry| FaultSite::DtqPayload { entry }),
    ("lvq", |entry| FaultSite::LvqPayload { entry }),
];

impl FaultSite {
    /// `(position in FAMILIES, index within the family)`.
    #[inline]
    fn family_index(self) -> (usize, usize) {
        match self {
            FaultSite::Frontend { way } => (0, way),
            FaultSite::Backend { way } => (1, way),
            FaultSite::PayloadRam { entry } => (2, entry),
            FaultSite::CacheData { index } => (3, index),
            FaultSite::CacheTag { index } => (4, index),
            FaultSite::StoreBuffer { entry } => (5, entry),
            FaultSite::DtqPayload { entry } => (6, entry),
            FaultSite::LvqPayload { entry } => (7, entry),
        }
    }

    /// The compact `SITE:INDEX` spelling (`backend:4`, `sbuf:0`), which
    /// `str::parse` reads back.
    pub fn label(self) -> String {
        let (family, i) = self.family_index();
        format!("{}:{i}", FAMILIES[family].0)
    }
}

impl FromStr for FaultSite {
    type Err = String;

    /// Parses the [`FaultSite::label`] spelling `SITE:INDEX`.
    fn from_str(s: &str) -> Result<FaultSite, String> {
        let (family, index) =
            s.split_once(':').ok_or_else(|| format!("bad fault site `{s}` (want SITE:INDEX)"))?;
        let (_, make) = FAMILIES.iter().find(|(name, _)| *name == family).ok_or_else(|| {
            let names: Vec<&str> = FAMILIES.iter().map(|(name, _)| *name).collect();
            format!("unknown fault site `{family}` (one of {})", names.join(", "))
        })?;
        let i = index.parse().map_err(|_| format!("bad fault site index `{index}`"))?;
        Ok(make(i))
    }
}

/// The temporal model of a fault plan: when, relative to the arming
/// cycle, the plan's faults are physically present.
///
/// Hard faults are the paper's subject — permanent from arming onwards.
/// Transient and intermittent faults extend the universe per the uncore
/// soft-error literature: a transient is a single-cycle upset, an
/// intermittent fault cycles between broken and healthy with a duty
/// cycle (burst faults from marginal hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultKind {
    /// Permanent: active on every cycle at or after arming.
    #[default]
    Hard,
    /// Single-cycle upset: active only on the arming cycle itself.
    Transient,
    /// Duty-cycled burst: starting at the arming cycle, active for the
    /// first `on` cycles of every `period`-cycle window.
    Intermittent {
        /// Window length in cycles (≥ 1).
        period: u64,
        /// Active cycles at the start of each window (1 ..= period).
        on: u64,
    },
}

impl FaultKind {
    /// True if a fault of this kind is physically present at `cycle`,
    /// given the plan armed at `arm`.
    #[inline]
    pub fn active(self, cycle: u64, arm: u64) -> bool {
        if cycle < arm {
            return false;
        }
        match self {
            FaultKind::Hard => true,
            FaultKind::Transient => cycle == arm,
            FaultKind::Intermittent { period, on } => {
                debug_assert!(period >= 1 && (1..=period).contains(&on));
                (cycle - arm) % period < on
            }
        }
    }

    /// Short lower-case name used in reports and env parsing.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Hard => "hard",
            FaultKind::Transient => "transient",
            FaultKind::Intermittent { .. } => "intermittent",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Intermittent { period, on } => {
                write!(f, "intermittent({on}/{period})")
            }
            other => f.write_str(other.name()),
        }
    }
}

/// How a fault transforms a value passing through the faulty structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corruption {
    /// Bit `bit` reads as `value` regardless of what was written.
    StuckAt {
        /// Bit position, `0..64`.
        bit: u8,
        /// The stuck level.
        value: bool,
    },
    /// Bit `bit` inverts on every pass.
    FlipBit {
        /// Bit position, `0..64`.
        bit: u8,
    },
    /// The value is XORed with `mask` (a multi-bit defect).
    XorMask {
        /// Bits to invert.
        mask: u64,
    },
}

impl Corruption {
    /// Applies the corruption to a value.
    pub fn apply(self, v: u64) -> u64 {
        match self {
            Corruption::StuckAt { bit, value } => {
                if value {
                    v | (1 << bit)
                } else {
                    v & !(1 << bit)
                }
            }
            Corruption::FlipBit { bit } => v ^ (1 << bit),
            Corruption::XorMask { mask } => v ^ mask,
        }
    }
}

/// The machine-state condition under which a fault manifests.
///
/// `Always` models a gross defect. `ValuePattern` models marginal hardware
/// that fails only under specific signal patterns — exactly the class of
/// error the paper argues escapes manufacturing test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trigger {
    /// Fires on every value.
    Always,
    /// Fires only when `(value & mask) == pattern`.
    ValuePattern {
        /// Bits that participate in the condition.
        mask: u64,
        /// Required value of those bits.
        pattern: u64,
    },
}

impl Trigger {
    /// True if the fault fires for `v`.
    pub fn matches(self, v: u64) -> bool {
        match self {
            Trigger::Always => true,
            Trigger::ValuePattern { mask, pattern } => (v & mask) == pattern,
        }
    }
}

/// One permanent fault: a site, a corruption, and a trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HardFault {
    /// Where the fault lives.
    pub site: FaultSite,
    /// What it does to values.
    pub corruption: Corruption,
    /// When it fires.
    pub trigger: Trigger,
}

impl HardFault {
    /// An always-firing stuck-at-1 fault on bit 0 — the simplest defect,
    /// handy for tests and examples.
    pub fn stuck_bit(site: FaultSite, bit: u8) -> HardFault {
        HardFault { site, corruption: Corruption::StuckAt { bit, value: true }, trigger: Trigger::Always }
    }

    /// Parses `SITE:INDEX[:BIT]` — a [`HardFault::stuck_bit`] on bit
    /// `BIT` (default 0) of the site — the spelling of `bjsim --fault`
    /// and the corpus `fault` header.
    ///
    /// # Errors
    ///
    /// Describes the malformed part: an unknown site family, a bad index,
    /// or a bit outside `0..64`.
    pub fn parse_stuck_bit(spec: &str) -> Result<HardFault, String> {
        let (site, bit) = match spec.match_indices(':').nth(1) {
            Some((at, _)) => (&spec[..at], &spec[at + 1..]),
            None => (spec, "0"),
        };
        let bit = bit.parse::<u8>().ok().filter(|&b| b < 64);
        let bit = bit.ok_or_else(|| format!("bad fault bit in `{spec}` (want 0..64)"))?;
        Ok(HardFault::stuck_bit(site.parse()?, bit))
    }

    /// Applies the fault to `v` if the trigger matches.
    pub fn apply(&self, v: u64) -> u64 {
        if self.trigger.matches(v) {
            self.corruption.apply(v)
        } else {
            v
        }
    }
}

impl fmt::Display for HardFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} at {}", self.corruption, self.site)
    }
}

/// Per-site last-exercise cycles, recorded by a plan built with
/// [`FaultPlan::record_usage`] — the *reference pass* of an early-exit
/// campaign.
///
/// "Exercise" means a fault hook consulted the site: frontend ways on
/// every fetched word, backend ways on every computed value, payload
/// entries only for occupants a (possibly split) payload RAM would
/// expose. The plan records exactly the consultations a fault there would
/// see, so a fault armed after its site's last exercise in the fault-free
/// run can never activate: its run is bit-identical to the fault-free
/// run and provably benign with zero simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteUsage {
    /// Last exercise cycle + 1 per site index (0 = never), one vector per
    /// site family in declaration order, sized by
    /// [`FaultPlan::record_usage`].
    last: [Vec<u64>; 8],
}

impl SiteUsage {
    #[inline]
    fn note(&mut self, site: FaultSite, cycle: u64) {
        let (family, i) = site.family_index();
        // Cycles only move forward, so a plain store stays monotone.
        self.last[family][i] = cycle + 1;
    }

    /// The cycle `site` was last exercised, or `None` if never.
    pub fn last_use(&self, site: FaultSite) -> Option<u64> {
        let (family, i) = site.family_index();
        match self.last[family].get(i).copied().unwrap_or(0) {
            0 => None,
            stamped => Some(stamped - 1),
        }
    }
}

/// The set of faults active in one simulation, and the one decision every
/// fault hook in the pipeline makes: [`FaultPlan::apply`] (and the tag
/// predicate [`FaultPlan::cache_tag_miss`]).
///
/// A plan can be *armed* at a cycle: before `arm_cycle` the hardware is
/// healthy and every hook is inert. This models wear-out defects that
/// develop mid-run, and it is what makes the fault-free prefix of an
/// injection run shareable — every plan for the same workload is
/// identical (empty, effectively) until its arming point.
///
/// The plan also counts its own effect: every hook application that
/// actually *changed* the value bumps [`FaultPlan::activations`]. While
/// `activations() == 0` the faulted run is bit-identical to the
/// fault-free run — the invariant the campaign's early-exit layer builds
/// on. Each simulation owns its plan, so the count is a plain integer and
/// a clone (a snapshot) carries it along.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<HardFault>,
    kind: FaultKind,
    arm_cycle: u64,
    /// The simulator's current cycle, published by
    /// [`FaultPlan::observe_cycle`] once per step so the temporal model
    /// can decide whether the faults are present when a hook fires.
    now: u64,
    activations: u64,
    /// The reference-pass recorder ([`FaultPlan::record_usage`]).
    usage: Option<Box<SiteUsage>>,
}

impl FaultPlan {
    /// An empty (fault-free) plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with a single fault.
    pub fn single(fault: HardFault) -> FaultPlan {
        FaultPlan { faults: vec![fault], ..FaultPlan::default() }
    }

    /// Defers the plan's faults until simulation cycle `cycle` (a wear-out
    /// fault). The default arming cycle is 0: faulty from power-on.
    pub fn arm_at(mut self, cycle: u64) -> FaultPlan {
        self.arm_cycle = cycle;
        self
    }

    /// The cycle at which the faults begin to manifest.
    pub fn arm_cycle(&self) -> u64 {
        self.arm_cycle
    }

    /// Sets the plan's temporal model (default: [`FaultKind::Hard`]).
    pub fn with_kind(mut self, kind: FaultKind) -> FaultPlan {
        if let FaultKind::Intermittent { period, on } = kind {
            assert!(period >= 1 && (1..=period).contains(&on), "intermittent duty cycle must satisfy 1 <= on <= period");
        }
        self.kind = kind;
        self
    }

    /// The plan's temporal model.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// Turns on per-site usage recording ([`SiteUsage`]): every hook
    /// consultation stamps its site with the current cycle. The record
    /// is allocated once at `family_sizes`, the entries per site family
    /// in [`FaultSite`] declaration order (the simulator's
    /// `CoreConfig::site_family_sizes`); a hook consulting a site past
    /// them panics. So recording never reallocates, and every copy of
    /// the plan (one per snapshot of the reference pass) has the same
    /// shape: copies of varying sizes would fragment the heap, and a
    /// campaign's peak memory, differently from run to run.
    pub fn record_usage(mut self, family_sizes: [usize; 8]) -> FaultPlan {
        self.usage = Some(Box::new(SiteUsage { last: family_sizes.map(|n| vec![0; n]) }));
        self
    }

    /// The recorded site usage, if [`FaultPlan::record_usage`] is on.
    pub fn site_usage(&self) -> Option<&SiteUsage> {
        self.usage.as_deref()
    }

    /// Publishes the simulator's current cycle. The core calls this once
    /// at the top of every step; hooks firing later in the same cycle
    /// consult it to decide whether the faults are physically present
    /// under the plan's temporal model.
    pub fn observe_cycle(&mut self, cycle: u64) {
        self.now = cycle;
    }

    /// Adds a fault.
    pub fn add(&mut self, fault: HardFault) -> &mut Self {
        self.faults.push(fault);
        self
    }

    /// All faults.
    pub fn faults(&self) -> &[HardFault] {
        &self.faults
    }

    /// True if no faults are active.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Hook applications that changed the value passing through. While
    /// this is zero the run is bit-identical to its fault-free twin: the
    /// hooks are the only nondeterminism a plan introduces, and an
    /// application that returns its input leaves no trace.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// The fault hook: passes `v` through `site` on the current cycle.
    ///
    /// Records the consultation when usage recording is on, then — if a
    /// fault is physically present under the temporal model — applies
    /// every fault at `site`, counting a value change as an activation.
    /// Before arming, and on the cycles a transient or intermittent fault
    /// is dormant, the structure is healthy: the read activates nothing.
    /// A plan with no faults and no recorder returns `v` after one
    /// inlined test.
    #[inline]
    pub fn apply(&mut self, site: FaultSite, v: u64) -> u64 {
        if self.is_inert() || !self.consult(site) {
            return v;
        }
        let mut out = v;
        for f in &self.faults {
            if f.site == site {
                out = f.apply(out);
            }
        }
        if out != v {
            self.activations += 1;
        }
        out
    }

    /// The L1D *tag* hook for set `index`: true if a tag fault there is
    /// present right now (tag faults only perturb latency, so the hook is
    /// a predicate rather than a value transform). A forced miss changes
    /// timing, so the run is no longer bit-identical to its fault-free
    /// twin: it counts as an activation, keeping the convergence seal
    /// conservative.
    #[inline]
    pub fn cache_tag_miss(&mut self, index: usize) -> bool {
        let site = FaultSite::CacheTag { index };
        if self.is_inert() || !self.consult(site) {
            return false;
        }
        let hit = self.faults.iter().any(|f| f.site == site);
        if hit {
            self.activations += 1;
        }
        hit
    }

    /// No faults and no recorder: every hook passes its value through.
    #[inline]
    fn is_inert(&self) -> bool {
        self.faults.is_empty() && self.usage.is_none()
    }

    /// Records the consultation of `site` and reports whether the plan's
    /// faults are physically present this cycle. Inlined, like the rest of
    /// the hook, into the pipeline's call sites in the simulator crate.
    #[inline]
    fn consult(&mut self, site: FaultSite) -> bool {
        if let Some(u) = &mut self.usage {
            u.note(site, self.now);
        }
        !self.faults.is_empty() && self.kind.active(self.now, self.arm_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_at_semantics() {
        let c = Corruption::StuckAt { bit: 3, value: true };
        assert_eq!(c.apply(0), 8);
        assert_eq!(c.apply(8), 8);
        let c = Corruption::StuckAt { bit: 3, value: false };
        assert_eq!(c.apply(0xf), 0x7);
        assert_eq!(c.apply(0x7), 0x7);
    }

    #[test]
    fn flip_and_mask() {
        assert_eq!(Corruption::FlipBit { bit: 0 }.apply(0), 1);
        assert_eq!(Corruption::FlipBit { bit: 0 }.apply(1), 0);
        assert_eq!(Corruption::XorMask { mask: 0xff }.apply(0x0f), 0xf0);
    }

    #[test]
    fn pattern_trigger_is_selective() {
        let f = HardFault {
            site: FaultSite::Backend { way: 0 },
            corruption: Corruption::FlipBit { bit: 8 },
            trigger: Trigger::ValuePattern { mask: 0xf, pattern: 0xa },
        };
        assert_eq!(f.apply(0x1a), 0x11a, "pattern matches: corrupted");
        assert_eq!(f.apply(0x1b), 0x1b, "pattern misses: clean");
    }

    #[test]
    fn plan_routes_by_site() {
        let mut plan = FaultPlan::new();
        plan.add(HardFault::stuck_bit(FaultSite::Backend { way: 2 }, 0));
        plan.add(HardFault::stuck_bit(FaultSite::Frontend { way: 1 }, 4));
        assert_eq!(plan.apply(FaultSite::Backend { way: 2 }, 0), 1);
        assert_eq!(plan.apply(FaultSite::Backend { way: 3 }, 0), 0, "other ways unaffected");
        assert_eq!(plan.apply(FaultSite::Frontend { way: 1 }, 0), 16);
        assert_eq!(plan.apply(FaultSite::Frontend { way: 0 }, 0), 0);
    }

    #[test]
    fn multiple_faults_compose() {
        let mut plan = FaultPlan::new();
        plan.add(HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 0));
        plan.add(HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 1));
        assert_eq!(plan.apply(FaultSite::Backend { way: 0 }, 0), 3);
    }

    #[test]
    fn payload_site() {
        let mut plan =
            FaultPlan::single(HardFault::stuck_bit(FaultSite::PayloadRam { entry: 7 }, 2));
        assert_eq!(plan.apply(FaultSite::PayloadRam { entry: 7 }, 0), 4);
        assert_eq!(plan.apply(FaultSite::PayloadRam { entry: 6 }, 0), 0);
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.apply(FaultSite::Backend { way: 0 }, 42), 42);
        assert_eq!(plan.apply(FaultSite::Frontend { way: 0 }, 42), 42);
        assert!(!plan.cache_tag_miss(0));
        assert_eq!(plan.activations(), 0);
        assert!(plan.site_usage().is_none(), "no recorder unless asked for");
    }

    #[test]
    fn arming_defaults_to_power_on() {
        assert_eq!(FaultPlan::new().arm_cycle(), 0);
        let f = HardFault::stuck_bit(FaultSite::Backend { way: 0 }, 0);
        assert_eq!(FaultPlan::single(f).arm_cycle(), 0);
        let armed = FaultPlan::single(f).arm_at(12_345);
        assert_eq!(armed.arm_cycle(), 12_345);
        assert!(!armed.is_empty(), "arming does not change the fault set");
    }

    #[test]
    fn pre_arm_hooks_are_inert() {
        let site = FaultSite::Backend { way: 0 };
        let mut plan = FaultPlan::single(HardFault::stuck_bit(site, 0)).arm_at(10);
        plan.observe_cycle(9);
        assert_eq!(plan.apply(site, 0), 0, "healthy before arming");
        assert_eq!(plan.activations(), 0);
        plan.observe_cycle(10);
        assert_eq!(plan.apply(site, 0), 1, "hard fault present from the arming cycle");
        assert_eq!(plan.activations(), 1);
    }

    #[test]
    fn only_a_changed_value_counts_as_an_activation() {
        // Stuck-at-1 on bit 3: reading a value whose bit 3 is already 1
        // reads the faulty way without activating the fault.
        let mut plan =
            FaultPlan::single(HardFault::stuck_bit(FaultSite::Backend { way: 1 }, 3));
        assert_eq!(plan.activations(), 0);
        assert_eq!(plan.apply(FaultSite::Backend { way: 0 }, 0), 0, "other way");
        assert_eq!(plan.activations(), 0);
        assert_eq!(plan.apply(FaultSite::Backend { way: 1 }, 8), 8, "bit already stuck level");
        assert_eq!(plan.activations(), 0);
        assert_eq!(plan.apply(FaultSite::Backend { way: 1 }, 0), 8, "value changed");
        assert_eq!(plan.activations(), 1);

        let copy = plan.clone();
        assert_eq!(copy.activations(), 1, "clone keeps the count");
        plan.apply(FaultSite::Backend { way: 1 }, 0);
        assert_eq!(plan.activations(), 2);
        assert_eq!(copy.activations(), 1, "copies are independent");
    }

    #[test]
    fn counters_cover_every_hook_and_mismatched_triggers() {
        let mut plan = FaultPlan::new();
        plan.add(HardFault {
            site: FaultSite::Frontend { way: 0 },
            corruption: Corruption::FlipBit { bit: 1 },
            trigger: Trigger::ValuePattern { mask: 0xf, pattern: 0xa },
        });
        plan.add(HardFault::stuck_bit(FaultSite::PayloadRam { entry: 2 }, 0));
        // Trigger miss: the defective structure was read, but the value
        // passed through unchanged.
        assert_eq!(plan.apply(FaultSite::Frontend { way: 0 }, 0xb), 0xb);
        assert_eq!(plan.activations(), 0);
        assert_eq!(plan.apply(FaultSite::Frontend { way: 0 }, 0xa), 0x8);
        assert_eq!(plan.activations(), 1);
        assert_eq!(plan.apply(FaultSite::PayloadRam { entry: 2 }, 0), 1);
        assert_eq!(plan.apply(FaultSite::PayloadRam { entry: 2 }, 1), 1);
        assert_eq!(plan.activations(), 2);
    }

    #[test]
    fn display_forms() {
        let f = HardFault::stuck_bit(FaultSite::Frontend { way: 2 }, 0);
        assert!(f.to_string().contains("frontend way 2"));
        assert!(FaultSite::PayloadRam { entry: 3 }.to_string().contains("entry 3"));
        assert!(FaultSite::LvqPayload { entry: 9 }.to_string().contains("LVQ payload entry 9"));
        assert_eq!(FaultKind::Hard.to_string(), "hard");
        assert_eq!(FaultKind::Transient.to_string(), "transient");
        assert_eq!(
            FaultKind::Intermittent { period: 64, on: 8 }.to_string(),
            "intermittent(8/64)"
        );
    }

    #[test]
    fn site_labels_round_trip_over_every_family() {
        let sites = [
            (FaultSite::Frontend { way: 3 }, "frontend:3"),
            (FaultSite::Backend { way: 11 }, "backend:11"),
            (FaultSite::PayloadRam { entry: 7 }, "payload:7"),
            (FaultSite::CacheData { index: 0 }, "cachedata:0"),
            (FaultSite::CacheTag { index: 5 }, "cachetag:5"),
            (FaultSite::StoreBuffer { entry: 2 }, "sbuf:2"),
            (FaultSite::DtqPayload { entry: 9 }, "dtq:9"),
            (FaultSite::LvqPayload { entry: 4 }, "lvq:4"),
        ];
        for (site, label) in sites {
            assert_eq!(site.label(), label);
            assert_eq!(label.parse::<FaultSite>(), Ok(site), "{label}");
            let spec = format!("{label}:17");
            assert_eq!(HardFault::parse_stuck_bit(&spec), Ok(HardFault::stuck_bit(site, 17)));
            assert_eq!(HardFault::parse_stuck_bit(label), Ok(HardFault::stuck_bit(site, 0)));
        }
        for bad in ["tlb:0", "lvq", "lvq:x", "backend:-1", "backend:4:64", "backend:4:2:1", ""] {
            assert!(HardFault::parse_stuck_bit(bad).is_err(), "`{bad}` should be rejected");
        }
        let err = "tlb:0".parse::<FaultSite>().unwrap_err();
        assert!(err.contains("unknown fault site `tlb`") && err.contains("sbuf"), "{err}");
    }

    #[test]
    fn kind_activity_windows() {
        // Hard: on from arming forever.
        assert!(!FaultKind::Hard.active(9, 10));
        assert!(FaultKind::Hard.active(10, 10));
        assert!(FaultKind::Hard.active(1_000_000, 10));
        // Transient: exactly the arming cycle.
        assert!(!FaultKind::Transient.active(9, 10));
        assert!(FaultKind::Transient.active(10, 10));
        assert!(!FaultKind::Transient.active(11, 10));
        // Intermittent 2-on / 5-period windows starting at arm.
        let i = FaultKind::Intermittent { period: 5, on: 2 };
        assert!(!i.active(9, 10));
        assert!(i.active(10, 10) && i.active(11, 10));
        assert!(!i.active(12, 10) && !i.active(14, 10));
        assert!(i.active(15, 10) && i.active(16, 10));
        assert!(!i.active(17, 10));
    }

    #[test]
    fn transient_plan_fires_only_on_the_arming_cycle() {
        let site = FaultSite::Backend { way: 0 };
        let mut plan = FaultPlan::single(HardFault::stuck_bit(site, 0))
            .arm_at(100)
            .with_kind(FaultKind::Transient);
        plan.observe_cycle(99);
        assert_eq!(plan.apply(site, 0), 0, "pre-arm: healthy");
        assert_eq!(plan.activations(), 0);
        plan.observe_cycle(100);
        assert_eq!(plan.apply(site, 0), 1, "arming cycle: upset");
        assert_eq!(plan.activations(), 1);
        plan.observe_cycle(101);
        assert_eq!(plan.apply(site, 0), 0, "one cycle later: healthy again");
        assert_eq!(plan.activations(), 1, "dormant reads count nothing");
    }

    #[test]
    fn intermittent_plan_follows_the_duty_cycle() {
        let site = FaultSite::LvqPayload { entry: 3 };
        let mut plan = FaultPlan::single(HardFault::stuck_bit(site, 2))
            .arm_at(50)
            .with_kind(FaultKind::Intermittent { period: 4, on: 1 });
        for cycle in 48..58 {
            plan.observe_cycle(cycle);
            let expect = cycle >= 50 && (cycle - 50) % 4 == 0;
            let out = plan.apply(site, 0);
            assert_eq!(out != 0, expect, "cycle {cycle}");
        }
    }

    #[test]
    fn uncore_sites_route_independently() {
        let mut plan = FaultPlan::new();
        plan.add(HardFault::stuck_bit(FaultSite::CacheData { index: 5 }, 0));
        plan.add(HardFault::stuck_bit(FaultSite::StoreBuffer { entry: 2 }, 1));
        plan.add(HardFault::stuck_bit(FaultSite::DtqPayload { entry: 7 }, 2));
        plan.add(HardFault::stuck_bit(FaultSite::LvqPayload { entry: 9 }, 3));
        assert_eq!(plan.apply(FaultSite::CacheData { index: 5 }, 0), 1);
        assert_eq!(plan.apply(FaultSite::CacheData { index: 4 }, 0), 0);
        assert_eq!(plan.apply(FaultSite::StoreBuffer { entry: 2 }, 0), 2);
        assert_eq!(plan.apply(FaultSite::StoreBuffer { entry: 3 }, 0), 0);
        assert_eq!(plan.apply(FaultSite::DtqPayload { entry: 7 }, 0), 4);
        assert_eq!(plan.apply(FaultSite::DtqPayload { entry: 6 }, 0), 0);
        assert_eq!(plan.apply(FaultSite::LvqPayload { entry: 9 }, 0), 8);
        assert_eq!(plan.apply(FaultSite::LvqPayload { entry: 8 }, 0), 0);
    }

    #[test]
    fn cache_tag_predicate_counts_as_activation() {
        let mut plan =
            FaultPlan::single(HardFault::stuck_bit(FaultSite::CacheTag { index: 1 }, 0));
        assert!(!plan.cache_tag_miss(0), "other sets healthy");
        assert_eq!(plan.activations(), 0);
        assert!(plan.cache_tag_miss(1));
        assert_eq!(plan.activations(), 1);
    }

    #[test]
    fn clone_preserves_kind_and_observed_cycle() {
        let site = FaultSite::Backend { way: 0 };
        let mut plan = FaultPlan::single(HardFault::stuck_bit(site, 0))
            .arm_at(10)
            .with_kind(FaultKind::Transient);
        plan.observe_cycle(10);
        let mut copy = plan.clone();
        assert_eq!(copy.kind(), FaultKind::Transient);
        assert_eq!(copy.apply(site, 0), 1, "copy still sees the arming cycle");
    }

    #[test]
    fn usage_records_every_consultation_armed_or_not() {
        // The recorder stamps a site whenever its hook is consulted —
        // before arming, while dormant, and on an empty plan — because
        // that is when a fault there *would* have been read.
        let mut plan = FaultPlan::new().record_usage([4, 2, 0, 0, 4, 0, 0, 64]);
        plan.observe_cycle(3);
        assert_eq!(plan.apply(FaultSite::Frontend { way: 1 }, 5), 5);
        plan.observe_cycle(8);
        plan.apply(FaultSite::Frontend { way: 1 }, 5);
        plan.apply(FaultSite::LvqPayload { entry: 40 }, 5);
        assert!(!plan.cache_tag_miss(2));
        let usage = plan.site_usage().expect("recording");
        assert_eq!(usage.last_use(FaultSite::Frontend { way: 1 }), Some(8));
        assert_eq!(usage.last_use(FaultSite::LvqPayload { entry: 40 }), Some(8));
        assert_eq!(usage.last_use(FaultSite::CacheTag { index: 2 }), Some(8));
        assert_eq!(usage.last_use(FaultSite::Frontend { way: 0 }), None, "never consulted");
        assert_eq!(usage.last_use(FaultSite::Backend { way: 1 }), None, "other family");
        assert_eq!(usage.last_use(FaultSite::Backend { way: 9 }), None, "past the sizes");
        assert_eq!(plan.activations(), 0);

        let site = FaultSite::Backend { way: 0 };
        let fault = HardFault::stuck_bit(site, 0);
        let mut armed = FaultPlan::single(fault).arm_at(10).record_usage([0, 1, 0, 0, 0, 0, 0, 0]);
        armed.observe_cycle(4);
        assert_eq!(armed.apply(site, 0), 0, "recording does not arm the fault");
        assert_eq!(armed.site_usage().and_then(|u| u.last_use(site)), Some(4));
        assert_eq!(armed.clone().site_usage(), armed.site_usage(), "clone keeps the record");
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn usage_record_rejects_a_site_past_its_sizes() {
        let mut plan = FaultPlan::new().record_usage([4, 0, 0, 0, 0, 0, 0, 0]);
        plan.apply(FaultSite::Frontend { way: 4 }, 0);
    }
}
