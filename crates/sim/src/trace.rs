//! Observability: occupancy histograms, the way-utilization heatmap, and
//! the flight recorder.
//!
//! The paper's whole argument is spatial — detection works because the
//! trailing thread is steered onto *different ways* — but endpoint
//! counters ([`SimStats`](crate::SimStats)) cannot show per-way
//! utilization, slack dynamics, or the uop-level timeline that led to (or
//! missed) a detection. This module adds three observables:
//!
//! * **Occupancy histograms** ([`Histogram`]) — per-cycle occupancy of
//!   the issue queue, DTQ, LSQ, and active list, plus the leading/trailing
//!   slack distribution. Fixed-bucket and mergeable, so the campaign
//!   metrics registry pools its fork catch-up histogram across workers.
//! * **Way-utilization heatmap** ([`WayHeat`]) — issue counts per
//!   `(context, backend way)`, the direct observable for safe-shuffle
//!   spatial diversity: a diverse trailing thread spreads across the
//!   instances its leading copies did *not* use.
//! * **Flight recorder** ([`FlightRecorder`]) — a bounded ring buffer of
//!   per-uop pipeline events (fetch/dispatch/issue/complete/commit cycle
//!   stamps with context, way, and packet). On a detection the last
//!   `capacity` events are a gem5-style pipetrace of the cycles leading
//!   up to the incident; `bj-trace` renders a dump as an ASCII timeline.
//!
//! **Overhead-when-off guarantee:** every hook goes through [`Tracer`],
//! an enum whose `Off` variant reduces each call to a single discriminant
//! branch — no allocation, no stores — so tracing off adds nothing to
//! the `Core::step` hot loop (the benchmark's `figures` workload
//! measures the trace-off throughput). When `On`, all buffers are
//! pre-sized at [`Core::enable_trace`](crate::Core::enable_trace) time
//! and recording is increment-only, so even traced runs never allocate
//! per cycle.

use crate::config::{CoreConfig, FuCounts};

/// Number of counting buckets per histogram (plus the implicit overflow
/// behaviour: values past the last bucket land in it).
pub const HIST_BUCKETS: usize = 33;

/// A fixed-bucket counting histogram.
///
/// `HIST_BUCKETS` buckets of equal `width`; a recorded value `v` lands in
/// bucket `min(v / width, HIST_BUCKETS - 1)`, so the last bucket doubles
/// as the overflow bucket. Recording is a single array increment and
/// merging is element-wise addition — associative and commutative, so
/// campaign workers can record independently and pool in any grouping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    width: u64,
    counts: [u64; HIST_BUCKETS],
}

impl Histogram {
    /// A histogram whose buckets cover `0..=max` (width `max(1, max/32)`).
    pub fn for_range(max: u64) -> Histogram {
        Histogram { width: (max / (HIST_BUCKETS as u64 - 1)).max(1), counts: [0; HIST_BUCKETS] }
    }

    /// A histogram with an explicit bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn with_width(width: u64) -> Histogram {
        assert!(width > 0, "histogram bucket width must be positive");
        Histogram { width, counts: [0; HIST_BUCKETS] }
    }

    /// The bucket width.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// The raw bucket counts.
    pub fn counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.counts
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = ((v / self.width) as usize).min(HIST_BUCKETS - 1);
        self.counts[b] += 1;
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean of the bucket midpoints weighted by count (approximate mean of
    /// the recorded values, exact for width 1).
    pub fn mean(&self) -> f64 {
        let n = self.total();
        if n == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * (i as u64 * self.width) as f64)
            .sum();
        sum / n as f64 + if self.width > 1 { self.width as f64 / 2.0 } else { 0.0 }
    }

    /// Upper bound of the bucket containing the `p`-th percentile
    /// (nearest-rank), or 0 when empty. `p` is in `0..=100`.
    pub fn percentile(&self, p: u64) -> u64 {
        let n = self.total();
        if n == 0 {
            return 0;
        }
        let rank = (n * p).div_ceil(100).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (i as u64 + 1) * self.width - 1;
            }
        }
        (HIST_BUCKETS as u64) * self.width - 1
    }

    /// Merges another histogram of the same shape into this one.
    /// Element-wise sum: associative, commutative, identity = empty.
    ///
    /// # Panics
    ///
    /// Panics if the bucket widths differ (merging incompatible
    /// histograms would silently misbucket).
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.width, other.width, "cannot merge histograms of different widths");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// One-line JSON object: `{"width":W,"total":N,"counts":[...]}`.
    pub fn to_json(&self) -> String {
        let counts: Vec<String> = self.counts.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"width\":{},\"total\":{},\"counts\":[{}]}}",
            self.width,
            self.total(),
            counts.join(",")
        )
    }
}

/// Issue counts per `(context, global backend way)` — the way-utilization
/// heatmap. Leading and trailing are kept apart because their *difference*
/// is the diversity observable: a healthy safe-shuffle run shows the
/// trailing row of each class occupying instances the leading row leans
/// away from, pair by pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WayHeat {
    /// `[ctx][global way]` issue counts (filler NOPs included: they
    /// occupy the way for real).
    counts: [Vec<u64>; 2],
    fu: FuCounts,
}

impl WayHeat {
    /// An empty heatmap over the given FU population.
    pub fn new(fu: FuCounts) -> WayHeat {
        let n = fu.total();
        WayHeat { counts: [vec![0; n], vec![0; n]], fu }
    }

    /// The FU population the ways index into.
    pub fn fu_counts(&self) -> &FuCounts {
        &self.fu
    }

    /// Records one issue on `way` by context `ctx`.
    #[inline]
    pub fn record(&mut self, ctx: usize, way: usize) {
        self.counts[ctx][way] += 1;
    }

    /// Issue counts for one context, indexed by global way.
    pub fn of_ctx(&self, ctx: usize) -> &[u64] {
        &self.counts[ctx]
    }

    /// Total issues recorded (both contexts).
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.iter().sum::<u64>()).sum()
    }
}

/// What happened to a uop at one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// Entered the frontend fetch queue.
    Fetch,
    /// Renamed and dispatched into the issue queue.
    Dispatch,
    /// Issued to a backend way.
    Issue,
    /// Result produced (writeback).
    Complete,
    /// Architecturally committed.
    Commit,
    /// A detection check fired on (or near) this uop.
    Detect,
}

impl FlightKind {
    /// Short lowercase name used in the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Fetch => "fetch",
            FlightKind::Dispatch => "dispatch",
            FlightKind::Issue => "issue",
            FlightKind::Complete => "complete",
            FlightKind::Commit => "commit",
            FlightKind::Detect => "detect",
        }
    }

    /// Parses [`FlightKind::name`] back.
    pub fn parse(s: &str) -> Option<FlightKind> {
        Some(match s {
            "fetch" => FlightKind::Fetch,
            "dispatch" => FlightKind::Dispatch,
            "issue" => FlightKind::Issue,
            "complete" => FlightKind::Complete,
            "commit" => FlightKind::Commit,
            "detect" => FlightKind::Detect,
            _ => return None,
        })
    }
}

/// One flight-recorder event: a uop reaching a pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Cycle of the event.
    pub cycle: u64,
    /// Stage reached.
    pub kind: FlightKind,
    /// Globally unique uop id (stable across stages; the timeline key —
    /// `seq` alone is ambiguous across contexts and wrong-path refetches).
    pub uid: u64,
    /// Context: 0 = leading/single, 1 = trailing.
    pub ctx: usize,
    /// Program-order sequence number (`u64::MAX` for filler NOPs).
    pub seq: u64,
    /// Fetch PC.
    pub pc: u64,
    /// Way involved: frontend way for `Fetch`, backend way for `Issue`;
    /// `usize::MAX` when not applicable.
    pub way: usize,
    /// Shuffle/issue packet id, when the uop belongs to one.
    pub packet: u64,
    /// True for safe-shuffle filler NOPs.
    pub filler: bool,
}

/// A bounded ring buffer of [`FlightEvent`]s: the flight recorder.
///
/// Always holds the most recent `capacity` events; older events are
/// overwritten in place (no allocation after construction). Dumped on a
/// detection, it is the pipetrace of the last cycles before the incident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    buf: Vec<FlightEvent>,
    cap: usize,
    /// Next write position.
    head: usize,
    /// Lifetime events recorded (>= buf.len()).
    recorded: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight recorder needs a positive capacity");
        FlightRecorder { buf: Vec::with_capacity(capacity), cap: capacity, head: 0, recorded: 0 }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently held (`<= capacity`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Lifetime events recorded, including overwritten ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Records one event, overwriting the oldest once full.
    #[inline]
    pub fn record(&mut self, ev: FlightEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
        }
        self.head = (self.head + 1) % self.cap;
        self.recorded += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.cap);
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
            out
        }
    }
}

/// Everything one traced run records. Obtained from
/// [`Core::trace`](crate::Core::trace) /
/// [`Core::take_trace`](crate::Core::take_trace) after a run.
#[derive(Debug, Clone)]
pub struct TraceState {
    /// Per-cycle shared issue-queue occupancy.
    pub occ_iq: Histogram,
    /// Per-cycle DTQ occupancy (always zero outside the DTQ modes).
    pub occ_dtq: Histogram,
    /// Per-cycle LSQ occupancy, summed over contexts.
    pub occ_lsq: Histogram,
    /// Per-cycle active-list occupancy, summed over contexts.
    pub occ_al: Histogram,
    /// Per-cycle leading/trailing slack, in instructions (redundant modes).
    pub slack: Histogram,
    /// Issue counts per (context, backend way).
    pub heat: WayHeat,
    /// The last-N-events pipetrace.
    pub flight: FlightRecorder,
}

impl TraceState {
    /// Fresh state sized for `cfg` with a flight recorder holding
    /// `flight_capacity` events.
    pub fn new(cfg: &CoreConfig, flight_capacity: usize) -> TraceState {
        TraceState {
            occ_iq: Histogram::for_range(cfg.issue_queue as u64),
            occ_dtq: Histogram::for_range(cfg.dtq as u64),
            occ_lsq: Histogram::for_range(2 * cfg.lsq as u64),
            occ_al: Histogram::for_range(2 * cfg.active_list as u64),
            slack: Histogram::for_range(2 * cfg.slack.max(16)),
            heat: WayHeat::new(cfg.fu_counts),
            flight: FlightRecorder::new(flight_capacity),
        }
    }

    /// One-line JSON object with every occupancy histogram:
    /// `{"iq":{...},"dtq":{...},"lsq":{...},"al":{...},"slack":{...}}`.
    pub fn occupancy_json(&self) -> String {
        format!(
            "{{\"iq\":{},\"dtq\":{},\"lsq\":{},\"al\":{},\"slack\":{}}}",
            self.occ_iq.to_json(),
            self.occ_dtq.to_json(),
            self.occ_lsq.to_json(),
            self.occ_al.to_json(),
            self.slack.to_json()
        )
    }
}

/// The observability switch the core's hooks go through.
///
/// `Off` (the default) makes every hook a single discriminant branch;
/// `On` carries the pre-allocated [`TraceState`] behind a `Box` so the
/// disabled core pays no size cost either.
#[derive(Debug, Clone, Default)]
pub enum Tracer {
    /// No recording: every hook is a no-op.
    #[default]
    Off,
    /// Recording into the boxed state.
    On(Box<TraceState>),
}

impl Tracer {
    /// A tracer recording into fresh state sized for `cfg`.
    pub fn enabled(cfg: &CoreConfig, flight_capacity: usize) -> Tracer {
        Tracer::On(Box::new(TraceState::new(cfg, flight_capacity)))
    }

    /// True when recording.
    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self, Tracer::On(_))
    }

    /// The recorded state, if on.
    pub fn state(&self) -> Option<&TraceState> {
        match self {
            Tracer::Off => None,
            Tracer::On(t) => Some(t),
        }
    }

    /// Per-cycle occupancy sample. `slack` is `None` outside the
    /// redundant modes.
    #[inline]
    pub fn cycle_sample(&mut self, iq: usize, dtq: usize, lsq: usize, al: usize, slack: Option<u64>) {
        let Tracer::On(t) = self else { return };
        t.occ_iq.record(iq as u64);
        t.occ_dtq.record(dtq as u64);
        t.occ_lsq.record(lsq as u64);
        t.occ_al.record(al as u64);
        if let Some(s) = slack {
            t.slack.record(s);
        }
    }

    /// Issue-time heatmap sample.
    #[inline]
    pub fn issue_way(&mut self, ctx: usize, way: usize) {
        let Tracer::On(t) = self else { return };
        t.heat.record(ctx, way);
    }

    /// Flight-recorder event.
    #[inline]
    pub fn event(&mut self, ev: FlightEvent) {
        let Tracer::On(t) = self else { return };
        t.flight.record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, uid: u64) -> FlightEvent {
        FlightEvent {
            cycle,
            kind: FlightKind::Issue,
            uid,
            ctx: 0,
            seq: uid,
            pc: 0x1000 + 4 * uid,
            way: 2,
            packet: u64::MAX,
            filler: false,
        }
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::with_width(4);
        h.record(0); // bucket 0
        h.record(3); // bucket 0
        h.record(4); // bucket 1
        h.record(1_000_000); // clamps to the last bucket
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[HIST_BUCKETS - 1], 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn histogram_for_range_covers_capacity() {
        let h = Histogram::for_range(32);
        assert_eq!(h.width(), 1, "a 32-entry queue gets exact per-occupancy buckets");
        let h = Histogram::for_range(1024);
        assert_eq!(h.width(), 32);
        // Occupancy `capacity` itself lands in the last bucket, not past it.
        let mut h = Histogram::for_range(32);
        h.record(32);
        assert_eq!(h.counts()[HIST_BUCKETS - 1], 1);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::with_width(1);
        for v in 0..10 {
            h.record(v);
        }
        assert_eq!(h.percentile(50), 4);
        assert_eq!(h.percentile(100), 9);
        assert_eq!(Histogram::with_width(1).percentile(50), 0);
    }

    #[test]
    fn histogram_merge_commutative_and_associative() {
        let mk = |vals: &[u64]| {
            let mut h = Histogram::with_width(2);
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = mk(&[0, 1, 5, 9]);
        let b = mk(&[2, 2, 64, 200]);
        let c = mk(&[7]);

        // Commutativity: a+b == b+a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        // Associativity: (a+b)+c == a+(b+c).
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);

        // Identity: merging an empty histogram changes nothing.
        let mut id = a.clone();
        id.merge(&Histogram::with_width(2));
        assert_eq!(id, a);
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn histogram_merge_rejects_shape_mismatch() {
        Histogram::with_width(1).merge(&Histogram::with_width(2));
    }

    #[test]
    fn histogram_json_shape() {
        let mut h = Histogram::with_width(4);
        h.record(5);
        let j = h.to_json();
        assert!(j.starts_with("{\"width\":4,\"total\":1,\"counts\":[0,1,0"), "{j}");
        assert!(j.ends_with("]}"), "{j}");
    }

    #[test]
    fn ring_buffer_below_capacity_keeps_everything() {
        let mut r = FlightRecorder::new(4);
        for i in 0..3 {
            r.record(ev(i, i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 3);
        let uids: Vec<u64> = r.events().iter().map(|e| e.uid).collect();
        assert_eq!(uids, [0, 1, 2]);
    }

    #[test]
    fn ring_buffer_exactly_at_capacity() {
        let mut r = FlightRecorder::new(4);
        for i in 0..4 {
            r.record(ev(i, i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.recorded(), 4);
        let uids: Vec<u64> = r.events().iter().map(|e| e.uid).collect();
        assert_eq!(uids, [0, 1, 2, 3], "at exactly capacity nothing is dropped");
    }

    #[test]
    fn ring_buffer_capacity_plus_one_drops_only_the_oldest() {
        let mut r = FlightRecorder::new(4);
        for i in 0..5 {
            r.record(ev(i, i));
        }
        assert_eq!(r.len(), 4, "bounded: capacity is never exceeded");
        assert_eq!(r.recorded(), 5);
        let uids: Vec<u64> = r.events().iter().map(|e| e.uid).collect();
        assert_eq!(uids, [1, 2, 3, 4], "oldest event evicted, order preserved");
    }

    #[test]
    fn ring_buffer_wraps_repeatedly() {
        let mut r = FlightRecorder::new(3);
        for i in 0..10 {
            r.record(ev(i, i));
        }
        let uids: Vec<u64> = r.events().iter().map(|e| e.uid).collect();
        assert_eq!(uids, [7, 8, 9]);
        assert_eq!(r.recorded(), 10);
    }

    #[test]
    fn heatmap_records_per_context_and_way() {
        let mut a = WayHeat::new(FuCounts::default());
        a.record(0, 0);
        a.record(0, 0);
        a.record(0, 0);
        a.record(1, 1);
        a.record(1, 15);
        assert_eq!(a.of_ctx(0)[0], 3);
        assert_eq!(a.of_ctx(1)[1], 1);
        assert_eq!(a.of_ctx(1)[15], 1);
        assert_eq!(a.total(), 5);
    }

    #[test]
    fn tracer_off_is_inert() {
        let mut t = Tracer::Off;
        t.cycle_sample(1, 2, 3, 4, Some(5));
        t.issue_way(0, 0);
        t.event(ev(0, 0));
        assert!(!t.is_on());
        assert!(t.state().is_none());
    }

    #[test]
    fn tracer_on_records_through_hooks() {
        let cfg = CoreConfig::default();
        let mut t = Tracer::enabled(&cfg, 8);
        t.cycle_sample(1, 0, 2, 3, Some(100));
        t.issue_way(0, 2);
        t.event(ev(1, 7));
        let s = t.state().unwrap();
        assert_eq!(s.occ_iq.total(), 1);
        assert_eq!(s.slack.total(), 1);
        assert_eq!(s.heat.of_ctx(0)[2], 1);
        assert_eq!(s.flight.len(), 1);
        assert!(s.occupancy_json().contains("\"slack\":{"));
    }

    #[test]
    fn flight_kind_names_roundtrip() {
        for k in [
            FlightKind::Fetch,
            FlightKind::Dispatch,
            FlightKind::Issue,
            FlightKind::Complete,
            FlightKind::Commit,
            FlightKind::Detect,
        ] {
            assert_eq!(FlightKind::parse(k.name()), Some(k));
        }
        assert_eq!(FlightKind::parse("warp"), None);
    }
}
