//! Host-speed normalisation of the benchmark's timings.
//!
//! The benchmark shares a host with other tenants, whose load slows it
//! by up to 2× in phases that last minutes, so no run length averages
//! the load out. A timed rep is therefore cut into chunks, and between
//! chunks a [`Probe`] runs a fixed amount of reference work that lives
//! in this file and never changes with the code under test. A chunk's
//! time is rescaled by how much slower than [`PROBE_REF_S`] the probes on
//! either side of it ran: what the chunk would have taken on the idle
//! reference host. A slower simulator still reads slower, since the
//! probe does not run it.
//!
//! Load only ever adds time, and the probe feels it less than the
//! simulator does, so a rescaled time still reads high under load: the
//! benchmark reports the lower quartile of rescaled times, not their
//! median.

use std::hint::black_box;
use std::time::Instant;

/// One probe's duration on the idle reference host (a 2-vCPU KVM guest,
/// Intel Xeon at 2.1 GHz nominal): the fastest of 400 probes there.
pub const PROBE_REF_S: f64 = 0.0128;

/// Words of each probe thread's table: 2 MiB, a core's share of the
/// host's L2, so the probe feels load on the core and on the shared
/// cache behind it. Of the probe sizes tried (256 KiB to 64 MiB), this
/// one left the least spread between runs of the same code.
const WORDS: usize = 1 << 18;

/// Random updates per probe.
const STEPS: u64 = 1_500_000;

/// Runs the reference work on one thread per campaign worker at once.
pub struct Probe {
    tables: Vec<Vec<u64>>,
}

impl Probe {
    /// A probe for a workload that keeps `threads` cores busy. Its tables
    /// stay allocated and resident until it is dropped.
    pub fn new(threads: usize) -> Probe {
        Probe {
            tables: vec![vec![1; WORDS]; threads.max(1)],
        }
    }

    /// The probe's own resident memory, in MiB.
    pub fn resident_mib(&self) -> f64 {
        (self.tables.len() * WORDS * std::mem::size_of::<u64>()) as f64 / (1 << 20) as f64
    }

    /// Seconds one copy of the reference work took, averaged over the
    /// probe's threads.
    pub fn run(&mut self) -> f64 {
        let total: f64 = match self.tables.as_mut_slice() {
            [table] => reference_work(table),
            tables => std::thread::scope(|s| {
                let handles: Vec<_> = tables
                    .iter_mut()
                    .map(|table| s.spawn(|| reference_work(table)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("the probe does not panic"))
                    .sum()
            }),
        };
        total / self.tables.len() as f64
    }
}

/// Times the work between probes and rescales it to the reference host.
pub struct Laps<'a> {
    probe: &'a mut Probe,
    probe_s: f64,
    start: Instant,
    /// Measured seconds of each finished chunk.
    pub raw_s: Vec<f64>,
    /// The same chunks rescaled to the reference host.
    pub ref_s: Vec<f64>,
}

impl<'a> Laps<'a> {
    /// Probes the host, then starts timing the first chunk.
    pub fn start(probe: &'a mut Probe) -> Laps<'a> {
        let probe_s = probe.run();
        Laps {
            probe,
            probe_s,
            start: Instant::now(),
            raw_s: Vec::new(),
            ref_s: Vec::new(),
        }
    }

    /// Ends the current chunk, probes the host, and starts the next.
    pub fn lap(&mut self) {
        let raw = self.start.elapsed().as_secs_f64();
        let after = self.probe.run();
        self.raw_s.push(raw);
        self.ref_s.push(rescale(raw, self.probe_s, after));
        self.probe_s = after;
        self.start = Instant::now();
    }
}

/// `raw` seconds of work between probes of `before` and `after` seconds,
/// rescaled to the reference host.
fn rescale(raw: f64, before: f64, after: f64) -> f64 {
    raw * PROBE_REF_S / ((before + after) / 2.0)
}

/// The probe's reference work: random read-modify-writes over `table`,
/// whose branch depends on the data. Returns its own duration in seconds.
fn reference_work(table: &mut [u64]) -> f64 {
    let t = Instant::now();
    let n = table.len();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 33) as usize % n;
        let v = table[i];
        if v & 1 == 0 {
            table[i] = v.wrapping_add(x);
        } else {
            table[(i + 7) % n] ^= v;
        }
    }
    black_box(&table);
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_takes_time_on_every_thread() {
        for threads in [1, 2] {
            let mut p = Probe::new(threads);
            assert!(p.run() > 0.0);
            assert_eq!(p.resident_mib(), 2.0 * threads as f64);
        }
    }

    #[test]
    fn chunks_rescale_by_the_mean_probe_around_them() {
        let r = PROBE_REF_S;
        assert!((rescale(2.0, r, r) - 2.0).abs() < 1e-12);
        // Probes at 1.5× and 2.5× the reference: the host ran 2× slow.
        assert!((rescale(2.0, 1.5 * r, 2.5 * r) - 1.0).abs() < 1e-12);
        let mut p = Probe::new(1);
        let mut laps = Laps::start(&mut p);
        laps.lap();
        laps.lap();
        assert_eq!((laps.raw_s.len(), laps.ref_s.len()), (2, 2));
    }
}
