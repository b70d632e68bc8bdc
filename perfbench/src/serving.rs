//! The harness the three serving workloads share: repeated set-up with an
//! untimed warm-up, timed rounds of open-loop traffic at a fixed rate and
//! closed-loop traffic over two connections, and the traced figures every
//! serving workload reports.
//!
//! Open-loop latency is reported as a median only. On a shared host a run's
//! tail follows the host's preemptions of its virtual CPUs rather than the
//! program: ten runs of unchanged code put `lookup_hot`'s p99 anywhere from
//! 3.9 to 13 ms (README.md). The tails remain as per-layer figures.

use crate::fixture::Serving;
use crate::load::{self, ClosedLoop, OpenLoop};
use crate::util::{median, quantile, us, Report};
use rrre_serve::{Engine, FrameDecoder};
use rrre_wire::{Request, Response};
use std::io;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Connections (and load threads) of the closed-loop phase: `nproc` on the
/// reference host.
pub const CONNS: usize = 2;

/// Closed-loop windows per round; throughput is the median window's rate.
pub const WINDOWS_PER_ROUND: usize = 2;

/// A server that is up and warm, with the figures of getting it there.
pub struct Setup {
    pub serving: Serving,
    /// Median seconds from the start of a set-up to its end (open the
    /// artifact, start the server, warm up).
    pub setup_s: f64,
    /// Median seconds `ModelArtifact::load` took.
    pub load_s: f64,
    /// Retries the resilient client made during the warm-ups.
    pub retries: u64,
}

/// Sets up `SETUPS` times and keeps the last server. `open(i)` opens
/// set-up `i`; the warm-up requests are sent one at a time and not timed
/// on their own.
pub fn set_up(
    report: &mut Report,
    mut open: impl FnMut(usize) -> io::Result<Serving>,
    warmup: &[Request],
) -> io::Result<Setup> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut load_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    let mut retries = 0;
    for i in 0..SETUPS {
        let t = Instant::now();
        let serving = open(i)?;
        let (warm, warm_retries) = load::sequential(&serving.addr, warmup);
        retries += warm_retries;
        setup_s.push(t.elapsed().as_secs_f64());
        load_s.push(serving.load.as_secs_f64());
        for outcome in &warm {
            tally(report, outcome.as_ref().map_err(String::as_str));
        }
        if i + 1 < SETUPS {
            serving.stop();
        } else {
            kept = Some(serving);
        }
    }
    eprintln!("set-ups (s): {setup_s:.3?}; artifact loads (s): {load_s:.3?}");
    Ok(Setup {
        serving: kept.expect("SETUPS > 0"),
        setup_s: median(&setup_s),
        load_s: median(&load_s),
        retries,
    })
}

/// Counts one operation, and a failure if it did not come back `ok`. A
/// failure is logged, not held against `correct`: the output checks speak
/// of the operations that did not fail.
fn tally(report: &mut Report, outcome: Result<&Response, &str>) {
    report.attempted += 1;
    let why = match outcome {
        Ok(resp) if resp.ok => return,
        Ok(resp) => format!("{:?} {:?}", resp.kind, resp.error),
        Err(e) => e.to_string(),
    };
    report.failed += 1;
    eprintln!("operation failed: {why}");
}

/// Tower-cache and refresh counters of an engine at one moment, or their
/// change over a stretch of time.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    hits: u64,
    misses: u64,
    tower_evals: u64,
    refreshes: u64,
}

impl Counters {
    pub fn read(engine: &Engine) -> Self {
        let s = engine.stats();
        Self {
            hits: s.user_cache_hits + s.item_cache_hits,
            misses: s.user_cache_misses + s.item_cache_misses,
            tower_evals: s.tower_evals,
            refreshes: s.refreshes,
        }
    }

    /// Adds the change from `before` to `after`. The engine keeps its hit
    /// and miss counts on the serving generation's caches, which a refresh
    /// replaces, so across a refresh those two are meaningless (see
    /// [`Phases::hit_ratio`]); they saturate rather than wrap.
    pub fn add_change(&mut self, before: &Self, after: &Self) {
        self.hits += after.hits.saturating_sub(before.hits);
        self.misses += after.misses.saturating_sub(before.misses);
        self.tower_evals += after.tower_evals - before.tower_evals;
        self.refreshes += after.refreshes - before.refreshes;
    }

    /// Hits over lookups; `None` when there were no lookups, or when a
    /// refresh reset the engine's counts in between.
    pub fn hit_ratio(&self) -> Option<f64> {
        let lookups = self.hits + self.misses;
        (lookups > 0 && self.refreshes == 0).then(|| self.hits as f64 / lookups as f64)
    }
}

/// The timed phases of a run, round by round: each round is an open-loop
/// stretch followed by a closed-loop one, so both are spread over the
/// whole run rather than over one stretch of the host's weather.
pub struct Phases {
    /// Every round's open-loop stretch, concatenated in send order.
    pub open: OpenLoop,
    /// Every round's closed-loop responses, concatenated in request order.
    pub closed: Vec<Response>,
    /// Each round's closed-loop completion times.
    closed_rounds: Vec<ClosedLoop>,
    /// Counter changes during the open-loop and the closed-loop stretches.
    pub open_counters: Counters,
    pub closed_counters: Counters,
}

impl Phases {
    fn both(&self) -> Counters {
        let mut c = self.open_counters;
        c.add_change(&Counters::default(), &self.closed_counters);
        c
    }

    /// Hit ratio over all timed operations, if it can be known.
    pub fn hit_ratio(&self) -> Option<f64> {
        self.both().hit_ratio()
    }

    /// Tower evaluations over all timed operations.
    pub fn tower_evals(&self) -> u64 {
        self.both().tower_evals
    }

    /// Tower refreshes over all timed operations.
    pub fn refreshes(&self) -> u64 {
        self.both().refreshes
    }

    /// Closed-loop completions per second: each round's completions are cut
    /// into equal windows, and the figure is the median window's rate.
    pub fn throughput_rps(&self) -> f64 {
        let rates: Vec<f64> = self
            .closed_rounds
            .iter()
            .flat_map(|r| r.window_rates(WINDOWS_PER_ROUND))
            .collect();
        median(&rates)
    }

    /// One line of per-phase cache figures, for the log.
    pub fn describe(&self) -> String {
        let show =
            |r: Option<f64>| r.map_or("unknown (refreshed)".to_string(), |r| format!("{r:.4}"));
        format!(
            "cache hit ratio: open {}, closed {}; tower evals {}; refreshes {}",
            show(self.open_counters.hit_ratio()),
            show(self.closed_counters.hit_ratio()),
            self.tower_evals(),
            self.refreshes()
        )
    }
}

/// Rounds each run's timed operations are split into.
pub const ROUNDS: usize = 5;

/// Runs the timed operations in [`ROUNDS`] rounds. Round `r` sends the
/// `r`-th fifth of `open` open loop at `rate`, then the `r`-th fifth of
/// `closed` closed loop with `window` requests in flight per connection.
/// Every operation is counted.
pub fn run_phases(
    report: &mut Report,
    serving: &Serving,
    open: &[Request],
    rate: f64,
    closed: &[Request],
    window: usize,
) -> io::Result<Phases> {
    let mut phases = Phases {
        open: OpenLoop {
            responses: vec![],
            latency_ms: vec![],
            late_ms: vec![],
        },
        closed: vec![],
        closed_rounds: vec![],
        open_counters: Counters::default(),
        closed_counters: Counters::default(),
    };
    let (open_per, closed_per) = (open.len().div_ceil(ROUNDS), closed.len().div_ceil(ROUNDS));
    for (open_part, closed_part) in open.chunks(open_per).zip(closed.chunks(closed_per)) {
        let c0 = Counters::read(&serving.engine);
        let o = load::open_loop(&serving.addr, open_part, rate)?;
        let c1 = Counters::read(&serving.engine);
        let mut c = load::closed_loop(&serving.addr, closed_part, CONNS, window)?;
        let c2 = Counters::read(&serving.engine);
        phases.open_counters.add_change(&c0, &c1);
        phases.closed_counters.add_change(&c1, &c2);
        phases.open.responses.extend(o.responses);
        phases.open.latency_ms.extend(o.latency_ms);
        phases.open.late_ms.extend(o.late_ms);
        phases.closed.append(&mut c.responses);
        phases.closed_rounds.push(c);
    }
    for resp in phases.open.responses.iter().chain(&phases.closed) {
        tally(report, Ok(resp));
    }
    Ok(phases)
}

/// Microseconds `f` takes on each input, in input order.
pub fn time_each<T>(inputs: &[T], mut f: impl FnMut(&T)) -> Vec<f64> {
    inputs
        .iter()
        .map(|x| {
            let t = Instant::now();
            f(x);
            us(t.elapsed())
        })
        .collect()
}

/// The request lines of a phase as the server receives them.
pub fn request_lines(requests: &[Request]) -> Vec<String> {
    requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut r = r.clone();
            r.id = Some(i as u64);
            serde_json::to_string(&r).expect("requests serialise")
        })
        .collect()
}

/// Per-layer figures every serving stretch reports: front-end framing,
/// wire codec, cache and refresh counters, artifact load (`load_s`, the set-ups'
/// median), the resilient client's retries during warm-up, and how late the
/// generator ran. `client_p50_ms`
/// and `submit_us` (in-process `Engine::submit` times of the same requests)
/// give the server overhead.
pub fn common_trace(
    report: &mut Report,
    (load_s, retries): (f64, u64),
    phases: &Phases,
    requests: &[Request],
    client_p50_ms: f64,
    submit_us: &[f64],
) {
    let lines = request_lines(requests);
    let framed: Vec<Vec<u8>> = lines
        .iter()
        .map(|l| format!("{l}\n").into_bytes())
        .collect();
    let decode_frame = time_each(&framed, |bytes| {
        let mut dec = FrameDecoder::new(rrre_wire::MAX_LINE_BYTES);
        dec.push(bytes);
        std::hint::black_box(dec.next_event());
    });
    let decode_wire = time_each(&lines, |line| {
        std::hint::black_box(rrre_wire::decode_request(line).expect("request lines decode"));
    });
    let encode_wire = time_each(&phases.open.responses, |resp| {
        std::hint::black_box(rrre_wire::encode_response(resp));
    });
    let submit_p50 = median(submit_us);
    report.metric("serve.engine.submit_p50_us", submit_p50, "us");
    report.metric(
        "serve.engine.submit_p99_us",
        quantile(submit_us, 0.99),
        "us",
    );
    report.metric(
        "serve.server.overhead_p50_us",
        client_p50_ms * 1e3 - submit_p50,
        "us",
    );
    report.metric("serve.frame.decode_us", median(&decode_frame), "us");
    report.metric("wire.request_decode_us", median(&decode_wire), "us");
    report.metric("wire.response_encode_us", median(&encode_wire), "us");
    if let Some(ratio) = phases.hit_ratio() {
        report.metric("serve.cache.hit_ratio", ratio, "share");
    }
    report.metric(
        "serve.cache.tower_evals",
        phases.tower_evals() as f64,
        "count",
    );
    report.metric("serve.engine.refreshes", phases.refreshes() as f64, "count");
    report.metric("serve.artifact.load_s", load_s, "s");
    report.metric("client.retries", retries as f64, "count");
    report.metric(
        "loadgen.late_p99_ms",
        quantile(&phases.open.late_ms, 0.99),
        "ms",
    );
}
