//! `ingest_mixed`: durable `IngestReview` writes at the default settings
//! (fsync per record, tower refresh per record) interleaved on one schedule
//! with `Predict` and `Explain` reads of the entities being written, over
//! an Amazon-Musics-shaped artifact of 6.5k reviews. Writes and reads share
//! one engine: every refresh hands the reads fresh, empty tower caches.

use crate::check::{check_ack, check_explain_live, check_ingest_totals};
use crate::fixture::{self, Serving, Shape, WorkDir};
use crate::serving::{self, Counters, Phases};
use crate::util::{median, ms, peak_rss_mb, us, Report, Rng};
use crate::{layers, Outcome};
use rrre_core::Prediction;
use rrre_data::{Dataset, ItemId, Review, UserId};
use rrre_serve::{Engine, EngineConfig, IngestConfig, ModelArtifact, WalRecord};
use rrre_wire::{Request, Response};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Requests each closed-loop connection keeps in flight.
const WINDOW: usize = 4;
/// Open-loop rate, operations per second (a constant of the benchmark).
const RATE: f64 = 100.0;
/// Closed-loop operations per second of `--seconds`.
const CLOSED_PER_S: f64 = 100.0;
/// The entities written and read: users x items.
const USERS: usize = 8;
const ITEMS: usize = 8;
const K: usize = 5;
/// One round of the schedule: 2 fresh writes, 1 resend of an earlier
/// write, 5 `Predict`s and 2 `Explain`s.
const ROUND: [Kind; 10] = [
    Kind::Write,
    Kind::Predict,
    Kind::Predict,
    Kind::Explain,
    Kind::Predict,
    Kind::Write,
    Kind::Predict,
    Kind::Resend,
    Kind::Predict,
    Kind::Explain,
];
/// A resend repeats the fresh write this many writes back (about half a
/// second earlier in the open-loop phase), so its first send has long
/// been acked; before that many writes exist it repeats a warm-up write.
const RESEND_BACK: usize = 10;
/// Warm-up per set-up: two fresh writes, a resend, and reads.
const WARMUP: [Kind; 6] = [
    Kind::Write,
    Kind::Predict,
    Kind::Explain,
    Kind::Write,
    Kind::Predict,
    Kind::Resend,
];
/// Open-loop operations the traced run replays in process.
const TRACE_OPS: usize = 200;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Write,
    Resend,
    Predict,
    Explain,
}

/// One planned operation and the request that carries it.
struct Planned {
    kind: Kind,
    /// For writes and resends, the write's index in `Plan::writes`.
    write: Option<usize>,
    request: Request,
}

/// The whole schedule, made from the seed before the first set-up.
struct Plan {
    writes: Vec<WalRecord>,
    warm: Vec<Planned>,
    open: Vec<Planned>,
    closed: Vec<Planned>,
}

impl Plan {
    fn new(ds: &Dataset, seed: u64, n_open: usize, n_closed: usize) -> Self {
        let mut rng = Rng::new(seed, 3);
        let users: Vec<u32> = rng
            .distinct(USERS, ds.n_users)
            .into_iter()
            .map(|u| u as u32)
            .collect();
        let items: Vec<u32> = rng
            .distinct(ITEMS, ds.n_items)
            .into_iter()
            .map(|i| i as u32)
            .collect();
        let mut plan = Plan {
            writes: Vec::new(),
            warm: Vec::new(),
            open: Vec::new(),
            closed: Vec::new(),
        };
        plan.warm = WARMUP
            .iter()
            .map(|&k| plan.op(k, &mut rng, ds, &users, &items, 0))
            .collect();
        let warm_writes = plan.writes.len();
        // Planned in the order the rounds send them, so that a resend
        // always follows its write.
        let (open_per, closed_per) = (
            n_open.div_ceil(serving::ROUNDS),
            n_closed.div_ceil(serving::ROUNDS),
        );
        for round in 0..serving::ROUNDS {
            for (n, per, phase) in [(n_open, open_per, 0), (n_closed, closed_per, 1)] {
                for i in round * per..((round + 1) * per).min(n) {
                    let op = plan.op(
                        ROUND[i % ROUND.len()],
                        &mut rng,
                        ds,
                        &users,
                        &items,
                        warm_writes,
                    );
                    if phase == 0 {
                        plan.open.push(op)
                    } else {
                        plan.closed.push(op)
                    }
                }
            }
        }
        plan
    }

    fn op(
        &mut self,
        kind: Kind,
        rng: &mut Rng,
        ds: &Dataset,
        users: &[u32],
        items: &[u32],
        warm_writes: usize,
    ) -> Planned {
        let user = users[rng.below(users.len())];
        let item = items[rng.below(items.len())];
        let (write, request) = match kind {
            Kind::Write => {
                let seq = self.writes.len() as u64 + 1;
                let rec = WalRecord {
                    seq,
                    user,
                    item,
                    rating: (1 + rng.below(5)) as f32,
                    ts: 2_000_000_000 + seq as i64,
                    text: ds.reviews[rng.below(ds.len())].text.clone(),
                };
                let req = Request::ingest_review(
                    rec.seq,
                    rec.user,
                    rec.item,
                    rec.rating,
                    rec.text.clone(),
                    rec.ts,
                );
                self.writes.push(rec);
                (Some(self.writes.len() - 1), req)
            }
            Kind::Resend => {
                let n = self.writes.len();
                let w = if n >= warm_writes + RESEND_BACK {
                    n - RESEND_BACK
                } else {
                    0
                };
                let rec = &self.writes[w];
                (
                    Some(w),
                    Request::ingest_review(
                        rec.seq,
                        rec.user,
                        rec.item,
                        rec.rating,
                        rec.text.clone(),
                        rec.ts,
                    ),
                )
            }
            Kind::Predict => (None, Request::predict(user, item)),
            Kind::Explain => (None, Request::explain(item, K)),
        };
        Planned {
            kind,
            write,
            request,
        }
    }
}

fn requests(ops: &[Planned]) -> Vec<Request> {
    ops.iter().map(|p| p.request.clone()).collect()
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> io::Result<Outcome> {
    let work = WorkDir::new("ingest_mixed")?;
    let base = work.path().join("base");
    fixture::build_artifact_apart(Shape::Musics, seed, &base)?;
    let ds = fixture::dataset(Shape::Musics, seed);
    let n_open = (RATE * seconds as f64).round() as usize;
    let n_closed = (CLOSED_PER_S * seconds as f64).round() as usize;
    let plan = Plan::new(&ds, seed, n_open, n_closed);
    let (warm, open, closed) = (
        requests(&plan.warm),
        requests(&plan.open),
        requests(&plan.closed),
    );

    let mut report = Report::default();
    let run_dir = |i: usize| work.path().join(format!("run{i}"));
    let setup = serving::set_up(
        &mut report,
        |i| {
            fixture::copy_artifact(&base, &run_dir(i))?;
            Serving::open(&run_dir(i), true)
        },
        &warm,
    )?;
    let phases = serving::run_phases(&mut report, &setup.serving, &open, RATE, &closed, WINDOW)?;
    let peak_rss = peak_rss_mb();
    eprintln!("ingest_mixed: {}", phases.describe());

    let answers: Vec<(&Planned, &Response)> = plan
        .open
        .iter()
        .zip(&phases.open.responses)
        .chain(plan.closed.iter().zip(&phases.closed))
        .filter(|(_, r)| r.ok)
        .collect();
    check_answers(&mut report, &plan, &ds, &answers);

    // Writes the kept set-up acked fresh: its warm-up writes (a failed one
    // is already counted), then the timed ones. Each set-up wrote into its
    // own copy of the artifact.
    let acked: Vec<usize> = plan
        .warm
        .iter()
        .filter(|p| p.kind == Kind::Write)
        .chain(
            answers
                .iter()
                .map(|(p, _)| *p)
                .filter(|p| p.kind == Kind::Write),
        )
        .map(|p| p.write.unwrap())
        .collect();
    let ingested = setup.serving.engine.stats().ingested;
    let written: Vec<(u32, u32)> = {
        let mut seen = HashSet::new();
        plan.writes
            .iter()
            .map(|w| (w.user, w.item))
            .filter(|p| seen.insert(*p))
            .collect()
    };
    let live: Vec<Response> = written
        .iter()
        .map(|&(u, i)| setup.serving.engine.submit(Request::predict(u, i)))
        .collect();

    let lat_of = |pick: &[Kind]| -> Vec<f64> {
        plan.open
            .iter()
            .zip(&phases.open.latency_ms)
            .filter(|(p, _)| pick.contains(&p.kind))
            .map(|(_, &l)| l)
            .collect()
    };
    let reads = lat_of(&[Kind::Predict, Kind::Explain]);
    let writes = lat_of(&[Kind::Write]);
    // The workload's latency figure is the writes' ack: refresh work, the
    // cost this workload exists to show, sits on that path. The reads' p50
    // goes to the log.
    eprintln!(
        "ingest_mixed: open-loop p50 of reads {:.3} ms, of fresh writes {:.3} ms",
        median(&reads),
        median(&writes)
    );
    report.metric("setup_s", setup.setup_s, "s");
    report.metric("p50_ms", median(&writes), "ms");
    report.metric("throughput_rps", phases.throughput_rps(), "1/s");
    report.metric("peak_rss_mb", peak_rss, "MiB");

    let warm = (setup.load_s, setup.retries);
    setup.serving.stop();
    check_reopen(
        &mut report,
        &run_dir(serving::SETUPS - 1),
        &ds,
        &plan,
        &acked,
        ingested,
        &written,
        &live,
    )?;

    let layers = if trace {
        let (mut users, mut items): (Vec<u32>, Vec<u32>) =
            plan.writes.iter().map(|w| (w.user, w.item)).unzip();
        for entities in [&mut users, &mut items] {
            entities.sort_unstable();
            entities.dedup();
        }
        let inputs = layers::Inputs {
            artifact: &base,
            work: work.path(),
            shape: Shape::Musics,
            seed,
            users: &users,
            items: &items,
        };
        traced(warm, &phases, &open, &plan, &inputs)?
    } else {
        Report::default()
    };
    Ok(Outcome { report, layers })
}

/// Acks carry the right seq and duplicate flag; reads answer in range;
/// `Explain` lists only the item's own reviews, base or ingested.
fn check_answers(
    report: &mut Report,
    plan: &Plan,
    ds: &Dataset,
    answers: &[(&Planned, &Response)],
) {
    let mut written_to: HashMap<u32, HashSet<(u32, &str)>> = HashMap::new();
    for w in &plan.writes {
        written_to
            .entry(w.item)
            .or_default()
            .insert((w.user, w.text.as_str()));
    }
    for (p, resp) in answers {
        let verdict = match p.kind {
            Kind::Write | Kind::Resend => {
                let seq = plan.writes[p.write.unwrap()].seq;
                check_ack(resp, seq, p.kind == Kind::Resend)
            }
            Kind::Predict => match &resp.prediction {
                Some(pr)
                    if (1.0..=5.0).contains(&pr.rating)
                        && (0.0..=1.0).contains(&pr.reliability) =>
                {
                    Ok(())
                }
                other => Err(format!("Predict answered {other:?}")),
            },
            Kind::Explain => {
                let item = p.request.item.unwrap();
                check_explain_live(resp, item, K, |e| match ds.reviews.get(e.review_idx) {
                    Some(r) => r.item.0 == item,
                    None => written_to
                        .get(&item)
                        .is_some_and(|s| s.contains(&(e.user, e.text.as_str()))),
                })
            }
        };
        report.check(verdict);
    }
}

/// Reopens the kept set-up's directory from disk and checks that it holds
/// the base reviews plus exactly the acked writes, and answers `Predict` on
/// every written pair as the live engine did (and as `Rrre::predict` does).
#[allow(clippy::too_many_arguments)]
fn check_reopen(
    report: &mut Report,
    dir: &Path,
    ds: &Dataset,
    plan: &Plan,
    acked: &[usize],
    ingested: u64,
    written: &[(u32, u32)],
    live: &[Response],
) -> io::Result<()> {
    let engine = Engine::open_with_ingest(dir, EngineConfig::default(), IngestConfig::default())?;
    let generation = engine.generation();
    let art = &generation.artifact;
    report.check(check_ingest_totals(
        acked.len() as u64,
        ingested,
        ds.len(),
        art.dataset.len(),
    ));
    let key = |r: &Review| (r.user.0, r.item.0, r.rating.to_bits(), r.text.clone());
    let mut on_disk: Vec<_> = art.dataset.reviews.iter().skip(ds.len()).map(key).collect();
    let mut want: Vec<_> = acked
        .iter()
        .map(|&w| &plan.writes[w])
        .map(|w| (w.user, w.item, w.rating.to_bits(), w.text.clone()))
        .collect();
    on_disk.sort();
    want.sort();
    if on_disk != want {
        report
            .fail_check("reopened artifact's ingested reviews differ from the acked writes".into());
    }
    for (&(u, i), before) in written.iter().zip(live) {
        let after = engine.submit(Request::predict(u, i));
        let want: Prediction = art.model.predict(&art.corpus, UserId(u), ItemId(i));
        report.check(
            crate::check::check_predict(&after, want)
                .map_err(|e| format!("reopened pair ({u},{i}): {e}")),
        );
        if let Some(b) = &before.prediction {
            report.check(
                crate::check::check_predict(
                    &after,
                    Prediction {
                        rating: b.rating,
                        reliability: b.reliability,
                    },
                )
                .map_err(|e| format!("pair ({u},{i}) before vs after reopening: {e}")),
            );
        } else {
            report.fail_check(format!("live Predict on written pair ({u},{i}) failed"));
        }
    }
    drop(generation);
    engine.shutdown();
    Ok(())
}

/// Replays the workload's records through the WAL alone, and its first
/// operations through `Engine::submit` on a fresh copy of the artifact
/// with refresh split out of the write path (each write is followed by an
/// explicit `refresh_now`, as the default settings would do inside the
/// write), each timed from outside; times `Rrre::refresh_towers`; and the
/// other layers on the same artifact through [`layers::complete`].
///
/// The tower-cache hit ratio is counted here, over the replayed reads one
/// by one: the engine keeps its hit and miss counts on the serving
/// generation's caches, which every refresh replaces, so the timed phases
/// cannot give it.
fn traced(
    warm: (f64, u64),
    phases: &Phases,
    open: &[Request],
    plan: &Plan,
    inputs: &layers::Inputs,
) -> io::Result<Report> {
    let mut out = Report::default();
    layers::wal_append(&mut out, &inputs.work.join("trace-wal"), &plan.writes)?;

    let dir = inputs.work.join("trace");
    fixture::copy_artifact(inputs.artifact, &dir)?;
    let artifact = ModelArtifact::load(&dir)?;
    let engine = Engine::with_ingest(
        artifact,
        EngineConfig::default(),
        IngestConfig {
            refresh_every: 0,
            ..IngestConfig::default()
        },
    )?;
    for req in requests(&plan.warm) {
        engine.submit(req);
        engine.refresh_now().map_err(io::Error::other)?;
    }
    let (mut read_us, mut refresh_ms) = (Vec::new(), Vec::new());
    let mut lookups = Counters::default();
    for p in plan.open.iter().take(TRACE_OPS) {
        let before = Counters::read(&engine);
        let t = Instant::now();
        std::hint::black_box(engine.submit(p.request.clone()));
        let took = us(t.elapsed());
        match p.kind {
            Kind::Predict | Kind::Explain => {
                read_us.push(took);
                lookups.add_change(&before, &Counters::read(&engine));
            }
            Kind::Write => {
                let t = Instant::now();
                engine.refresh_now().map_err(io::Error::other)?;
                refresh_ms.push(ms(t.elapsed()));
            }
            Kind::Resend => {}
        }
    }
    let generation = engine.generation();
    layers::refresh_towers(&mut out, &generation.artifact, &plan.writes)?;
    drop(generation);
    engine.shutdown();

    out.metric("serve.engine.refresh_ms", median(&refresh_ms), "ms");
    let hit_ratio = lookups
        .hit_ratio()
        .ok_or_else(|| io::Error::other("the replayed reads made no tower lookups"))?;
    out.metric("serve.cache.hit_ratio", hit_ratio, "share");
    let client_reads: Vec<f64> = plan
        .open
        .iter()
        .zip(&phases.open.latency_ms)
        .filter(|(p, _)| matches!(p.kind, Kind::Predict | Kind::Explain))
        .map(|(_, &l)| l)
        .collect();
    serving::common_trace(
        &mut out,
        warm,
        phases,
        open,
        median(&client_reads),
        &read_us,
    );
    layers::complete(&mut out, inputs)?;
    Ok(out)
}
