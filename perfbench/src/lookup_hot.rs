//! `lookup_hot`: `Predict` and `Explain` in a fixed 3:1 ratio over a small
//! set of pairs and items of a YelpChi-shaped artifact. Warm-up touches
//! every pair and item once, so every tower is cached before the first
//! timed request: each request does microseconds of model work, and the
//! batch linger, event loop, framing and JSON set latency and capacity.

use crate::check::{check_explain, check_predict, reference_ranking};
use crate::fixture::{self, Serving, Shape, WorkDir};
use crate::serving::{self, Phases, Setup};
use crate::util::{median, peak_rss_mb, Report, Rng};
use crate::{layers, Outcome};
use rrre_core::Prediction;
use rrre_data::{ItemId, UserId};
use rrre_serve::Generation;
use rrre_wire::{Op, Request, Response};
use std::collections::{HashMap, HashSet};
use std::io;

/// Requests each closed-loop connection keeps in flight.
const WINDOW: usize = 16;
/// Open-loop rate, requests per second (a constant of the benchmark).
const RATE: f64 = 300.0;
/// Closed-loop requests per second of `--seconds`.
const CLOSED_PER_S: f64 = 2000.0;
/// Distinct (user, item) pairs asked for with `Predict`.
const PAIRS: usize = 64;
/// Distinct items asked for with `Explain`, spread over the degree order.
const EXPLAIN_ITEMS: usize = 8;
const K: usize = 10;
/// Every `EXPLAIN_EVERY`-th request is an `Explain`, the rest `Predict`.
const EXPLAIN_EVERY: usize = 4;
/// Open-loop requests the traced run replays through `Engine::submit`.
const TRACE_SUBMITS: usize = 400;

pub fn run(seed: u64, seconds: u64, trace: bool) -> io::Result<Outcome> {
    let work = WorkDir::new("lookup_hot")?;
    let dir = work.path().join("artifact");
    fixture::build_artifact_apart(Shape::YelpChi, seed, &dir)?;
    let ds = fixture::dataset(Shape::YelpChi, seed);
    let (n_users, n_items) = (ds.n_users, ds.n_items);
    // An `Explain` costs one head per review of the item, and YelpChi item
    // degrees run from tens to hundreds: take every fifth item in degree
    // order, so each seed's mix costs about the same.
    let index = ds.index();
    let mut by_degree: Vec<u32> = (0..n_items as u32).collect();
    by_degree.sort_by_key(|&i| (index.item_degree(ItemId(i)), i));
    let stride = n_items / EXPLAIN_ITEMS;
    let items: Vec<u32> = (0..EXPLAIN_ITEMS)
        .map(|k| by_degree[k * stride + stride / 2])
        .collect();
    drop(index);
    drop(ds);

    let mut rng = Rng::new(seed, 2);
    let mut seen = HashSet::new();
    let mut pairs = Vec::with_capacity(PAIRS);
    while pairs.len() < PAIRS {
        let pair = (rng.below(n_users) as u32, rng.below(n_items) as u32);
        if seen.insert(pair) {
            pairs.push(pair);
        }
    }
    let mut mix = |n: usize| -> Vec<Request> {
        (0..n)
            .map(|i| {
                if i % EXPLAIN_EVERY == EXPLAIN_EVERY - 1 {
                    Request::explain(items[rng.below(items.len())], K)
                } else {
                    let (u, it) = pairs[rng.below(pairs.len())];
                    Request::predict(u, it)
                }
            })
            .collect()
    };
    let open = mix((RATE * seconds as f64).round() as usize);
    let closed = mix((CLOSED_PER_S * seconds as f64).round() as usize);
    let warm: Vec<Request> = pairs
        .iter()
        .map(|&(u, i)| Request::predict(u, i))
        .chain(items.iter().map(|&i| Request::explain(i, K)))
        .collect();

    let mut report = Report::default();
    let setup = serving::set_up(&mut report, |_| Serving::open(&dir, false), &warm)?;
    let phases = serving::run_phases(&mut report, &setup.serving, &open, RATE, &closed, WINDOW)?;
    let peak_rss = peak_rss_mb();
    eprintln!("lookup_hot: {}", phases.describe());

    let generation = setup.serving.engine.generation();
    let reference = Reference::new(&generation, &pairs, &items);
    let answers = phases
        .open
        .responses
        .iter()
        .zip(&open)
        .chain(phases.closed.iter().zip(&closed));
    for (resp, req) in answers.filter(|(r, _)| r.ok) {
        report.check(reference.check(&generation, req, resp));
    }

    let lat = &phases.open.latency_ms;
    report.metric("setup_s", setup.setup_s, "s");
    report.metric("p50_ms", median(lat), "ms");
    report.metric("throughput_rps", phases.throughput_rps(), "1/s");
    report.metric("peak_rss_mb", peak_rss, "MiB");

    drop(generation);
    let layers = if trace {
        let users: Vec<u32> = pairs.iter().map(|&(u, _)| u).collect();
        let inputs = layers::Inputs {
            artifact: &dir,
            work: work.path(),
            shape: Shape::YelpChi,
            seed,
            users: &users,
            items: &items,
        };
        traced(&setup, &phases, &open, &inputs)
    } else {
        Ok(Report::default())
    };
    setup.serving.stop();
    Ok(Outcome {
        report,
        layers: layers?,
    })
}

/// Reference answers from `Rrre::predict` and the benchmark's own ranking.
struct Reference {
    predict: HashMap<(u32, u32), Prediction>,
    explain: HashMap<u32, Vec<(usize, Prediction)>>,
}

impl Reference {
    fn new(generation: &Generation, pairs: &[(u32, u32)], items: &[u32]) -> Self {
        let art = &generation.artifact;
        let predict = |u: u32, i: u32| art.model.predict(&art.corpus, UserId(u), ItemId(i));
        let explain = items
            .iter()
            .map(|&item| {
                let scored: Vec<(usize, Prediction)> = art
                    .dataset
                    .index()
                    .item_reviews(ItemId(item))
                    .iter()
                    .map(|&ri| (ri, predict(art.dataset.reviews[ri].user.0, item)))
                    .collect();
                (item, reference_ranking(&scored, K))
            })
            .collect();
        Self {
            predict: pairs
                .iter()
                .map(|&(u, i)| ((u, i), predict(u, i)))
                .collect(),
            explain,
        }
    }

    fn check(&self, generation: &Generation, req: &Request, resp: &Response) -> Result<(), String> {
        let ds = &generation.artifact.dataset;
        match req.op {
            Op::Predict => {
                check_predict(resp, self.predict[&(req.user.unwrap(), req.item.unwrap())])
            }
            _ => {
                let item = req.item.unwrap();
                check_explain(resp, item, &self.explain[&item], |ri| {
                    ds.reviews.get(ri).map(|r| r.item.0)
                })
            }
        }
    }
}

/// Replays the open-loop requests through `Engine::submit` and through the
/// core calls the engine makes for them with every tower cached, each timed
/// from outside; times the uncached `rrre_core::explain` for the workload's
/// items; and the other layers on the same artifact through
/// [`layers::complete`].
fn traced(
    setup: &Setup,
    phases: &Phases,
    open: &[Request],
    inputs: &layers::Inputs,
) -> io::Result<Report> {
    let mut out = Report::default();
    let replay = &open[..TRACE_SUBMITS.min(open.len())];
    let submit_us = layers::engine_queue(&mut out, &setup.serving.engine, replay);
    let generation = setup.serving.engine.generation();
    layers::core_explain(&mut out, &generation.artifact, inputs.items);
    drop(generation);
    serving::common_trace(
        &mut out,
        (setup.load_s, setup.retries),
        phases,
        open,
        median(&phases.open.latency_ms),
        &submit_us,
    );
    layers::complete(&mut out, inputs)?;
    Ok(out)
}
