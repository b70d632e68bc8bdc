//! `recommend_cold`: `Recommend` k=10 over an item-heavy Amazon-Musics
//! catalog (about 2k items) at paper dimensions. Every timed request is for
//! a user not seen earlier in the run, so nearly every tower lookup misses:
//! tower and tensor work and cache growth set the cost.

use crate::check::{check_recommend, reference_ranking};
use crate::fixture::{self, Serving, Shape, WorkDir};
use crate::serving::{self, time_each, Phases, Setup};
use crate::util::{median, peak_rss_mb, Report, Rng};
use crate::{layers, Outcome};
use rrre_core::Prediction;
use rrre_data::{ItemId, UserId};
use rrre_wire::Request;
use std::io;

/// Requests each closed-loop connection keeps in flight.
const WINDOW: usize = 2;
/// Open-loop rate, requests per second (a constant of the benchmark).
const RATE: f64 = 10.0;
/// Closed-loop requests per second of `--seconds`.
const CLOSED_PER_S: f64 = 12.0;
const K: usize = 10;
/// Users recommended for during warm-up (each set-up), never timed.
const WARM_USERS: usize = 4;
/// Responses checked against the reference ranking: the first ones of the
/// open-loop and of the closed-loop requests.
const REFERENCE_OPEN: usize = 3;
const REFERENCE_CLOSED: usize = 2;
/// Fresh users the traced run replays through the layers, and items it
/// explains.
const TRACE_USERS: usize = 6;
const TRACE_ITEMS: usize = 8;

pub fn run(seed: u64, seconds: u64, trace: bool) -> io::Result<Outcome> {
    let work = WorkDir::new("recommend_cold")?;
    let dir = work.path().join("artifact");
    fixture::build_artifact_apart(Shape::Musics, seed, &dir)?;
    let ds = fixture::dataset(Shape::Musics, seed);
    let (n_users, n_items) = (ds.n_users, ds.n_items);
    drop(ds);

    let n_open = (RATE * seconds as f64).round() as usize;
    let n_closed = (CLOSED_PER_S * seconds as f64).round() as usize;
    let users = Rng::new(seed, 1).distinct(WARM_USERS + n_open + n_closed + TRACE_USERS, n_users);
    let (warm_users, rest) = users.split_at(WARM_USERS);
    let (open_users, rest) = rest.split_at(n_open);
    let (closed_users, trace_users) = rest.split_at(n_closed);
    let ask = |us: &[usize]| -> Vec<Request> {
        us.iter()
            .map(|&u| Request::recommend(u as u32, K))
            .collect()
    };
    let (warm, open, closed) = (ask(warm_users), ask(open_users), ask(closed_users));

    let mut report = Report::default();
    let setup = serving::set_up(&mut report, |_| Serving::open(&dir, false), &warm)?;
    let phases = serving::run_phases(&mut report, &setup.serving, &open, RATE, &closed, WINDOW)?;
    let peak_rss = peak_rss_mb();
    eprintln!("recommend_cold: {}", phases.describe());

    // Every answer: k distinct in-range items. A fixed sample: exactly the
    // reference ranking over `Rrre::predict` scores.
    let generation = setup.serving.engine.generation();
    let art = &generation.artifact;
    let reference = |user: usize| -> Vec<(u32, Prediction)> {
        let scored: Vec<(u32, Prediction)> = (0..n_items as u32)
            .map(|i| {
                (
                    i,
                    art.model
                        .predict(&art.corpus, UserId(user as u32), ItemId(i)),
                )
            })
            .collect();
        reference_ranking(&scored, K)
    };
    // A failed operation is already counted; the checks speak of the
    // answers that came back.
    for resp in phases
        .open
        .responses
        .iter()
        .chain(&phases.closed)
        .filter(|r| r.ok)
    {
        report.check(check_recommend(resp, n_items, K, None));
    }
    let sample = open_users
        .iter()
        .zip(&phases.open.responses)
        .take(REFERENCE_OPEN)
        .chain(
            closed_users
                .iter()
                .zip(&phases.closed)
                .take(REFERENCE_CLOSED),
        );
    for (&u, resp) in sample.filter(|(_, r)| r.ok) {
        report.check(check_recommend(resp, n_items, K, Some(&reference(u))));
    }

    let lat = &phases.open.latency_ms;
    report.metric("setup_s", setup.setup_s, "s");
    report.metric("p50_ms", median(lat), "ms");
    report.metric("throughput_rps", phases.throughput_rps(), "1/s");
    report.metric("peak_rss_mb", peak_rss, "MiB");

    drop(generation);
    let layers = if trace {
        let users: Vec<u32> = trace_users.iter().map(|&u| u as u32).collect();
        let items: Vec<u32> = Rng::new(seed, 4)
            .distinct(TRACE_ITEMS, n_items)
            .into_iter()
            .map(|i| i as u32)
            .collect();
        let inputs = layers::Inputs {
            artifact: &dir,
            work: work.path(),
            shape: Shape::Musics,
            seed,
            users: &users,
            items: &items,
        };
        traced(&setup, &phases, &open, &users, &inputs)
    } else {
        Ok(Report::default())
    };
    setup.serving.stop();
    Ok(Outcome {
        report,
        layers: layers?,
    })
}

/// Replays fresh users through the core calls the engine makes for them
/// (towers, heads, ranking), through `rrre_core::recommend`, and through
/// `Engine::submit`, each timed from outside; the other layers on the same
/// artifact through [`layers::complete`]. (The queue figure comes from
/// cached `Predict`s there: the 2 ms linger is inside the run-to-run noise
/// of a 75 ms request.)
fn traced(
    setup: &Setup,
    phases: &Phases,
    open: &[Request],
    users: &[u32],
    inputs: &layers::Inputs,
) -> io::Result<Report> {
    let mut out = Report::default();
    let generation = setup.serving.engine.generation();
    layers::core_inference(&mut out, &generation.artifact, users);
    drop(generation);
    // The engine has never seen these users, so every lookup misses as in
    // the timed phases.
    let requests: Vec<Request> = users.iter().map(|&u| Request::recommend(u, K)).collect();
    let submit_us = time_each(&requests, |r| {
        std::hint::black_box(setup.serving.engine.submit(r.clone()));
    });
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
