//! `train_fit`: `Rrre::fit` at paper dimensions with the frozen encoder, a
//! fixed number of epochs and 2 threads, over an Amazon-Musics-shaped
//! synthetic dataset of 6.5k reviews. The backward pass, the Adam step and
//! the data-parallel shards are measured here and nowhere else.

use crate::fixture::{self, Serving, Shape, WorkDir};
use crate::layers::{self, Fit};
use crate::serving;
use crate::util::{median, peak_rss_mb, Report, Rng};
use crate::Outcome;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrre_core::Rrre;
use rrre_data::split::train_test_split;
use rrre_data::{ItemId, UserId};
use rrre_serve::ModelArtifact;
use rrre_wire::Request;
use std::collections::HashSet;
use std::io;

/// Epochs per second of `--seconds` (10 epochs for a 10 s run).
const EPOCHS_PER_S: f64 = 1.0;
/// Share of the reviews held out for the RMSE check.
const TEST_FRACTION: f64 = 0.1;
/// The traced run's serving stretch over the fitted model: held-out pairs
/// asked for with `Predict`, their items with `Explain` (every fourth
/// request), an open-loop stretch at a fixed rate and a closed-loop one.
const SERVE_PAIRS: usize = 32;
const SERVE_ITEMS: usize = 8;
const SERVE_OPEN: usize = 200;
const SERVE_RATE: f64 = 100.0;
const SERVE_CLOSED: usize = 400;
const SERVE_WINDOW: usize = 4;
const K: usize = 10;

pub fn run(seed: u64, seconds: u64, trace: bool) -> io::Result<Outcome> {
    let epochs = ((EPOCHS_PER_S * seconds as f64).round() as usize).max(2);
    let mut report = Report::default();

    // Set-up: data generation plus corpus build, several times.
    let mut fit = Fit::prepare(Shape::Musics, seed);
    let setup_s: Vec<f64> = fit
        .generate_s
        .iter()
        .zip(&fit.corpus_s)
        .map(|(g, c)| g + c)
        .collect();
    let split = train_test_split(
        &fit.dataset,
        TEST_FRACTION,
        &mut StdRng::seed_from_u64(seed ^ 0x5EED),
    );
    let (model, fit_s) = fit.fit(&split.train, seed, epochs);
    let peak_rss = peak_rss_mb();
    report.attempted = epochs as u64;

    // The fit must learn: last-epoch loss below the first, held-out RMSE
    // below that of predicting the training mean.
    let losses = &fit.losses;
    if losses.len() != epochs || losses.last() >= losses.first() {
        report.fail_check(format!(
            "loss did not fall over {epochs} epochs: {losses:?}"
        ));
    }
    // RMSE over the benign held-out reviews: the biased loss (Eq. 14) gates
    // fake reviews out of the rating objective, so those are the ratings
    // the model is trained to predict (the paper's bRMSE).
    let ds = &fit.dataset;
    let mean = split
        .train
        .iter()
        .map(|&i| ds.reviews[i].rating as f64)
        .sum::<f64>()
        / split.train.len() as f64;
    let (mut se_model, mut se_mean, mut n) = (0.0, 0.0, 0.0);
    for r in split
        .test
        .iter()
        .map(|&i| &ds.reviews[i])
        .filter(|r| r.label.is_benign())
    {
        let p = model.predict(&fit.corpus, UserId(r.user.0), ItemId(r.item.0));
        se_model += (p.rating as f64 - r.rating as f64).powi(2);
        se_mean += (mean - r.rating as f64).powi(2);
        n += 1.0;
    }
    let (rmse_model, rmse_mean) = ((se_model / n).sqrt(), (se_mean / n).sqrt());
    eprintln!("train_fit: held-out benign RMSE {rmse_model:.4} vs training mean {rmse_mean:.4}; losses {losses:?}");
    if rmse_model.partial_cmp(&rmse_mean) != Some(std::cmp::Ordering::Less) {
        report.fail_check(format!(
            "held-out RMSE {rmse_model} not below the mean predictor's {rmse_mean}"
        ));
    }

    // An epoch is this workload's operation: `p50_ms` is the median epoch
    // after the first (which also freezes the encoder), `throughput_rps`
    // the training examples fitted per second over the whole fit.
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("p50_ms", median(&fit.later_epochs_s()) * 1e3, "ms");
    report.metric(
        "throughput_rps",
        (split.train.len() * epochs) as f64 / fit_s,
        "1/s",
    );
    report.metric("peak_rss_mb", peak_rss, "MiB");

    let layers = if trace {
        traced(&fit, &model, &split.test, seed)?
    } else {
        Report::default()
    };
    Ok(Outcome { report, layers })
}

/// The fit's own figures; then a short serving stretch over the fitted
/// model, written as an artifact, which gives the serving layers' figures
/// on this workload's model; and the other layers on that artifact through
/// [`layers::complete`].
fn traced(fit: &Fit, model: &Rrre, test: &[usize], seed: u64) -> io::Result<Report> {
    let mut out = Report::default();
    fit.report(&mut out);

    let work = WorkDir::new("train_fit")?;
    let dir = work.path().join("artifact");
    ModelArtifact::save(
        &dir,
        &fit.dataset,
        &fit.corpus,
        model,
        fixture::corpus_config().min_count,
    )?;
    let mut seen = HashSet::new();
    let pairs: Vec<(u32, u32)> = test
        .iter()
        .map(|&i| (fit.dataset.reviews[i].user.0, fit.dataset.reviews[i].item.0))
        .filter(|p| seen.insert(*p))
        .take(SERVE_PAIRS)
        .collect();
    let mut seen = HashSet::new();
    let items: Vec<u32> = pairs
        .iter()
        .map(|&(_, i)| i)
        .filter(|i| seen.insert(*i))
        .take(SERVE_ITEMS)
        .collect();
    let users: Vec<u32> = pairs.iter().map(|&(u, _)| u).collect();
    let mut rng = Rng::new(seed, 5);
    let mut mix = |n: usize| -> Vec<Request> {
        (0..n)
            .map(|i| {
                if i % 4 == 3 {
                    Request::explain(items[rng.below(items.len())], K)
                } else {
                    let (u, it) = pairs[rng.below(pairs.len())];
                    Request::predict(u, it)
                }
            })
            .collect()
    };
    let (open, closed) = (mix(SERVE_OPEN), mix(SERVE_CLOSED));
    let warm: Vec<Request> = pairs
        .iter()
        .map(|&(u, i)| Request::predict(u, i))
        .chain(items.iter().map(|&i| Request::explain(i, K)))
        .collect();

    let mut served = Report::default();
    let setup = serving::set_up(&mut served, |_| Serving::open(&dir, false), &warm)?;
    let phases = serving::run_phases(
        &mut served,
        &setup.serving,
        &open,
        SERVE_RATE,
        &closed,
        SERVE_WINDOW,
    );
    let phases = match phases {
        Ok(p) => p,
        Err(e) => {
            setup.serving.stop();
            return Err(e);
        }
    };
    let submit_us = layers::engine_queue(&mut out, &setup.serving.engine, &open);
    serving::common_trace(
        &mut out,
        (setup.load_s, setup.retries),
        &phases,
        &open,
        median(&phases.open.latency_ms),
        &submit_us,
    );
    setup.serving.stop();
    if served.failed > 0 {
        return Err(io::Error::other(format!(
            "traced serving stretch: {} of {} operations failed",
            served.failed, served.attempted
        )));
    }
    let inputs = layers::Inputs {
        artifact: &dir,
        work: work.path(),
        shape: Shape::Musics,
        seed,
        users: &users,
        items: &items,
    };
    layers::complete(&mut out, &inputs)?;
    Ok(out)
}
