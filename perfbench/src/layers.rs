//! Per-layer probes. Every traced run reports every per-layer figure: a
//! workload times the layers its own traffic exercises on its own inputs,
//! and [`complete`] measures the rest on the workload's artifact and on
//! entities sampled from its inputs, each call timed from outside the
//! layer's public function. The tensor probes use fresh random weights at
//! the shapes the model runs them: the cost of these kernels depends on the
//! shapes, not on the values.

use crate::fixture::{self, Shape};
use crate::serving::{time_each, SETUPS};
use crate::util::{median, ms, us, Report, Rng};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrre_core::{explain, rank_candidates, recommend, Prediction, Rrre, RrreConfig};
use rrre_data::{Dataset, EncodedCorpus, ItemId, Review, UserId};
use rrre_serve::{
    Engine, EngineConfig, FsyncPolicy, IngestConfig, ModelArtifact, WalRecord, WalWriter,
};
use rrre_tensor::init::xavier_uniform;
use rrre_tensor::nn::{AttentionPool, BiLstm};
use rrre_tensor::{Params, Tensor};
use rrre_wire::{Op, Request};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Every per-layer figure, in the order `BENCHMARK.json` lists them. A
/// traced run reports exactly these.
pub const NAMES: [&str; 29] = [
    "core.tower.user_us",
    "core.tower.item_us",
    "core.heads_us",
    "core.rank_us",
    "core.recommend_ms",
    "core.explain_us",
    "tensor.matmul_us",
    "tensor.attention_infer_us",
    "tensor.bilstm_infer_us",
    "serve.cache.hit_ratio",
    "serve.cache.tower_evals",
    "serve.engine.submit_p50_us",
    "serve.engine.submit_p99_us",
    "serve.engine.queue_p50_us",
    "serve.server.overhead_p50_us",
    "serve.frame.decode_us",
    "wire.request_decode_us",
    "wire.response_encode_us",
    "serve.wal.append_us",
    "serve.engine.refresh_ms",
    "core.refresh_towers_us",
    "serve.engine.refreshes",
    "serve.artifact.load_s",
    "core.fit.epoch_s",
    "core.fit.first_epoch_s",
    "data.generate_s",
    "text.corpus_build_s",
    "client.retries",
    "loadgen.late_p99_ms",
];

/// `k` of every `Recommend` and `Explain` the probes make themselves.
const K: usize = 10;
/// Users whose whole-catalog tower work is timed, and of those, how many
/// go through the uncached `rrre_core::recommend`.
const CORE_USERS: usize = 4;
const RECOMMEND_USERS: usize = 3;
/// Requests replayed through `Engine::submit` for the queue figure.
const QUEUE_REQUESTS: usize = 200;
/// Records written through the WAL, the engine's refresh and
/// `Rrre::refresh_towers`.
const WAL_RECORDS: usize = 100;
const REFRESH_RECORDS: usize = 20;
const REFRESH_TOWERS_RECORDS: usize = 10;
/// Epochs of the fit probe: the first (which freezes the encoder) and two
/// more.
const FIT_EPOCHS: usize = 3;

/// Timed blocks per probe; the figure is the median block's mean.
const BLOCKS: usize = 60;

/// Median µs per call of `f`, timed in blocks of `block` calls so that
/// kernels of a few µs are not swamped by the clock read.
fn per_call(block: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_block = Vec::with_capacity(BLOCKS);
    for b in 0..BLOCKS {
        let t = Instant::now();
        for i in 0..block {
            f(b * block + i);
        }
        per_block.push(us(t.elapsed()) / block as f64);
    }
    median(&per_block)
}

/// `tensor.matmul_us` and `tensor.attention_infer_us` at the item tower's
/// shapes: `s_i` review rows of width `k`, a `3·id_dim` context, an
/// `attn_dim` score MLP.
pub fn tower_kernels(report: &mut Report, cfg: &RrreConfig, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let reviews = xavier_uniform(&mut rng, cfg.s_i, cfg.k);
    let w_rev = xavier_uniform(&mut rng, cfg.k, cfg.attn_dim);
    let matmul = per_call(32, |_| {
        std::hint::black_box(reviews.matmul(&w_rev));
    });
    let mut params = Params::new();
    let ctx_dim = 3 * cfg.id_dim;
    let pool = AttentionPool::new(
        &mut params,
        &mut rng,
        "probe.attn",
        cfg.k,
        ctx_dim,
        cfg.attn_dim,
    );
    let context = xavier_uniform(&mut rng, cfg.s_i, ctx_dim);
    let mask = vec![true; cfg.s_i];
    let attention = per_call(32, |_| {
        std::hint::black_box(pool.infer(&params, &reviews, &context, Some(&mask)));
    });
    report.metric("tensor.matmul_us", matmul, "us");
    report.metric("tensor.attention_infer_us", attention, "us");
}

/// `tensor.bilstm_infer_us`: one review through the frozen encoder's
/// BiLSTM (hidden `k/2` per direction) over the corpus's word vectors, for
/// the listed reviews in turn.
pub fn encoder_kernel(
    report: &mut Report,
    cfg: &RrreConfig,
    corpus: &EncodedCorpus,
    docs: &[usize],
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = corpus.embed_dim();
    let mut params = Params::new();
    let bilstm = BiLstm::new(&mut params, &mut rng, "probe.bilstm", dim, cfg.k / 2);
    let flat = corpus.word_vectors.as_flat();
    let seqs: Vec<Tensor> = docs
        .iter()
        .map(|&d| {
            let doc = &corpus.docs[d];
            let mut seq = Tensor::zeros(doc.len.max(1), dim);
            for (row, &id) in doc.ids[..doc.len].iter().enumerate() {
                seq.row_mut(row)
                    .copy_from_slice(&flat[id * dim..(id + 1) * dim]);
            }
            seq
        })
        .collect();
    let bilstm_us = per_call(4, |i| {
        std::hint::black_box(bilstm.infer(&params, &seqs[i % seqs.len()]));
    });
    report.metric("tensor.bilstm_infer_us", bilstm_us, "us");
}

/// `core.tower.user_us`, `core.tower.item_us`, `core.heads_us` and
/// `core.rank_us`: the core calls an uncached `Recommend` makes for each of
/// `users` over the whole catalog; `core.recommend_ms`: the uncached
/// `rrre_core::recommend` for the first few of them.
pub fn core_inference(out: &mut Report, art: &ModelArtifact, users: &[u32]) {
    let model = &art.model;
    let n_items = art.dataset.n_items as u32;
    let (mut user_us, mut item_us, mut heads_us, mut rank_us) = (vec![], vec![], vec![], vec![]);
    for &u in users {
        let user = UserId(u);
        let mut scored = Vec::with_capacity(n_items as usize);
        for i in 0..n_items {
            let item = ItemId(i);
            let t = Instant::now();
            let x_u = model.infer_user_tower(user, item);
            let t1 = Instant::now();
            let y_i = model.infer_item_tower(user, item);
            let t2 = Instant::now();
            let p = model.infer_heads(user, item, &x_u, &y_i);
            let t3 = Instant::now();
            user_us.push(us(t1 - t));
            item_us.push(us(t2 - t1));
            heads_us.push(us(t3 - t2));
            scored.push((item, p));
        }
        let t = Instant::now();
        rank_candidates(&mut scored, K);
        rank_us.push(us(t.elapsed()));
    }
    let recommend_ms: Vec<f64> = users
        .iter()
        .take(RECOMMEND_USERS)
        .map(|&u| {
            let t = Instant::now();
            std::hint::black_box(recommend(model, &art.dataset, &art.corpus, UserId(u), K));
            ms(t.elapsed())
        })
        .collect();
    out.metric("core.tower.user_us", median(&user_us), "us");
    out.metric("core.tower.item_us", median(&item_us), "us");
    out.metric("core.heads_us", median(&heads_us), "us");
    out.metric("core.rank_us", median(&rank_us), "us");
    out.metric("core.recommend_ms", median(&recommend_ms), "ms");
}

/// `core.explain_us`: the uncached `rrre_core::explain` of each item, twice.
pub fn core_explain(out: &mut Report, art: &ModelArtifact, items: &[u32]) {
    let mut explain_us = Vec::with_capacity(2 * items.len());
    for _ in 0..2 {
        for &item in items {
            let t = Instant::now();
            std::hint::black_box(explain(
                &art.model,
                &art.dataset,
                &art.corpus,
                ItemId(item),
                K,
            ));
            explain_us.push(us(t.elapsed()));
        }
    }
    out.metric("core.explain_us", median(&explain_us), "us");
}

/// `serve.engine.queue_p50_us`: replays `Predict` and `Explain` requests
/// through `Engine::submit` and through the core calls the engine makes
/// for them with every tower cached (the heads, and for `Explain` the
/// ranking), each timed from outside; the figure is the median of submit
/// minus core. Each request is submitted once untimed first, so the
/// engine's caches hold its towers. Returns the timed submits' µs.
pub fn engine_queue(out: &mut Report, engine: &Engine, requests: &[Request]) -> Vec<f64> {
    let generation = engine.generation();
    let art = &generation.artifact;
    let model = &art.model;
    let pairs_of = |req: &Request| -> Vec<(u32, u32)> {
        match req.op {
            Op::Predict => vec![(req.user.unwrap(), req.item.unwrap())],
            _ => {
                let item = req.item.unwrap();
                art.index
                    .item_reviews(ItemId(item))
                    .iter()
                    .map(|&ri| (art.dataset.reviews[ri].user.0, item))
                    .collect()
            }
        }
    };
    let mut towers = HashMap::new();
    for req in requests {
        std::hint::black_box(engine.submit(req.clone()));
        for (u, i) in pairs_of(req) {
            towers.entry((u, i)).or_insert_with(|| {
                (
                    model.infer_user_tower(UserId(u), ItemId(i)),
                    model.infer_item_tower(UserId(u), ItemId(i)),
                )
            });
        }
    }
    let core_us = time_each(requests, |req| {
        let mut scored: Vec<(u32, Prediction)> = pairs_of(req)
            .into_iter()
            .map(|(u, i)| {
                let (x_u, y_i) = &towers[&(u, i)];
                (u, model.infer_heads(UserId(u), ItemId(i), x_u, y_i))
            })
            .collect();
        if req.op == Op::Explain {
            rank_candidates(&mut scored, req.k.unwrap_or(K));
        }
        std::hint::black_box(scored);
    });
    let submit_us = time_each(requests, |req| {
        std::hint::black_box(engine.submit(req.clone()));
    });
    let queue_us: Vec<f64> = submit_us.iter().zip(&core_us).map(|(s, c)| s - c).collect();
    out.metric("serve.engine.queue_p50_us", median(&queue_us), "us");
    submit_us
}

/// `serve.wal.append_us`: `WalWriter::append` with an fsync per record,
/// the records in turn, into a fresh WAL in `dir`.
pub fn wal_append(out: &mut Report, dir: &Path, records: &[WalRecord]) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut wal = WalWriter::open(
        dir,
        IngestConfig::default().segment_bytes,
        FsyncPolicy::EveryRecord,
    )?;
    let append_us = time_each(&records[..records.len().min(WAL_RECORDS)], |rec| {
        wal.append(rec).expect("wal append");
    });
    out.metric("serve.wal.append_us", median(&append_us), "us");
    Ok(())
}

/// `core.refresh_towers_us`: `Rrre::refresh_towers` absorbing one record,
/// each on a fresh copy of the artifact's dataset, corpus and model.
pub fn refresh_towers(
    out: &mut Report,
    art: &ModelArtifact,
    records: &[WalRecord],
) -> io::Result<()> {
    let mut refresh_us = Vec::new();
    for rec in records.iter().take(REFRESH_TOWERS_RECORDS) {
        let (mut ds, mut corpus, mut model) =
            (art.dataset.clone(), art.corpus.clone(), art.model.clone());
        let first_new = ds.len();
        ds.append_review(Review {
            user: UserId(rec.user),
            item: ItemId(rec.item),
            rating: rec.rating,
            label: rrre_data::Label::Benign,
            timestamp: rec.ts,
            text: rec.text.clone(),
        })
        .map_err(io::Error::other)?;
        corpus.append_doc(&rec.text);
        let t = Instant::now();
        model
            .refresh_towers(&ds, &corpus, first_new)
            .map_err(io::Error::other)?;
        refresh_us.push(us(t.elapsed()));
    }
    out.metric("core.refresh_towers_us", median(&refresh_us), "us");
    Ok(())
}

/// `serve.engine.refresh_ms`: `Engine::refresh_now` after each write, on a
/// durable-ingest engine over a copy of the artifact in `base` whose
/// refresh is split out of the write path (the default settings refresh
/// inside every write).
pub fn engine_refresh(
    out: &mut Report,
    base: &Path,
    dir: &Path,
    records: &[WalRecord],
) -> io::Result<()> {
    fixture::copy_artifact(base, dir)?;
    let engine = Engine::with_ingest(
        ModelArtifact::load(dir)?,
        EngineConfig::default(),
        IngestConfig {
            refresh_every: 0,
            ..IngestConfig::default()
        },
    )?;
    let mut refresh_ms = Vec::new();
    for rec in records.iter().take(REFRESH_RECORDS) {
        engine.submit(write_request(rec));
        let t = Instant::now();
        engine.refresh_now().map_err(io::Error::other)?;
        refresh_ms.push(ms(t.elapsed()));
    }
    engine.shutdown();
    out.metric("serve.engine.refresh_ms", median(&refresh_ms), "ms");
    Ok(())
}

/// The `IngestReview` that carries a record.
pub fn write_request(rec: &WalRecord) -> Request {
    Request::ingest_review(
        rec.seq,
        rec.user,
        rec.item,
        rec.rating,
        rec.text.clone(),
        rec.ts,
    )
}

/// `n` fresh reviews by `users` of `items`, with texts of the dataset's
/// reviews, numbered from seq 1.
pub fn sample_writes(
    ds: &Dataset,
    seed: u64,
    users: &[u32],
    items: &[u32],
    n: usize,
) -> Vec<WalRecord> {
    let mut rng = Rng::new(seed, 7);
    (1..=n as u64)
        .map(|seq| WalRecord {
            seq,
            user: users[rng.below(users.len())],
            item: items[rng.below(items.len())],
            rating: (1 + rng.below(5)) as f32,
            ts: 2_000_000_000 + seq as i64,
            text: ds.reviews[rng.below(ds.len())].text.clone(),
        })
        .collect()
}

/// What a fit costs on a workload's data, with the inputs behind it:
/// `data.generate_s` and `text.corpus_build_s` (medians of the set-ups),
/// `core.fit.first_epoch_s` (which includes freezing the encoder) and
/// `core.fit.epoch_s` (the median later epoch).
pub struct Fit {
    pub dataset: Dataset,
    pub corpus: EncodedCorpus,
    pub generate_s: Vec<f64>,
    pub corpus_s: Vec<f64>,
    pub epoch_end_s: Vec<f64>,
    pub losses: Vec<f32>,
}

impl Fit {
    /// Draws the dataset and builds its corpus [`SETUPS`] times, keeping
    /// the last; `epoch_end_s` and `losses` are left for the fit to fill.
    pub fn prepare(shape: Shape, seed: u64) -> Self {
        let (mut generate_s, mut corpus_s) = (vec![], vec![]);
        let mut data = None;
        for _ in 0..SETUPS {
            let t = Instant::now();
            let ds = fixture::dataset(shape, seed);
            let generated = t.elapsed();
            let corpus = EncodedCorpus::build(&ds, &fixture::corpus_config());
            generate_s.push(generated.as_secs_f64());
            corpus_s.push((t.elapsed() - generated).as_secs_f64());
            data = Some((ds, corpus));
        }
        let (dataset, corpus) = data.expect("SETUPS > 0");
        Self {
            dataset,
            corpus,
            generate_s,
            corpus_s,
            epoch_end_s: Vec::new(),
            losses: Vec::new(),
        }
    }

    /// `Rrre::fit` over `train` for `epochs`, recording each epoch's end
    /// and loss; returns the model and the fit's wall time in seconds.
    pub fn fit(&mut self, train: &[usize], seed: u64, epochs: usize) -> (Rrre, f64) {
        let (mut ends, mut losses) = (Vec::with_capacity(epochs), Vec::with_capacity(epochs));
        let start = Instant::now();
        let model = Rrre::fit_with_hook(
            &self.dataset,
            &self.corpus,
            train,
            fixture::model_config(seed, epochs),
            |stats, _| {
                ends.push(start.elapsed().as_secs_f64());
                losses.push(stats.loss);
            },
        );
        let fit_s = start.elapsed().as_secs_f64();
        (self.epoch_end_s, self.losses) = (ends, losses);
        (model, fit_s)
    }

    /// Wall seconds of each epoch after the first.
    pub fn later_epochs_s(&self) -> Vec<f64> {
        self.epoch_end_s.windows(2).map(|w| w[1] - w[0]).collect()
    }

    pub fn report(&self, out: &mut Report) {
        out.metric("core.fit.epoch_s", median(&self.later_epochs_s()), "s");
        out.metric("core.fit.first_epoch_s", self.epoch_end_s[0], "s");
        out.metric("data.generate_s", median(&self.generate_s), "s");
        out.metric("text.corpus_build_s", median(&self.corpus_s), "s");
    }
}

/// The workload's own artifact and the entities its traffic touches, for
/// the probes [`complete`] runs.
pub struct Inputs<'a> {
    /// The artifact directory the workload serves (or trained); read only.
    pub artifact: &'a Path,
    /// A scratch directory for the probes' own copies and WAL.
    pub work: &'a Path,
    pub shape: Shape,
    pub seed: u64,
    pub users: &'a [u32],
    pub items: &'a [u32],
}

/// Measures every per-layer figure of [`NAMES`] that `out` lacks, on the
/// workload's artifact and entities. A group is measured when its first
/// figure is missing.
pub fn complete(out: &mut Report, inputs: &Inputs) -> io::Result<()> {
    let lacks = |out: &Report, name: &str| !out.has(name);
    let art = ModelArtifact::load(inputs.artifact)?;
    let cfg = *art.model.config();
    if lacks(out, "core.tower.user_us") {
        let users = &inputs.users[..inputs.users.len().min(CORE_USERS)];
        core_inference(out, &art, users);
    }
    if lacks(out, "core.explain_us") {
        core_explain(out, &art, inputs.items);
    }
    if lacks(out, "tensor.matmul_us") {
        tower_kernels(out, &cfg, inputs.seed);
    }
    if lacks(out, "tensor.bilstm_infer_us") {
        let n = art.dataset.len();
        let docs: Vec<usize> = (0..n).step_by(n / 64 + 1).collect();
        encoder_kernel(out, &cfg, &art.corpus, &docs, inputs.seed);
    }
    if lacks(out, "serve.engine.queue_p50_us") {
        let requests: Vec<Request> = (0..QUEUE_REQUESTS)
            .map(|i| {
                let item = inputs.items[i % inputs.items.len()];
                if i % 4 == 3 {
                    Request::explain(item, K)
                } else {
                    Request::predict(inputs.users[(i / 4) % inputs.users.len()], item)
                }
            })
            .collect();
        let engine = Engine::new(
            ModelArtifact::load(inputs.artifact)?,
            EngineConfig::default(),
        );
        engine_queue(out, &engine, &requests);
        engine.shutdown();
    }
    let writes = sample_writes(
        &art.dataset,
        inputs.seed,
        inputs.users,
        inputs.items,
        WAL_RECORDS,
    );
    if lacks(out, "serve.wal.append_us") {
        wal_append(out, &inputs.work.join("probe-wal"), &writes)?;
    }
    if lacks(out, "core.refresh_towers_us") {
        refresh_towers(out, &art, &writes)?;
    }
    if lacks(out, "serve.engine.refresh_ms") {
        engine_refresh(
            out,
            inputs.artifact,
            &inputs.work.join("probe-refresh"),
            &writes,
        )?;
    }
    drop(art);
    if lacks(out, "core.fit.epoch_s") {
        let mut fit = Fit::prepare(inputs.shape, inputs.seed);
        let train: Vec<usize> = (0..fit.dataset.len()).collect();
        fit.fit(&train, inputs.seed, FIT_EPOCHS);
        fit.report(out);
    }
    Ok(())
}
