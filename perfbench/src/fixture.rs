//! Inputs made from `--seed`: synthetic datasets, the trained model
//! artifact a serving workload opens, scratch directories, and a running
//! server over an engine with the default configuration.

use rrre_core::{Rrre, RrreConfig};
use rrre_data::synth::{generate, SynthConfig};
use rrre_data::{CorpusConfig, Dataset, EncodedCorpus};
use rrre_serve::{Engine, EngineConfig, IngestConfig, ModelArtifact, Server};
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Epochs the serving artifact is trained for. The artifact only has to be
/// a real trained model; its build is not part of any figure.
const ARTIFACT_EPOCHS: usize = 1;

/// Threads for every training run (`nproc` on the reference host).
pub const TRAIN_THREADS: usize = 2;

/// The dataset shapes the workloads use.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Amazon Musics: item-heavy, about 1.4k users x 2k items, 6.5k reviews.
    Musics,
    /// YelpChi: user-heavy, about 2.3k users x 40 items, 6k reviews.
    YelpChi,
}

impl Shape {
    fn config(self) -> SynthConfig {
        match self {
            Shape::Musics => SynthConfig::musics(),
            Shape::YelpChi => SynthConfig::yelp_chi(),
        }
    }
}

/// The dataset of `shape` drawn with `seed`.
pub fn dataset(shape: Shape, seed: u64) -> Dataset {
    let cfg = shape.config();
    let mixed = cfg.seed ^ seed.wrapping_mul(0xD1B5_4A32_D192_ED03);
    generate(&cfg.with_seed(mixed))
}

/// The paper's corpus settings (30-token reviews, 32-d word2vec).
pub fn corpus_config() -> CorpusConfig {
    CorpusConfig::default()
}

/// Paper dimensions (k=64, s_u=11, s_i=12), frozen encoder.
pub fn model_config(seed: u64, epochs: usize) -> RrreConfig {
    RrreConfig {
        epochs,
        threads: TRAIN_THREADS,
        seed: 0x44E5 ^ seed,
        ..RrreConfig::default()
    }
}

/// Trains a one-epoch model on the whole dataset and writes it as a
/// serving artifact.
pub fn build_artifact(shape: Shape, seed: u64, dir: &Path) -> io::Result<()> {
    let ds = dataset(shape, seed);
    let ccfg = corpus_config();
    let corpus = EncodedCorpus::build(&ds, &ccfg);
    let train: Vec<usize> = (0..ds.len()).collect();
    let model = Rrre::fit(&ds, &corpus, &train, model_config(seed, ARTIFACT_EPOCHS));
    ModelArtifact::save(dir, &ds, &corpus, &model, ccfg.min_count)
}

/// Builds the artifact in a child process, so that neither its time nor its
/// memory lands in the workload's figures.
pub fn build_artifact_apart(shape: Shape, seed: u64, dir: &Path) -> io::Result<()> {
    let shape_arg = match shape {
        Shape::Musics => "musics",
        Shape::YelpChi => "yelp_chi",
    };
    let status = Command::new(std::env::current_exe()?)
        .args(["build-artifact", shape_arg, &seed.to_string()])
        .arg(dir)
        .status()?;
    if status.success() {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "artifact build exited with {status}"
        )))
    }
}

/// Entry point of the child process [`build_artifact_apart`] starts.
pub fn build_artifact_main(args: &[String]) -> io::Result<()> {
    let [shape, seed, dir] = args else {
        return Err(io::Error::other(
            "usage: build-artifact <musics|yelp_chi> <seed> <dir>",
        ));
    };
    let shape = match shape.as_str() {
        "musics" => Shape::Musics,
        "yelp_chi" => Shape::YelpChi,
        other => return Err(io::Error::other(format!("unknown shape {other}"))),
    };
    let seed = seed
        .parse()
        .map_err(|e| io::Error::other(format!("bad seed: {e}")))?;
    build_artifact(shape, seed, Path::new(dir))
}

/// A scratch directory under the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> io::Result<Self> {
        let dir = std::env::current_dir()?
            .join(".perfbench_work")
            .join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's directory is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Copies the files of an artifact directory (not its subdirectories).
pub fn copy_artifact(from: &Path, to: &Path) -> io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// An engine with the default configuration behind a TCP server on an
/// ephemeral localhost port.
pub struct Serving {
    pub engine: Arc<Engine>,
    server: Server,
    pub addr: String,
    /// Time `ModelArtifact::load` took while opening.
    pub load: Duration,
}

impl Serving {
    /// Opens the artifact (with durable ingest at its default settings when
    /// `ingest`) and starts the server.
    pub fn open(dir: &Path, ingest: bool) -> io::Result<Self> {
        let t = Instant::now();
        let artifact = ModelArtifact::load(dir)?;
        let load = t.elapsed();
        let engine = if ingest {
            Engine::with_ingest(artifact, EngineConfig::default(), IngestConfig::default())?
        } else {
            Engine::new(artifact, EngineConfig::default())
        };
        let engine = Arc::new(engine);
        let server = Server::start(Arc::clone(&engine), "127.0.0.1:0")?;
        let addr = server.local_addr().to_string();
        Ok(Self {
            engine,
            server,
            addr,
            load,
        })
    }

    /// Stops the server and joins the engine's workers.
    pub fn stop(mut self) {
        self.server.stop();
        self.engine.shutdown();
    }
}
